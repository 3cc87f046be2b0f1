package fabric_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"cfc/internal/check"
	"cfc/internal/fabric"
)

// TestNodeDeltaRoundTrip pins the batch delta encoding: decode(encode(x))
// is the identity on a DFS-sorted batch, and the encoding actually
// shrinks it — sibling schedules deep in the tree must ship as short
// tails, since that is the frame-size half of prefix locality.
func TestNodeDeltaRoundTrip(t *testing.T) {
	batch := []check.Node{
		{Schedule: []int{0, 1, 0, 1, 0, 1, 0, 0}, Sleep: 3},
		{Schedule: []int{0, 1, 0, 1, 0, 1, 0, 1}},
		{Schedule: []int{0, 1, 0, 1, 0, 1, 1}},
		{Schedule: []int{0, 1, 0, 1, 1}, Sleep: 1},
		{Schedule: []int{0, 1, 0, -2}},
		{Schedule: []int{1}},
	}
	wire := fabric.EncodeNodesForTest(batch)
	if wire[0].P != 0 {
		t.Fatalf("first node encoded with prefix %d, want 0", wire[0].P)
	}
	raw, enc := 0, 0
	for i := range batch {
		raw += len(batch[i].Schedule)
		enc += len(wire[i].S)
	}
	if enc >= raw {
		t.Errorf("delta encoding did not shrink the batch: %d entries raw, %d encoded", raw, enc)
	}
	back, err := fabric.DecodeNodesForTest(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(back) != len(batch) {
		t.Fatalf("round trip changed batch size: %d -> %d", len(batch), len(back))
	}
	for i := range batch {
		a, b := batch[i], back[i]
		if a.Sleep != b.Sleep || len(a.Schedule) != len(b.Schedule) {
			t.Fatalf("node %d mangled: %+v -> %+v", i, a, b)
		}
		for j := range a.Schedule {
			if a.Schedule[j] != b.Schedule[j] {
				t.Fatalf("node %d schedule mangled: %v -> %v", i, a.Schedule, b.Schedule)
			}
		}
	}

	// Malformed prefixes are protocol errors, not silent truncations.
	if _, err := fabric.DecodeNodesForTest([]fabric.WireNode{{P: 2, S: []int{0}}}); err == nil {
		t.Errorf("first node with nonzero prefix decoded without error")
	}
	if _, err := fabric.DecodeNodesForTest([]fabric.WireNode{{S: []int{0}}, {P: 5}}); err == nil {
		t.Errorf("prefix past the first schedule decoded without error")
	}
}

// TestWaveShardingWorkerCounts is the distributed-DPOR determinism gate
// at the fabric level: the same DPOR portfolio, sharded over 1, 2 and 3
// workers, reports results byte-identical to one process — verdicts,
// witnesses and every counter. The engine argues this by induction over
// waves; this test is the argument's integration check.
func TestWaveShardingWorkerCounts(t *testing.T) {
	dpor := check.Options{MaxDepth: 60, MaxStates: 1 << 17, CollapseSpins: true, DPOR: true}
	dporSym := dpor
	dporSym.Symmetry = true
	jobs := []fabric.Job{
		{Name: "mutex/peterson-2p", N: 2, Opts: dpor},
		{Name: "naming/tas-scan", N: 2, Opts: dporSym},
		{Name: "broken/racy-mutex", N: 2, Opts: dpor},
	}
	want := singleProcess(t, jobs)
	for _, nWorkers := range []int{1, 2, 3} {
		results, stats := coordinate(t, jobs, nWorkers, fabric.CoordOptions{Shards: 2})
		if stats.WaveTasks == 0 {
			t.Errorf("workers=%d: no wave tasks distributed", nWorkers)
		}
		for i, r := range results {
			if r.Err != "" {
				t.Errorf("workers=%d %s: %s", nWorkers, r.Job.Name, r.Err)
				continue
			}
			if !r.Sharded {
				t.Errorf("workers=%d %s: DPOR job did not shard", nWorkers, r.Job.Name)
			}
			assertEqual(t, r.Job.Name, want[i], r.Res)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoder — the
// boundary every byte from a worker or coordinator crosses first. The
// oracle:
//
//   - decoding never panics, and a frame with a short header, a length
//     outside (0, MaxFrame], a torn payload or a payload that is not
//     JSON returns an error;
//   - a decoded node batch either fails DecodeNodesForTest with an error
//     or re-encodes and decodes to equal nodes;
//   - a decoded Msg survives WriteFrame→ReadFrame unchanged.
//
// The seeds are real hello, job and wave frames plus a torn header, a
// zero length and a length of MaxFrame+1.
func FuzzReadFrame(f *testing.F) {
	seeds := []*fabric.Msg{
		{T: fabric.MsgHello, V: fabric.ProtoVersion},
		{T: fabric.MsgJob, ID: 1, Job: &fabric.JobSpec{Name: "mutex/peterson-2p", N: 2,
			Opts: check.Options{MaxDepth: 60, MaxStates: 1 << 17, CollapseSpins: true, DPOR: true}}},
		{T: fabric.MsgWave, ID: 2, Shard: 1, Nodes: fabric.EncodeNodesForTest([]check.Node{
			{Schedule: []int{0, 1, 0, 1}, Sleep: 2},
			{Schedule: []int{0, 1, 1}},
			{Schedule: []int{0, -2}, Sleep: 1},
		})},
	}
	var hello []byte
	for i, m := range seeds {
		var buf bytes.Buffer
		if err := fabric.WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		if i == 0 {
			hello = buf.Bytes()
		}
		f.Add(buf.Bytes())
	}
	f.Add(hello[:2])
	f.Add([]byte{0, 0, 0, 0})
	f.Add(binary.BigEndian.AppendUint32(nil, fabric.MaxFrame+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		var m fabric.Msg
		err := fabric.ReadFrame(bytes.NewReader(data), &m)
		if len(data) < 4 {
			if err == nil {
				t.Fatalf("frame with a %d-byte header decoded", len(data))
			}
			return
		}
		n := binary.BigEndian.Uint32(data)
		switch {
		case n == 0 || n > fabric.MaxFrame:
			if err == nil {
				t.Fatalf("frame of length %d decoded", n)
			}
			return
		case uint64(len(data)-4) < uint64(n):
			if err == nil {
				t.Fatalf("torn frame (%d of %d payload bytes) decoded", len(data)-4, n)
			}
			return
		case !json.Valid(data[4 : 4+n]):
			if err == nil {
				t.Fatalf("non-JSON payload decoded: %q", data[4:4+n])
			}
			return
		}
		if err != nil {
			return // valid JSON of the wrong shape for Msg
		}

		if nodes, err := fabric.DecodeNodesForTest(m.Nodes); err == nil {
			back, err := fabric.DecodeNodesForTest(fabric.EncodeNodesForTest(nodes))
			if err != nil {
				t.Fatalf("re-encoded batch does not decode: %v", err)
			}
			if len(back) != len(nodes) {
				t.Fatalf("batch round trip changed size: %d -> %d", len(nodes), len(back))
			}
			for i := range nodes {
				a, b := nodes[i], back[i]
				if a.Sleep != b.Sleep || len(a.Schedule) != len(b.Schedule) {
					t.Fatalf("node %d mangled: %+v -> %+v", i, a, b)
				}
				for j := range a.Schedule {
					if a.Schedule[j] != b.Schedule[j] {
						t.Fatalf("node %d schedule mangled: %v -> %v", i, a.Schedule, b.Schedule)
					}
				}
			}
		}

		// Compare the two round trips' frames rather than the Msg values:
		// a decoded empty slice and an omitted field are the same frame.
		var first, second bytes.Buffer
		if err := fabric.WriteFrame(&first, &m); err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		var back fabric.Msg
		if err := fabric.ReadFrame(bytes.NewReader(first.Bytes()), &back); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if err := fabric.WriteFrame(&second, &back); err != nil {
			t.Fatalf("round-tripped frame does not re-encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("frame round trip changed the message:\n%s\n%s", first.Bytes()[4:], second.Bytes()[4:])
		}
	})
}
