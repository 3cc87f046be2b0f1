package fabric_test

import (
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
