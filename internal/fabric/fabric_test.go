package fabric_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfc/internal/check"
	"cfc/internal/fabric"
	"cfc/internal/fleet"
)

// fleetRegistry is the job namespace both sides share in production
// (cfccheck passes the same thing).
func fleetRegistry(name string, n int) (check.Builder, check.Property, bool) {
	w, ok := fleet.ByName(name, n)
	if !ok {
		return nil, nil, false
	}
	return w.Builder(n), w.Check, true
}

// testJobs is a portfolio slice exercising every job shape: a DPOR entry
// (sharded runs distribute its waves), whole reference entries (which
// travel whole even when sharding is on), and a broken workload whose
// violation exercises witness re-verification.
func testJobs() []fabric.Job {
	ref := check.Options{MaxDepth: 60, MaxStates: 1 << 17, CollapseSpins: true}
	dpor := ref
	dpor.DPOR = true
	return []fabric.Job{
		{Name: "mutex/peterson-2p", N: 2, Opts: dpor},
		{Name: "mutex/tas-lock", N: 2, Opts: ref},
		{Name: "naming/tas-scan", N: 2, Opts: ref},
		{Name: "broken/racy-mutex", N: 2, Opts: ref},
	}
}

// singleProcess computes the single-process expectation for each job.
func singleProcess(t *testing.T, jobs []fabric.Job) []check.Result {
	t.Helper()
	out := make([]check.Result, len(jobs))
	for i, j := range jobs {
		build, prop, ok := fleetRegistry(j.Name, j.N)
		if !ok {
			t.Fatalf("unknown workload %s", j.Name)
		}
		res, err := check.Explore(build, prop, j.Opts)
		if err != nil {
			t.Fatalf("%s: %v", j.Name, err)
		}
		out[i] = res
	}
	return out
}

func assertEqual(t *testing.T, name string, want, got check.Result) {
	t.Helper()
	if want.States != got.States || want.Runs != got.Runs || want.Truncated != got.Truncated ||
		want.ReducedNodes != got.ReducedNodes || want.SymmetryApplied != got.SymmetryApplied {
		t.Errorf("%s: counters diverge: want %+v, got %+v", name, want, got)
	}
	wv, gv := want.Violation, got.Violation
	if (wv == nil) != (gv == nil) {
		t.Errorf("%s: verdicts diverge: want violation %v, got %v", name, wv, gv)
		return
	}
	if wv == nil {
		return
	}
	if len(wv.Schedule) != len(gv.Schedule) {
		t.Errorf("%s: witness diverges: want %v, got %v", name, wv.Schedule, gv.Schedule)
		return
	}
	for i := range wv.Schedule {
		if wv.Schedule[i] != gv.Schedule[i] {
			t.Errorf("%s: witness diverges: want %v, got %v", name, wv.Schedule, gv.Schedule)
			return
		}
	}
	if wv.Err.Error() != gv.Err.Error() {
		t.Errorf("%s: violation error diverges: want %q, got %q", name, wv.Err, gv.Err)
	}
}

// servedTransport is the pipe transport, closing served once the
// coordinator listens.
type servedTransport struct {
	*fabric.PipeTransport
	served chan struct{}
}

func (st servedTransport) Serve(addr string) (fabric.Listener, error) {
	defer close(st.served)
	return st.PipeTransport.Serve(addr)
}

// helloLog is a coordinator log that closes admitted once the event
// loop has logged n worker hellos ("worker connected" — the line it
// writes right after counting a worker in Stats.Workers).
type helloLog struct {
	mu       sync.Mutex
	n        int
	admitted chan struct{}
}

func (l *helloLog) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("worker connected")) {
		l.mu.Lock()
		if l.n--; l.n == 0 {
			close(l.admitted)
		}
		l.mu.Unlock()
	}
	return len(p), nil
}

// coordinate runs a coordinator over the pipe transport with nWorkers
// standard workers and returns its results. The workers start once the
// coordinator listens, so none of them misses a short run by sleeping
// between dial retries, and no worker starts a job before the
// coordinator has admitted every worker's hello: otherwise a fast job
// list can complete before the last hello is counted in Stats.Workers.
func coordinate(t *testing.T, jobs []fabric.Job, nWorkers int, co fabric.CoordOptions) ([]fabric.JobResult, fabric.Stats) {
	t.Helper()
	st := servedTransport{fabric.NewPipeTransport(), make(chan struct{})}
	hellos := &helloLog{n: nWorkers, admitted: make(chan struct{})}
	co.Log = hellos
	gatedRegistry := func(name string, n int) (check.Builder, check.Property, bool) {
		<-hellos.admitted
		return fleetRegistry(name, n)
	}
	type out struct {
		results []fabric.JobResult
		stats   fabric.Stats
		err     error
	}
	done := make(chan out, 1)
	go func() {
		results, stats, err := fabric.Coordinate(st, "coord", jobs, fleetRegistry, co)
		done <- out{results, stats, err}
	}()
	<-st.served
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fabric.Work(st.PipeTransport, "coord", gatedRegistry, nil); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	o := <-done
	wg.Wait()
	if o.err != nil {
		t.Fatalf("Coordinate: %v", o.err)
	}
	return o.results, o.stats
}

// TestWholeJobsEqualSingleProcess is the fabric's core contract at the
// whole-entry granularity: coordinator + N workers report exactly what
// one process reports, for every engine.
func TestWholeJobsEqualSingleProcess(t *testing.T) {
	jobs := testJobs()
	want := singleProcess(t, jobs)
	for _, nWorkers := range []int{1, 2, 3} {
		results, stats := coordinate(t, jobs, nWorkers, fabric.CoordOptions{})
		if stats.Workers != nWorkers {
			t.Errorf("workers=%d: stats report %d workers", nWorkers, stats.Workers)
		}
		for i, r := range results {
			if r.Err != "" {
				t.Errorf("workers=%d %s: %s", nWorkers, r.Job.Name, r.Err)
				continue
			}
			if r.Degraded || r.Sharded {
				t.Errorf("workers=%d %s: unexpected degraded=%v sharded=%v", nWorkers, r.Job.Name, r.Degraded, r.Sharded)
			}
			assertEqual(t, r.Job.Name, want[i], r.Res)
		}
	}
}

// TestShardedJobsEqualSingleProcess is the contract with sharding on:
// DPOR jobs run as distributed waves across the workers and every other
// job travels whole, and all still report exactly the single-process
// result. The locality counters must show the prefix machinery actually
// engaged: events saved by live-session reuse.
func TestShardedJobsEqualSingleProcess(t *testing.T) {
	jobs := testJobs()
	want := singleProcess(t, jobs)
	results, stats := coordinate(t, jobs, 2, fabric.CoordOptions{Shards: 2})
	if stats.WaveTasks == 0 {
		t.Errorf("sharded run expanded no wave tasks; DPOR job did not distribute")
	}
	if stats.EventsReplayed == 0 || stats.EventsSaved == 0 {
		t.Errorf("locality counters flat: replayed %d, saved %d", stats.EventsReplayed, stats.EventsSaved)
	}
	for i, r := range results {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Job.Name, r.Err)
			continue
		}
		if r.Sharded != r.Job.Opts.DPOR {
			t.Errorf("%s: sharded=%v, want %v", r.Job.Name, r.Sharded, r.Job.Opts.DPOR)
		}
		assertEqual(t, r.Job.Name, want[i], r.Res)
	}
}

// rawConn dials the coordinator and speaks the wire protocol by hand —
// the tests' misbehaving-worker puppet.
type rawConn struct {
	t   *testing.T
	rwc io.ReadWriteCloser
}

func dialRaw(t *testing.T, pt *fabric.PipeTransport, addr string) *rawConn {
	t.Helper()
	var rwc io.ReadWriteCloser
	var err error
	for i := 0; i < 100; i++ {
		rwc, err = pt.Dial(addr)
		if err == nil {
			return &rawConn{t, rwc}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("dial %s: %v", addr, err)
	return nil
}

func (r *rawConn) hello() {
	if err := fabric.WriteFrame(r.rwc, &fabric.Msg{T: fabric.MsgHello, V: fabric.ProtoVersion}); err != nil {
		r.t.Errorf("raw hello: %v", err)
	}
}

func (r *rawConn) read() fabric.Msg {
	var m fabric.Msg
	if err := fabric.ReadFrame(r.rwc, &m); err != nil {
		r.t.Errorf("raw read: %v", err)
	}
	return m
}

// TestWorkerDisconnectRequeues covers the worker-loss paths at both
// granularities: a worker that takes work and vanishes mid-job costs
// nothing — its whole-entry job or its outstanding wave chunk is
// re-queued, the run converges on the surviving worker, and the results
// still equal the single process. The sharded case runs DPOR jobs only,
// so the first work the flaky worker takes is a wave chunk.
func TestWorkerDisconnectRequeues(t *testing.T) {
	dpor := check.Options{MaxDepth: 60, MaxStates: 1 << 17, CollapseSpins: true, DPOR: true}
	for _, tc := range []struct {
		shards int
		jobs   []fabric.Job
		lost   string // the message the flaky worker takes and drops
	}{
		{0, testJobs(), fabric.MsgJob},
		{2, []fabric.Job{
			{Name: "mutex/peterson-2p", N: 2, Opts: dpor},
			{Name: "broken/racy-mutex", N: 2, Opts: dpor},
		}, fabric.MsgWave},
	} {
		shards, jobs := tc.shards, tc.jobs
		want := singleProcess(t, jobs)
		pt := fabric.NewPipeTransport()
		resCh := make(chan []fabric.JobResult, 1)
		go func() {
			results, _, err := fabric.Coordinate(pt, "coord", jobs, fleetRegistry, fabric.CoordOptions{Shards: shards})
			if err != nil {
				t.Errorf("Coordinate: %v", err)
			}
			resCh <- results
		}()

		// The flaky worker handshakes, accepts its first piece of work —
		// a whole-entry job or a wave chunk — and drops the connection
		// without answering.
		flaky := dialRaw(t, pt, "coord")
		flaky.hello()
		for {
			m := flaky.read()
			if m.T == fabric.MsgJob || m.T == fabric.MsgWave {
				if m.T != tc.lost {
					t.Fatalf("shards=%d: flaky worker got %q first, want %q", shards, m.T, tc.lost)
				}
				break
			}
		}
		flaky.rwc.Close()

		// The reliable worker joins after the loss and finishes the run.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fabric.Work(pt, "coord", fleetRegistry, nil); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
		results := <-resCh
		wg.Wait()
		for i, r := range results {
			if r.Err != "" {
				t.Errorf("shards=%d %s: %s", shards, r.Job.Name, r.Err)
				continue
			}
			assertEqual(t, r.Job.Name, want[i], r.Res)
		}
	}
}

// TestMalformedFramesTolerated covers the hostile-bytes path: garbage
// frames and an absurd length prefix kill only their own connection; the
// coordinator survives and completes the run through a healthy worker.
func TestMalformedFramesTolerated(t *testing.T) {
	jobs := testJobs()[:2]
	want := singleProcess(t, jobs)

	pt := fabric.NewPipeTransport()
	resCh := make(chan []fabric.JobResult, 1)
	go func() {
		results, _, err := fabric.Coordinate(pt, "coord", jobs, fleetRegistry, fabric.CoordOptions{})
		if err != nil {
			t.Errorf("Coordinate: %v", err)
		}
		resCh <- results
	}()

	// Connection 1: a frame that is not JSON.
	junk := dialRaw(t, pt, "coord")
	var frame [16]byte
	binary.BigEndian.PutUint32(frame[:4], 12)
	copy(frame[4:], "hello world!")
	if _, err := junk.rwc.Write(frame[:]); err != nil {
		t.Fatalf("write junk: %v", err)
	}
	// Connection 2: a length prefix promising a 1 GiB frame.
	huge := dialRaw(t, pt, "coord")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	if _, err := huge.rwc.Write(hdr[:]); err != nil {
		t.Fatalf("write huge header: %v", err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := fabric.Work(pt, "coord", fleetRegistry, nil); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	results := <-resCh
	wg.Wait()
	junk.rwc.Close()
	huge.rwc.Close()
	for i, r := range results {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Job.Name, r.Err)
			continue
		}
		assertEqual(t, r.Job.Name, want[i], r.Res)
	}
}

// TestJobTimeoutDegrades covers the wedged-worker path: a worker that
// accepts a job and never answers must cost one DEGRADED row, not a
// hung coordinator.
func TestJobTimeoutDegrades(t *testing.T) {
	jobs := testJobs()[:1]
	pt := fabric.NewPipeTransport()
	resCh := make(chan []fabric.JobResult, 1)
	go func() {
		results, _, err := fabric.Coordinate(pt, "coord", jobs, fleetRegistry,
			fabric.CoordOptions{JobTimeout: 150 * time.Millisecond})
		if err != nil {
			t.Errorf("Coordinate: %v", err)
		}
		resCh <- results
	}()

	wedged := dialRaw(t, pt, "coord")
	wedged.hello()
	m := wedged.read()
	if m.T != fabric.MsgJob {
		t.Fatalf("wedged worker got %q, want job", m.T)
	}
	// ... and never answers.

	select {
	case results := <-resCh:
		if !results[0].Degraded {
			t.Errorf("job completed without a worker: %+v", results[0])
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("coordinator hung on a wedged worker")
	}
	wedged.rwc.Close()
}

// TestProtocolVersionMismatch pins the handshake: an old or future
// worker is dropped at hello, and the run completes on a good one.
func TestProtocolVersionMismatch(t *testing.T) {
	jobs := testJobs()[:1]
	want := singleProcess(t, jobs)

	pt := fabric.NewPipeTransport()
	resCh := make(chan []fabric.JobResult, 1)
	go func() {
		results, stats, err := fabric.Coordinate(pt, "coord", jobs, fleetRegistry, fabric.CoordOptions{})
		if err != nil {
			t.Errorf("Coordinate: %v", err)
		}
		if stats.Workers != 1 {
			t.Errorf("stats count %d workers, want 1 (mismatched hello must not count)", stats.Workers)
		}
		resCh <- results
	}()

	old := dialRaw(t, pt, "coord")
	if err := fabric.WriteFrame(old.rwc, &fabric.Msg{T: fabric.MsgHello, V: fabric.ProtoVersion + 1}); err != nil {
		t.Fatalf("old hello: %v", err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := fabric.Work(pt, "coord", fleetRegistry, nil); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	results := <-resCh
	wg.Wait()
	old.rwc.Close()
	assertEqual(t, results[0].Job.Name, want[0], results[0].Res)
}

// lateTransport is the pipe transport with a listener that, when the
// coordinator closes it, first lets one more worker connect and waits
// until that connection is accepted: a worker joining just as the last
// job finished.
type lateTransport struct {
	*fabric.PipeTransport
	late chan error // the late worker's Work result
}

func (lt *lateTransport) Serve(addr string) (fabric.Listener, error) {
	ln, err := lt.PipeTransport.Serve(addr)
	if err != nil {
		return nil, err
	}
	return &lateListener{Listener: ln, t: lt, addr: addr, lateIn: make(chan struct{})}, nil
}

type lateListener struct {
	fabric.Listener
	t       *lateTransport
	addr    string
	closing atomic.Bool
	lateIn  chan struct{} // closed once the late connection is accepted
	once    sync.Once
}

func (l *lateListener) Accept() (io.ReadWriteCloser, error) {
	c, err := l.Listener.Accept()
	if err == nil && l.closing.Load() {
		close(l.lateIn)
	}
	return c, err
}

func (l *lateListener) Close() error {
	l.once.Do(func() {
		l.closing.Store(true)
		go func() { l.t.late <- fabric.Work(l.t, l.addr, fleetRegistry, nil) }()
		<-l.lateIn
	})
	return l.Listener.Close()
}

// TestLateWorkerReleased covers a worker whose connection is accepted
// after the coordinator's event loop has ended: Coordinate must close
// it, so the worker's Work returns instead of waiting forever for work
// or a bye. The accepted connection races the coordinator's shutdown,
// so the scenario repeats.
func TestLateWorkerReleased(t *testing.T) {
	jobs := []fabric.Job{{Name: "mutex/lamport-fast", N: 2,
		Opts: check.Options{MaxDepth: 60, CollapseSpins: true, DPOR: true}}}
	for i := 0; i < 20; i++ {
		lt := &lateTransport{PipeTransport: fabric.NewPipeTransport(), late: make(chan error, 1)}
		early := make(chan error, 1)
		go func() { early <- fabric.Work(lt, "coord", fleetRegistry, nil) }()
		results, _, err := fabric.Coordinate(lt, "coord", jobs, fleetRegistry, fabric.CoordOptions{})
		if err != nil {
			t.Fatalf("Coordinate: %v", err)
		}
		if r := results[0]; r.Err != "" || r.Degraded {
			t.Fatalf("job: err %q, degraded %v", r.Err, r.Degraded)
		}
		if err := <-early; err != nil {
			t.Errorf("worker: %v", err)
		}
		select {
		case <-lt.late:
			// A nil error or a failed hello on the closed connection:
			// either way the late worker is released.
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: late worker still waiting after the coordinator returned", i)
		}
	}
}
