package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"cfc/internal/check"
	"cfc/internal/fabric"
	"cfc/internal/sim"
)

// loopback is the benchmark's fabric.Transport: fabric.TCP bound to
// 127.0.0.1, handing each listener's resolved address to the in-process
// workers, and counting what both sides write when counting is on.
type loopback struct {
	tcp   fabric.TCP
	addrs chan string // resolved listener addresses, one per Serve
	count bool
	// joined is closed when the coordinator calls Accept a third time.
	// Its accept loop calls again only after it has queued the second
	// worker's connection for its event loop.
	joined  chan struct{}
	accepts int

	bytesOut atomic.Int64 // written by the coordinator
	bytesIn  atomic.Int64 // written by the workers
	writes   atomic.Int64
	writeNs  atomic.Int64
}

func newLoopback(count bool) *loopback {
	return &loopback{addrs: make(chan string, 1), count: count, joined: make(chan struct{})}
}

// Serve implements fabric.Transport; the address is ignored.
func (l *loopback) Serve(string) (fabric.Listener, error) {
	ln, err := l.tcp.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.addrs <- ln.Addr()
	return countingListener{ln, l}, nil
}

// Dial implements fabric.Transport.
func (l *loopback) Dial(addr string) (io.ReadWriteCloser, error) {
	c, err := l.tcp.Dial(addr)
	if err != nil {
		return nil, err
	}
	return l.wrap(c, &l.bytesIn), nil
}

func (l *loopback) wrap(c io.ReadWriteCloser, bytes *atomic.Int64) io.ReadWriteCloser {
	if !l.count {
		return c
	}
	return &countingConn{ReadWriteCloser: c, l: l, bytes: bytes}
}

type countingListener struct {
	fabric.Listener
	l *loopback
}

// Accept is called by the coordinator's accept loop alone.
func (cl countingListener) Accept() (io.ReadWriteCloser, error) {
	if cl.l.accepts++; cl.l.accepts == 3 {
		close(cl.l.joined)
	}
	c, err := cl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return cl.l.wrap(c, &cl.l.bytesOut), nil
}

type countingConn struct {
	io.ReadWriteCloser
	l     *loopback
	bytes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.ReadWriteCloser.Write(p)
	c.l.writeNs.Add(int64(time.Since(t0)))
	c.l.writes.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

// coordinate runs one fabric pass: a coordinator with Shards 2 and two
// in-process workers over the transport, all stopped before it returns.
// A job that a lost worker leaves stuck degrades after a minute instead
// of hanging the run.
//
// Every program build waits until the coordinator has taken up both
// workers' connections, so no job ends before both have joined.
// fabric.Coordinate says bye only to the connections its event loop has
// taken up; one its accept loop picks up as the last job ends is never
// closed, and that worker would wait for work forever.
func coordinate(tr *loopback, jobs []fabric.Job, reg fabric.Registry) ([]fabric.JobResult, fabric.Stats, error) {
	reg = tr.afterJoins(reg)
	type coordOut struct {
		res   []fabric.JobResult
		stats fabric.Stats
		err   error
	}
	done := make(chan coordOut, 1)
	go func() {
		res, stats, err := fabric.Coordinate(tr, "", jobs, reg, fabric.CoordOptions{Shards: 2, JobTimeout: time.Minute})
		done <- coordOut{res, stats, err}
	}()
	var out coordOut
	var addr string
	select {
	case addr = <-tr.addrs:
	case out = <-done:
		return nil, fabric.Stats{}, fmt.Errorf("coordinator: %v", out.err)
	}
	var wg sync.WaitGroup
	werrs := make([]error, 2)
	for i := range werrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			werrs[i] = fabric.Work(tr, addr, reg, nil)
		}()
	}
	out = <-done
	wg.Wait()
	if out.err != nil {
		return nil, out.stats, out.err
	}
	return out.res, out.stats, errors.Join(werrs...)
}

// afterJoins wraps the builders reg resolves to wait until both workers
// have joined, or a minute, after which a worker that could not connect
// has failed the pass.
func (l *loopback) afterJoins(reg fabric.Registry) fabric.Registry {
	return func(name string, n int) (check.Builder, check.Property, bool) {
		b, p, ok := reg(name, n)
		if !ok {
			return nil, nil, false
		}
		return func() (*sim.Memory, []sim.ProcFunc, error) {
			select {
			case <-l.joined:
			case <-time.After(time.Minute):
			}
			return b()
		}, p, true
	}
}

// joinJob is the trivial job of a fabric set-up: a few dozen states.
var joinJob = fabric.Job{Name: "mutex/lamport-fast", N: 2, Opts: checkOptions(true)}

// join is one fabric set-up through the fabric's own calls:
// fabric.Coordinate binds its listener, two fabric.Work workers connect
// and say hello, and the coordinator runs joinJob to its result; both
// joins fall inside every set-up, since no job ends before them.
func join() error {
	res, _, err := coordinate(newLoopback(false), []fabric.Job{joinJob}, resolve)
	if err != nil {
		return err
	}
	if r := res[0]; r.Err != "" || r.Degraded || r.Res.Violation != nil {
		return fmt.Errorf("set-up job %s: err %q, degraded %v, violation %v", joinJob.Name, r.Err, r.Degraded, r.Res.Violation != nil)
	}
	return nil
}

// runFabric is the fabric-waves-n3 workload.
func runFabric(cfg config, o *outcome) error {
	jobs, err := cfg.jobs(true)
	if err != nil {
		return err
	}
	fjobs := make([]fabric.Job, len(jobs))
	for i, j := range jobs {
		fjobs[i] = fabric.Job{Name: j.name, N: j.n, Opts: j.opts}
	}
	setup, err := sampleSetup(cfg.setupSamples, cfg.setupBudget, func() error {
		for _, j := range fjobs {
			build, _, ok := resolve(j.Name, j.N)
			if !ok {
				return fmt.Errorf("unknown program %s", j.Name)
			}
			if _, _, err := build(); err != nil {
				return err
			}
		}
		return join()
	})
	if err != nil {
		return err
	}
	o.metrics["setup_s"] = setup

	// The single-process results every fabric pass must reproduce.
	want, _ := explorePass(jobs)

	pass := func(tr *loopback, reg fabric.Registry) (fabric.Stats, int, error) {
		res, stats, err := coordinate(tr, fjobs, reg)
		if err != nil {
			return stats, 0, err
		}
		states := 0
		for i, j := range jobs {
			r := res[i]
			var err error
			switch {
			case r.Err != "":
				err = fmt.Errorf("fabric: %s", r.Err)
			case r.Degraded:
				err = errors.New("fabric: degraded")
			default:
				err = verdictError(j, r.Res, nil)
				if err == nil && want[i].err == nil {
					if d := diffResult(want[i].res, r.Res); d != "" {
						err = errors.New("differs from the single-process result: " + d)
					}
				}
			}
			o.op(j.label(), err)
			states += r.Res.States
		}
		return stats, states, nil
	}

	var states int
	plain := func() (float64, error) {
		t0 := time.Now()
		st, s, err := pass(newLoopback(false), resolve)
		secs := time.Since(t0).Seconds()
		states = s
		o.exact["check.states"] = float64(s)
		o.exact["fabric.wave_tasks"] = float64(st.WaveTasks)
		return secs, err
	}

	// Traced pass: frames counted by the transport, builders and
	// properties wrapped in the registry every side resolves through.
	var build, prop counter
	var tr *loopback
	var stats fabric.Stats
	var tstates int
	tracedPass := func() error {
		build, prop = counter{}, counter{}
		reg := func(name string, n int) (check.Builder, check.Property, bool) {
			b, p, ok := resolve(name, n)
			if !ok {
				return nil, nil, false
			}
			return wrapBuilder(b, &build), wrapProperty(p, &prop), true
		}
		tr = newLoopback(true)
		var err error
		stats, tstates, err = pass(tr, reg)
		return err
	}

	if !cfg.trace {
		walls, coordS, err := closedLoop(cfg.window, plain)
		if err != nil {
			return err
		}
		o.metrics["wall_s"] = median(walls)
		o.metrics["work_per_s"] = float64(states) / median(coordS)
		return nil
	}
	overhead, err := overheadLoop(cfg.window, plain, tracedPass)
	if err != nil {
		return err
	}
	o.metrics["trace.overhead_s"] = overhead
	o.metrics["check.build_s"] = build.seconds()
	o.metrics["check.builder_calls"] = float64(build.calls.Load())
	o.metrics["metrics.property_s"] = prop.seconds()
	o.metrics["metrics.property_calls"] = float64(prop.calls.Load())
	o.metrics["check.states"] = float64(tstates)
	o.metrics["fabric.bytes_out"] = float64(tr.bytesOut.Load())
	o.metrics["fabric.bytes_in"] = float64(tr.bytesIn.Load())
	o.metrics["fabric.writes"] = float64(tr.writes.Load())
	o.metrics["fabric.write_s"] = time.Duration(tr.writeNs.Load()).Seconds()
	o.metrics["fabric.wave_tasks"] = float64(stats.WaveTasks)
	o.metrics["fabric.bytes_per_task"] = float64(tr.bytesOut.Load()+tr.bytesIn.Load()) / float64(stats.WaveTasks)
	o.metrics["fabric.events_replayed"] = float64(stats.EventsReplayed)
	o.metrics["fabric.events_saved"] = float64(stats.EventsSaved)
	return nil
}
