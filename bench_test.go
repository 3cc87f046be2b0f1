package cfc_test

// Benchmark harness: one benchmark family per evaluation artifact of the
// paper (DESIGN.md per-experiment index). The benchmarks measure simulator
// throughput (ns/op of a full measured run) and attach the paper's
// quantities — contention-free / worst-case steps and registers — as
// custom metrics, so `go test -bench=. -benchmem` regenerates every
// table's data points.
//
//	BenchmarkTableM_CFStep / _CFReg    — Table M contention-free rows (EXP-M1/M2)
//	BenchmarkTableM_WCReg              — Table M worst-case register row (EXP-M3)
//	BenchmarkTableM_WCStepUnbounded    — Table M worst-case step row (EXP-M4)
//	BenchmarkTableN_*                  — Table N columns (EXP-N1..N5)
//	BenchmarkMultiGrain                — EXP-S1
//	BenchmarkBackoff                   — EXP-S2
//	BenchmarkDetectionTree             — EXP-S3
//	BenchmarkAblation*                 — DESIGN.md ablations
//	BenchmarkSim*                      — substrate microbenchmarks

import (
	"fmt"
	"testing"

	"cfc"
)

// benchMutexCF measures one tournament configuration per iteration and
// reports the contention-free steps/registers as metrics.
func benchMutexCF(b *testing.B, alg cfc.MutexAlgorithm, n int) {
	b.Helper()
	var last cfc.Measure
	for i := 0; i < b.N; i++ {
		mem := cfc.NewMemory(alg.Model())
		inst, err := alg.New(mem, n)
		if err != nil {
			b.Fatal(err)
		}
		m, err := cfc.ContentionFreeMutex(mem, inst, n)
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.ReportMetric(float64(last.Steps), "cf-steps")
	b.ReportMetric(float64(last.Registers), "cf-regs")
}

func BenchmarkTableM_CFStep(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		for _, l := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/l=%d", n, l), func(b *testing.B) {
				benchMutexCF(b, cfc.TournamentMutex(l), n)
			})
		}
	}
}

func BenchmarkTableM_CFReg(b *testing.B) {
	// Register complexity of the same construction plus the packed-word
	// Lamport variant, which trades atomicity for registers.
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("tournament-l2/n=%d", n), func(b *testing.B) {
			benchMutexCF(b, cfc.TournamentMutex(2), n)
		})
		b.Run(fmt.Sprintf("lamport/n=%d", n), func(b *testing.B) {
			benchMutexCF(b, cfc.LamportFast(), n)
		})
		b.Run(fmt.Sprintf("lamport-packed/n=%d", n), func(b *testing.B) {
			benchMutexCF(b, cfc.PackedLamport(), n)
		})
	}
}

func BenchmarkTableM_WCReg(b *testing.B) {
	// Worst-case register row: Kessels's bit tournament has O(log n)
	// worst-case register complexity [Kes82]; measure the empirical
	// worst case over a schedule portfolio.
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("kessels-tree/n=%d", n), func(b *testing.B) {
			alg := cfc.TournamentMutexWithNode(1, cfc.NodeKessels)
			var rep cfc.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = cfc.MeasureMutex(alg, n, cfc.MutexOptions{Seeds: 5, Rounds: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.WC.Registers), "wc-regs")
		})
	}
}

func BenchmarkTableM_WCStepUnbounded(b *testing.B) {
	// Worst-case step row: the victim's entry steps scale with the
	// holder's dwell — there is no finite worst case [AT92].
	for _, dwell := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("dwell=%d", dwell), func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				alg := cfc.LamportFast()
				mem := cfc.NewMemory(alg.Model())
				inst, err := alg.New(mem, 2)
				if err != nil {
					b.Fatal(err)
				}
				steps, err = cfc.StarveVictim(mem, inst, dwell)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(steps), "victim-steps")
		})
	}
}

// benchNaming measures one naming algorithm per iteration and reports all
// four table measures.
func benchNaming(b *testing.B, alg cfc.NamingAlgorithm, n int) {
	b.Helper()
	var rep cfc.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = cfc.MeasureNaming(alg, n, cfc.TaskOptions{Seeds: 5})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.CF.Registers), "cf-regs")
	b.ReportMetric(float64(rep.CF.Steps), "cf-steps")
	b.ReportMetric(float64(rep.WC.Registers), "wc-regs")
	b.ReportMetric(float64(rep.WC.Steps), "wc-steps")
}

func BenchmarkTableN_TAS(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchNaming(b, cfc.TASScanNaming(), n) })
	}
}

func BenchmarkTableN_ReadTAS(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchNaming(b, cfc.TASBinSearchNaming(), n) })
	}
}

func BenchmarkTableN_ReadTASTAR(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchNaming(b, cfc.TASTARTreeNaming(), n) })
	}
}

func BenchmarkTableN_TAF(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchNaming(b, cfc.TAFTreeNaming(), n) })
	}
}

func BenchmarkTableN_RMW(b *testing.B) {
	// The full read-modify-write model's tight bound is met by the
	// test-and-flip tree (column 5 equals column 4).
	b.Run("n=32", func(b *testing.B) { benchNaming(b, cfc.TAFTreeNaming(), 32) })
}

func BenchmarkMultiGrain(b *testing.B) {
	// EXP-S1: register complexity of plain vs packed Lamport.
	for _, alg := range []cfc.MutexAlgorithm{cfc.LamportFast(), cfc.PackedLamport()} {
		b.Run(alg.Name(), func(b *testing.B) {
			benchMutexCF(b, alg, 256)
		})
	}
}

func BenchmarkBackoff(b *testing.B) {
	// EXP-S2: winner entry steps under contention per policy.
	for _, policy := range []cfc.BackoffPolicy{cfc.BackoffNone, cfc.BackoffLinear, cfc.BackoffExponential} {
		b.Run(policy.String(), func(b *testing.B) {
			n := 8
			var mean float64
			for i := 0; i < b.N; i++ {
				alg := cfc.TTASWithBackoff(policy)
				mem := cfc.NewMemory(alg.Model())
				inst, err := alg.New(mem, n)
				if err != nil {
					b.Fatal(err)
				}
				tr, err := cfc.ContendedMutexRun(mem, inst, n, 3, 2, &cfc.RoundRobin{}, 1<<20)
				if err != nil {
					b.Fatal(err)
				}
				total, count := 0, 0
				for _, a := range cfc.MutexAttempts(tr) {
					if a.EnteredCS {
						total += a.Entry.Steps
						count++
					}
				}
				if count > 0 {
					mean = float64(total) / float64(count)
				}
			}
			b.ReportMetric(mean, "winner-entry-steps")
		})
	}
}

func BenchmarkDetectionTree(b *testing.B) {
	// EXP-S3: splitter tree worst-case steps vs (n, l).
	for _, n := range []int{16, 256, 4096} {
		for _, l := range []int{1, 4} {
			b.Run(fmt.Sprintf("n=%d/l=%d", n, l), func(b *testing.B) {
				var rep cfc.Report
				for i := 0; i < b.N; i++ {
					var err error
					rep, err = cfc.MeasureDetector(cfc.SplitterTreeDetector(l), n, cfc.TaskOptions{Seeds: 3})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(rep.WC.Steps), "wc-steps")
			})
		}
	}
}

func BenchmarkAblationNodeKind(b *testing.B) {
	// DESIGN.md ablation 2: Peterson vs Kessels l = 1 nodes.
	for _, node := range []cfc.NodeKind{cfc.NodePeterson, cfc.NodeKessels} {
		b.Run(node.String(), func(b *testing.B) {
			benchMutexCF(b, cfc.TournamentMutexWithNode(1, node), 256)
		})
	}
}

func BenchmarkAblationDetectorSource(b *testing.B) {
	// DESIGN.md ablation 4: direct splitter vs the Lemma 1 reduction from
	// a mutex algorithm.
	dets := []cfc.Detector{
		cfc.SplitterDetector(),
		cfc.DetectorFromMutex(cfc.LamportFast()),
	}
	for _, det := range dets {
		b.Run(det.Name(), func(b *testing.B) {
			var rep cfc.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = cfc.MeasureDetector(det, 16, cfc.TaskOptions{Seeds: 3})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.CF.Steps), "cf-steps")
		})
	}
}

func BenchmarkSimThroughput(b *testing.B) {
	// Substrate microbenchmark: scheduled events per second of the
	// lock-step runner (2 processes of 2000 events each on a shared
	// register), across the engine/scheduler matrix. "direct/*" rows are
	// the direct-execution engine: inline under the run-to-completion
	// Sequential scheduler (the contention-free fast path), same-thread
	// coroutines under the interleaving RoundRobin; "goroutine/*" rows
	// are the channel-handshake engine the seed shipped with.
	const eventsPerOp = 4000
	mem := cfc.NewMemory(cfc.AtomicRegisters)
	x := mem.Register("x", 8)
	body := func(p *cfc.Proc) {
		for i := 0; i < 1000; i++ {
			p.Write(x, uint64(i&0xff))
			p.Read(x)
		}
	}
	cases := []struct {
		name   string
		engine cfc.Engine
		sched  func() cfc.Scheduler
	}{
		{"direct/sequential", cfc.EngineAuto, func() cfc.Scheduler { return cfc.Sequential{} }},
		{"direct/round-robin", cfc.EngineAuto, func() cfc.Scheduler { return &cfc.RoundRobin{} }},
		{"goroutine/sequential", cfc.EngineGoroutine, func() cfc.Scheduler { return cfc.Sequential{} }},
		{"goroutine/round-robin", cfc.EngineGoroutine, func() cfc.Scheduler { return &cfc.RoundRobin{} }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			arena := cfc.NewArena()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cfc.Run(cfc.Config{
					Mem:    mem,
					Procs:  []cfc.ProcFunc{body, body},
					Sched:  c.sched(),
					Engine: c.engine,
					Reuse:  arena,
				})
				if err != nil || res.Err != nil {
					b.Fatalf("%v / %v", err, res.Err)
				}
			}
			b.ReportMetric(eventsPerOp, "events/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/eventsPerOp, "ns/event")
		})
	}
}

func BenchmarkSimSoloThroughput(b *testing.B) {
	// The contention-free measurement shape itself: one process of n runs
	// a solo attempt on the inline fast path with a reuse arena (zero
	// allocations per run after warm-up).
	mem := cfc.NewMemory(cfc.AtomicRegisters)
	x := mem.Register("x", 8)
	const eventsPerOp = 2001 // 2000 accesses + the termination mark
	procs := make([]cfc.ProcFunc, 8)
	procs[3] = func(p *cfc.Proc) {
		for i := 0; i < 1000; i++ {
			p.Write(x, uint64(i&0xff))
			p.Read(x)
		}
	}
	arena := cfc.NewArena()
	cfg := cfc.Config{Mem: mem, Procs: procs, Sched: cfc.Solo{PID: 3}, Reuse: arena}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cfc.Run(cfg)
		if err != nil || res.Err != nil {
			b.Fatalf("%v / %v", err, res.Err)
		}
	}
	b.ReportMetric(eventsPerOp, "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/eventsPerOp, "ns/event")
}

func BenchmarkSimExhaustiveCheck(b *testing.B) {
	// Substrate microbenchmark: full exhaustive exploration of Peterson's
	// algorithm for two processes on each engine, and for DPOR with its
	// wave pass on 4 goroutines (on a single-core machine the
	// workers=4-dpor row measures pure coordination overhead; on
	// multi-core it measures the speedup).
	build := func() (*cfc.Memory, []cfc.ProcFunc, error) {
		alg := cfc.Peterson2P()
		mem := cfc.NewMemory(alg.Model())
		inst, err := alg.New(mem, 2)
		if err != nil {
			return nil, nil, err
		}
		return mem, []cfc.ProcFunc{
			cfc.MutexBody(inst, 1, 0),
			cfc.MutexBody(inst, 1, 0),
		}, nil
	}
	modes := []struct {
		name    string
		workers int
		dpor    bool
	}{
		{"workers=1", 1, false},
		{"workers=1-dpor", 1, true},
		{"workers=4-dpor", 4, true},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				res, err := cfc.Explore(build, cfc.CheckMutualExclusion, cfc.CheckOptions{
					MaxDepth:      80,
					CollapseSpins: true,
					DPOR:          m.dpor,
					Symmetry:      m.dpor,
					Workers:       m.workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Violation != nil {
					b.Fatal(res.Violation)
				}
				states = res.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}
