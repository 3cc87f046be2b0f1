package check_test

// Worker-count gates: on the full algorithm portfolio (mutex, contention
// detection, naming; safe designs and the recorded broken ones) an
// exploration with Workers > 1 must report exactly what Workers = 1
// reports — verdicts, counterexample schedules, visited-state counts,
// run counts and truncation flags. Only the DPOR engine runs goroutines
// (its wave pass); the reference engine must ignore Workers altogether
// (see Options.Workers).

import (
	"strconv"
	"testing"

	"cfc/internal/check"
	"cfc/internal/contention"
	"cfc/internal/driver"
	"cfc/internal/metrics"
	"cfc/internal/mutex"
	"cfc/internal/naming"
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// diffJob is one portfolio configuration explored at several worker
// counts.
type diffJob struct {
	name  string
	build check.Builder
	prop  check.Property
	opts  check.Options
}

func portfolioJobs(t *testing.T) []diffJob {
	t.Helper()
	var jobs []diffJob

	mutexAlgs := []mutex.Algorithm{
		mutex.Peterson{},
		mutex.Kessels{},
		mutex.Lamport{},
		mutex.PackedLamport{},
		mutex.TASLock{},
		mutex.Tournament{L: 1},
		mutex.Tournament{L: 1, Node: mutex.NodeKessels},
		mutex.Tournament{L: 2},
	}
	for _, alg := range mutexAlgs {
		jobs = append(jobs, diffJob{
			name:  "mutex/" + alg.Name(),
			build: mutexBuilder(alg, 2, 1),
			prop:  metrics.CheckMutualExclusion,
			opts:  check.Options{MaxDepth: 120, CollapseSpins: true},
		})
	}

	dets := []contention.Detector{
		contention.Splitter{},
		contention.ChunkedSplitter{L: 1},
		contention.ChunkedSplitter{L: 2},
	}
	for _, det := range dets {
		det := det
		for _, n := range []int{2, 3} {
			n := n
			jobs = append(jobs, diffJob{
				name: "detection/" + det.Name() + "/n=" + strconv.Itoa(n),
				build: taskBuilder(det.Model(), func(mem *sim.Memory) (driver.TaskRunner, error) {
					return det.New(mem, n)
				}, n),
				prop: func(tr *sim.Trace) error { return metrics.CheckDetection(tr, false) },
				opts: check.Options{MaxDepth: 80, CollapseSpins: true, ExploreCrashes: n == 2},
			})
		}
	}

	namingAlgs := []naming.Algorithm{
		naming.TAFTree{},
		naming.TASTARTree{},
		naming.TASScan{},
		naming.TASBinSearch{},
	}
	for _, alg := range namingAlgs {
		alg := alg
		jobs = append(jobs, diffJob{
			name: "naming/" + alg.Name(),
			build: taskBuilder(alg.Model(), func(mem *sim.Memory) (driver.TaskRunner, error) {
				return alg.New(mem, 2)
			}, 2),
			prop: metrics.CheckUniqueOutputs,
			opts: check.Options{
				MaxDepth: 100, CollapseSpins: true,
				ExploreCrashes: true, ExpectTermination: true,
			},
		})
	}

	// Broken designs: the gate must also agree on found violations.
	jobs = append(jobs,
		diffJob{
			name: "broken/lost-update-lock",
			build: func() (*sim.Memory, []sim.ProcFunc, error) {
				mem := sim.NewMemory(opset.AtomicRegisters)
				lock := &brokenLock{flag: mem.Bit("flag")}
				return mem, []sim.ProcFunc{
					driver.MutexBody(lock, 1, 0),
					driver.MutexBody(lock, 1, 0),
				}, nil
			},
			prop: metrics.CheckMutualExclusion,
			opts: check.Options{MaxDepth: 60, CollapseSpins: true},
		},
		diffJob{
			name: "broken/field-split-splitter",
			build: func() (*sim.Memory, []sim.ProcFunc, error) {
				mem := sim.NewMemory(opset.AtomicRegisters)
				det := newFieldSplitSplitter(mem, 3, 1)
				procs := make([]sim.ProcFunc, 3)
				for pid := range procs {
					procs[pid] = func(p *sim.Proc) { det.Run(p) }
				}
				return mem, procs, nil
			},
			prop: detectionProp,
			opts: check.Options{MaxDepth: 60, CollapseSpins: true},
		},
		diffJob{
			name: "broken/chained-global-splitter",
			build: func() (*sim.Memory, []sim.ProcFunc, error) {
				mem := sim.NewMemory(opset.AtomicRegisters)
				det := newChainedGlobalSplitter(mem, 3, 1)
				procs := make([]sim.ProcFunc, 3)
				for pid := range procs {
					procs[pid] = func(p *sim.Proc) { det.Run(p) }
				}
				return mem, procs, nil
			},
			prop: detectionProp,
			opts: check.Options{MaxDepth: 60, CollapseSpins: true},
		},
	)
	return jobs
}

// assertSameResult compares a Workers > 1 exploration result against the
// Workers = 1 reference field by field, including the counterexample.
func assertSameResult(t *testing.T, serial, parallel check.Result, workers int) {
	t.Helper()
	if serial.States != parallel.States {
		t.Errorf("workers=%d: States %d != serial %d", workers, parallel.States, serial.States)
	}
	if serial.Runs != parallel.Runs {
		t.Errorf("workers=%d: Runs %d != serial %d", workers, parallel.Runs, serial.Runs)
	}
	if serial.Truncated != parallel.Truncated {
		t.Errorf("workers=%d: Truncated %v != serial %v", workers, parallel.Truncated, serial.Truncated)
	}
	if serial.ReducedNodes != parallel.ReducedNodes {
		t.Errorf("workers=%d: ReducedNodes %d != serial %d", workers, parallel.ReducedNodes, serial.ReducedNodes)
	}
	switch {
	case (serial.Violation == nil) != (parallel.Violation == nil):
		t.Errorf("workers=%d: violation presence %v != serial %v",
			workers, parallel.Violation != nil, serial.Violation != nil)
	case serial.Violation != nil:
		sv, pv := serial.Violation, parallel.Violation
		if len(sv.Schedule) != len(pv.Schedule) {
			t.Errorf("workers=%d: witness length %v != serial %v", workers, pv.Schedule, sv.Schedule)
			return
		}
		for i := range sv.Schedule {
			if sv.Schedule[i] != pv.Schedule[i] {
				t.Errorf("workers=%d: witness %v != serial %v", workers, pv.Schedule, sv.Schedule)
				return
			}
		}
		if sv.Err.Error() != pv.Err.Error() {
			t.Errorf("workers=%d: witness error %q != serial %q", workers, pv.Err, sv.Err)
		}
	}
}

// TestParallelMatchesSerialPortfolio pins that the reference engine
// ignores Workers: it always explores on the serial DFS.
func TestParallelMatchesSerialPortfolio(t *testing.T) {
	workerCounts := []int{2, 4}
	if testing.Short() {
		workerCounts = []int{4}
	}
	for _, j := range portfolioJobs(t) {
		j := j
		t.Run(j.name, func(t *testing.T) {
			serialOpts := j.opts
			serialOpts.Workers = 1
			serial, err := check.Explore(j.build, j.prop, serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Truncated {
				t.Fatalf("portfolio config truncated (%+v); the gate needs completed explorations", serial)
			}
			for _, w := range workerCounts {
				parOpts := j.opts
				parOpts.Workers = w
				parallel, err := check.Explore(j.build, j.prop, parOpts)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, serial, parallel, w)
			}
		})
	}
}

// TestParallelWitnessReplays verifies that the counterexample of a DPOR
// exploration with a parallel wave pass reproduces the violation under a
// scripted scheduler, exactly like the serial witness in
// TestCheckerFindsBrokenLock.
func TestParallelWitnessReplays(t *testing.T) {
	build := func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.AtomicRegisters)
		lock := &brokenLock{flag: mem.Bit("flag")}
		return mem, []sim.ProcFunc{
			driver.MutexBody(lock, 1, 0),
			driver.MutexBody(lock, 1, 0),
		}, nil
	}
	res, err := check.Explore(build, metrics.CheckMutualExclusion, check.Options{
		MaxDepth: 60, CollapseSpins: true, DPOR: true, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("parallel wave pass missed the lost-update race")
	}
	mem, procs, err := build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.Run(sim.Config{Mem: mem, Procs: procs, Sched: sim.NewScripted(res.Violation.Schedule)})
	if err != nil || run.Err != nil {
		t.Fatalf("replay: %v / %v", err, run.Err)
	}
	if err := metrics.CheckMutualExclusion(run.Trace); err == nil {
		t.Error("parallel witness schedule did not reproduce the violation")
	}
}

// TestParallelManyWorkersTinyProgram exercises the degenerate wave pass:
// more workers than wave tasks, so most goroutines are never started.
func TestParallelManyWorkersTinyProgram(t *testing.T) {
	build := func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.AtomicRegisters)
		x := mem.Register("x", 8)
		body := func(p *sim.Proc) { p.Write(x, uint64(p.ID())) }
		return mem, []sim.ProcFunc{body, body}, nil
	}
	prop := func(*sim.Trace) error { return nil }
	serial, err := check.Explore(build, prop, check.Options{MaxDepth: 20, DPOR: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := check.Explore(build, prop, check.Options{MaxDepth: 20, DPOR: true, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, serial, par, 16)
	if par.Runs != 2 || par.States != 3 {
		t.Errorf("two one-step writers: got %d runs, %d states; want 2 runs, 3 states", par.Runs, par.States)
	}
}

// TestParallelRepeatedStability reruns one mid-size DPOR exploration
// with a parallel wave pass several times: completed explorations must
// be bit-stable run to run.
func TestParallelRepeatedStability(t *testing.T) {
	alg := naming.TASScan{}
	build := taskBuilder(alg.Model(), func(mem *sim.Memory) (driver.TaskRunner, error) {
		return alg.New(mem, 3)
	}, 3)
	opts := check.Options{MaxDepth: 100, CollapseSpins: true, ExpectTermination: true, DPOR: true, Workers: 4}
	first, err := check.Explore(build, metrics.CheckUniqueOutputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Truncated || first.Violation != nil {
		t.Fatalf("unexpected baseline: %+v", first)
	}
	for i := 0; i < 3; i++ {
		again, err := check.Explore(build, metrics.CheckUniqueOutputs, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, first, again, opts.Workers)
	}
}
