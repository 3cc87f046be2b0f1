package check_test

// Partial-order-reduction gates on the configurations the TestDPOR*
// gates leave out. The reduction is source-DPOR with sleep sets; these
// tests pin it with symmetry switched on, on the parallel wave pass, and
// against the reference engine's own witnesses:
//
//   - micro-programs with known state counts (disjoint registers collapse
//     to one order, conflicting writers reduce nothing) at every worker
//     count and with symmetry;
//   - the seeded violation found, and its witness replayed, by both
//     engines at every worker count;
//   - the portfolio differential between the reference and the parallel
//     wave pass, with both engines' witnesses replaying, and serial/
//     parallel equality of DPOR without symmetry;
//   - the spin-collapse cycle handling under DPOR with symmetry, against
//     the reference.

import (
	"testing"

	"cfc/internal/check"
	"cfc/internal/driver"
	"cfc/internal/metrics"
	"cfc/internal/mutex"
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// TestPORDisjointRegistersCollapseToOneOrder: on the fully independent
// two-process program the reduction explores exactly one maximal run
// along a chain of 2k states whatever the worker count and with symmetry
// on, where the reference walks the full (k+1)x(k+1) grid.
func TestPORDisjointRegistersCollapseToOneOrder(t *testing.T) {
	const k = 3
	ref, err := check.Explore(disjointBuilder(k), trivialProp, check.Options{MaxDepth: 40})
	if err != nil {
		t.Fatal(err)
	}
	if ref.States != (k+1)*(k+1)-1 {
		t.Fatalf("reference exploration: %d states, want %d", ref.States, (k+1)*(k+1)-1)
	}
	for _, sym := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4} {
			opts := check.Options{MaxDepth: 40, DPOR: true, Symmetry: sym, Workers: workers}
			res, err := check.Explore(disjointBuilder(k), trivialProp, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Runs != 1 {
				t.Errorf("sym=%v workers=%d: runs = %d, want 1 (a single order)", sym, workers, res.Runs)
			}
			if want := 2 * k; res.States != want {
				t.Errorf("sym=%v workers=%d: states = %d, want %d (one chain)", sym, workers, res.States, want)
			}
			if res.Violation != nil {
				t.Errorf("sym=%v workers=%d: unexpected violation: %v", sym, workers, res.Violation)
			}
			if res.ReducedNodes == 0 {
				t.Errorf("sym=%v workers=%d: no reduced nodes on a fully independent program", sym, workers)
			}
		}
	}
}

// TestPORConflictingWritersNoReduction: two writers of different values
// to one shared register never commute, so the reduction must explore
// exactly the reference's states at every worker count.
func TestPORConflictingWritersNoReduction(t *testing.T) {
	build := func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.AtomicRegisters)
		x := mem.Register("x", 8)
		body := func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				p.Write(x, uint64(p.ID()+1))
			}
		}
		return mem, []sim.ProcFunc{body, body}, nil
	}
	ref, err := check.Explore(build, trivialProp, check.Options{MaxDepth: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		res, err := check.Explore(build, trivialProp, check.Options{MaxDepth: 40, DPOR: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.States != ref.States {
			t.Errorf("workers=%d: DPOR %d states != reference %d states", workers, res.States, ref.States)
		}
	}
}

// TestPORSeededViolationWitnessReplays: the lost-update lock's mutual
// exclusion violation must be found by the reference and by DPOR with
// symmetry, serial and parallel, and every witness must replay to a real
// violation on a fresh program instance.
func TestPORSeededViolationWitnessReplays(t *testing.T) {
	build := func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.AtomicRegisters)
		lock := &brokenLock{flag: mem.Bit("flag")}
		return mem, []sim.ProcFunc{
			driver.MutexBody(lock, 1, 0),
			driver.MutexBody(lock, 1, 0),
		}, nil
	}
	for _, dpor := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			res, err := check.Explore(build, metrics.CheckMutualExclusion, check.Options{
				MaxDepth: 60, CollapseSpins: true, DPOR: dpor, Symmetry: dpor, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatalf("dpor=%v workers=%d: exploration missed the lost-update race", dpor, workers)
			}
			if !witnessReplays(t, build, metrics.CheckMutualExclusion, check.Options{}, res.Violation.Schedule) {
				t.Errorf("dpor=%v workers=%d: witness %v did not replay to a violation",
					dpor, workers, res.Violation.Schedule)
			}
		}
	}
}

// TestPORAgreesWithReferencePortfolio diffs the parallel wave pass
// against the reference across the full portfolio — correct algorithms
// and the seeded-broken designs, crash injection included: the verdicts
// must agree, where both find a violation both witnesses must replay,
// and a completed reduced exploration must not visit more states than
// the reference.
func TestPORAgreesWithReferencePortfolio(t *testing.T) {
	for _, j := range portfolioJobs(t) {
		j := j
		t.Run(j.name, func(t *testing.T) {
			refOpts := j.opts
			refOpts.Workers = 1
			ref, err := check.Explore(j.build, j.prop, refOpts)
			if err != nil {
				t.Fatal(err)
			}
			opts := dporPortfolioOpts(j.opts, false)
			opts.Workers = 2
			res, err := check.Explore(j.build, j.prop, opts)
			if err != nil {
				t.Fatal(err)
			}
			if (ref.Violation == nil) != (res.Violation == nil) {
				t.Fatalf("verdicts disagree: reference violation %v, DPOR violation %v",
					ref.Violation, res.Violation)
			}
			if ref.Violation != nil {
				if !witnessReplays(t, j.build, j.prop, j.opts, ref.Violation.Schedule) {
					t.Errorf("reference witness %v does not replay", ref.Violation.Schedule)
				}
				if !witnessReplays(t, j.build, j.prop, j.opts, res.Violation.Schedule) {
					t.Errorf("DPOR witness %v does not replay", res.Violation.Schedule)
				}
			} else if res.States > ref.States {
				t.Errorf("DPOR visited more states than the reference: %d vs %d", res.States, ref.States)
			}
			t.Logf("states: reference %d, DPOR workers=2 %d, reduced nodes %d",
				ref.States, res.States, res.ReducedNodes)
		})
	}
}

// TestPORParallelMatchesSerialPortfolio: completed DPOR explorations
// without symmetry must be bit-identical between one worker and any
// worker count (TestDPORParallelMatchesSerialPortfolio pins the same
// with symmetry on).
func TestPORParallelMatchesSerialPortfolio(t *testing.T) {
	workerCounts := []int{2, 4}
	if testing.Short() {
		workerCounts = []int{4}
	}
	for _, j := range portfolioJobs(t) {
		j := j
		t.Run(j.name, func(t *testing.T) {
			serialOpts := dporPortfolioOpts(j.opts, false)
			serialOpts.Workers = 1
			serial, err := check.Explore(j.build, j.prop, serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Truncated {
				t.Fatalf("portfolio config truncated under DPOR (%+v)", serial)
			}
			for _, w := range workerCounts {
				parOpts := serialOpts
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

// TestPORSpinningProcessDoesNotStarveOthers: a TAS lock with one holder
// and one spinner reaches states where the spinner's re-issued
// test-and-set folds back to the same state under spin collapse. The
// reduction with symmetry must not let the spin close the subtree before
// the holder's exit is explored: like the reference, it must prove mutual
// exclusion over the full protocol with complete runs.
func TestPORSpinningProcessDoesNotStarveOthers(t *testing.T) {
	build := mutexBuilder(mutex.TASLock{}, 2, 1)
	ref, err := check.Explore(build, metrics.CheckMutualExclusion,
		check.Options{MaxDepth: 120, CollapseSpins: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := check.Explore(build, metrics.CheckMutualExclusion,
		check.Options{MaxDepth: 120, CollapseSpins: true, DPOR: true, Symmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil || ref.Violation != nil {
		t.Fatalf("TAS lock misreported: %v / %v", res.Violation, ref.Violation)
	}
	if res.Truncated != ref.Truncated {
		t.Errorf("truncation disagreement: DPOR %v, reference %v", res.Truncated, ref.Truncated)
	}
	if ref.Runs == 0 || res.Runs == 0 {
		t.Errorf("complete runs: reference %d, DPOR %d; want both > 0", ref.Runs, res.Runs)
	}
}
