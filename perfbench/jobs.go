package main

import (
	"fmt"
	"slices"

	"cfc/internal/check"
	"cfc/internal/fleet"
	"cfc/internal/metrics"
	"cfc/internal/sim"
)

// job is one checked operation of a check or fabric workload: a program
// at a process count, the exploration options, and the ground-truth
// verdict the result is judged against.
type job struct {
	name  string // registry name: a fleet workload or a benchmark program
	n     int
	build check.Builder
	prop  check.Property
	opts  check.Options
	// safe is the ground truth: true when no violation may be reported,
	// false when a violation with a replaying witness must be.
	safe bool
}

// label names the job in failure lists; names repeat across process
// counts.
func (j job) label() string { return fmt.Sprintf("%s@n=%d", j.name, j.n) }

// resolve is the benchmark's registry: its own programs first, then the
// fleet's workloads (portfolio and faulty). It is also the fabric
// registry both coordinator and workers use.
func resolve(name string, n int) (check.Builder, check.Property, bool) {
	if p, ok := programByName(name); ok {
		return func() (*sim.Memory, []sim.ProcFunc, error) { return p.build(n) }, metrics.CheckMutualExclusion, true
	}
	w, ok := fleet.ByName(name, n)
	if !ok {
		return nil, nil, false
	}
	return w.Builder(n), w.Check, true
}

// checkOptions are cfccheck's default options (depth 120, a 2^19 state
// budget, spin collapse) at one explorer worker, with the engine chosen
// by dpor: source-DPOR with symmetry, or the unreduced reference.
func checkOptions(dpor bool) check.Options {
	return check.Options{
		MaxDepth: 120, MaxStates: 1 << 19,
		CollapseSpins: true,
		POR:           dpor, PORAuto: dpor,
		DPOR: dpor, Symmetry: dpor,
		Workers: 1,
	}
}

// mutantSet names the broken programs every check workload carries, at
// the process counts each is checked at. broken/racy-mutex comes from
// the fleet's faulty workloads.
var mutantSet = []struct {
	name string
	ns   []int
}{
	{"mutant/lamport-no-x-reread", []int{2, 3}},
	{"mutant/lamport-no-y-read", []int{2, 3}},
	{"mutant/peterson-turn-first", []int{2}},
	{"broken/racy-mutex", []int{0}}, // 0: the workload's n
}

// jobs is the job list of the check and fabric workloads:
// fleet.Portfolio(n) (ground truth: safe) followed by the mutant set
// (ground truth: a violation), with the ground truth of the job
// labelled c.flip inverted.
func (c config) jobs(dpor bool) ([]job, error) {
	n := c.n
	opts := checkOptions(dpor)
	var jobs []job
	for _, w := range fleet.Portfolio(n) {
		o := opts
		if w.Kind == fleet.KindTask {
			o.ExpectTermination = w.ExpectTermination
		}
		jobs = append(jobs, job{name: w.Name, n: n, build: w.Builder(n), prop: w.Check, opts: o, safe: true})
	}
	for _, m := range mutantSet {
		for _, mn := range m.ns {
			if mn == 0 {
				mn = n
			}
			build, prop, ok := resolve(m.name, mn)
			if !ok {
				return nil, fmt.Errorf("unknown program %s", m.name)
			}
			jobs = append(jobs, job{name: m.name, n: mn, build: build, prop: prop, opts: opts})
		}
	}
	for i := range jobs {
		if jobs[i].label() == c.flip {
			jobs[i].safe = !jobs[i].safe
		}
	}
	return jobs, nil
}

// verdictError judges one exploration against the job's ground truth.
// A wrong verdict, an exploration error or a witness that does not
// replay to a violation is an error; nil means the output is correct.
func verdictError(j job, res check.Result, err error) error {
	if err != nil {
		return fmt.Errorf("explore: %v", err)
	}
	if j.safe {
		if res.Violation != nil {
			return fmt.Errorf("violation reported on a correct program: %v", res.Violation.Err)
		}
		return nil
	}
	if res.Violation == nil {
		return fmt.Errorf("violation missed (%d states, %d runs, truncated=%v)", res.States, res.Runs, res.Truncated)
	}
	ok, rerr := check.ReplaysToViolation(j.build, j.prop, j.opts, res.Violation.Schedule)
	if rerr != nil {
		return fmt.Errorf("witness replay: %v", rerr)
	}
	if !ok {
		return fmt.Errorf("witness %v does not replay to a violation", res.Violation.Schedule)
	}
	return nil
}

// diffResult reports how two explorations of one job differ: the
// verdict, the exact counts, the reduction flags or the witness and its
// message. It returns "" when they are equal.
func diffResult(a, b check.Result) string {
	switch {
	case (a.Violation == nil) != (b.Violation == nil):
		return fmt.Sprintf("verdict differs (violation %v vs %v)", a.Violation != nil, b.Violation != nil)
	case a.States != b.States || a.Runs != b.Runs || a.Truncated != b.Truncated:
		return fmt.Sprintf("counts differ (%d states/%d runs/truncated=%v vs %d/%d/%v)",
			a.States, a.Runs, a.Truncated, b.States, b.Runs, b.Truncated)
	case a.ReducedNodes != b.ReducedNodes || a.PORDisabled != b.PORDisabled || a.SymmetryApplied != b.SymmetryApplied:
		return fmt.Sprintf("reduction differs (reduced=%d/%d porDisabled=%v/%v sym=%v/%v)",
			a.ReducedNodes, b.ReducedNodes, a.PORDisabled, b.PORDisabled, a.SymmetryApplied, b.SymmetryApplied)
	case a.Violation == nil:
		return ""
	case !slices.Equal(a.Violation.Schedule, b.Violation.Schedule):
		return fmt.Sprintf("witness differs (%v vs %v)", a.Violation.Schedule, b.Violation.Schedule)
	case a.Violation.Err.Error() != b.Violation.Err.Error():
		return fmt.Sprintf("violation message differs (%q vs %q)", a.Violation.Err, b.Violation.Err)
	}
	return ""
}
