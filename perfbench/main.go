// Command perfbench is the repository's benchmark: one command that runs
// a workload closed-loop for a fixed window, checks every output against
// ground truth, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"wall_s": {"value": 1.9, "unit": "s"}, ...}}
//
// Run it through run.sh from the repository root, which builds it from
// the checkout:
//
//	bash perfbench/run.sh --workload check-dpor-n3 --seed 1 --seconds 20 --trace 0
//
// # Operations and verdicts
//
// An operation is one checked job or one fleet run. Passes repeat the
// same operations, so each is counted once per run, and fails if any
// pass failed it: attempted and failed are exact counts that do not
// depend on the window or the host's speed. A wrong verdict, a
// witness that does not replay, an exploration error, a fleet run that
// ends in anything but "ok", and a mismatch between two paths that must
// agree each count as a failed operation, listed by name on standard
// error; none aborts the run. Correct programs must report no violation;
// the mutants (mutants.go) and broken/racy-mutex must be refuted with a
// witness that check.ReplaysToViolation confirms. "correct" in the
// result is false only when the benchmark could not check an output: a
// control (the unmutated Lamport copy) that does not reproduce
// mutex/lamport-fast would make the mutants' verdicts meaningless. An
// error that stops a run (a set-up or transport failure) exits non-zero
// without a result.
//
// # Workloads
//
// All load comes from this one process, at most two busy goroutines.
//
//   - check-dpor-n3: cfccheck -n 3's job list, fleet.Portfolio(3), plus
//     the mutant set, under the default engine, source-DPOR with
//     symmetry, one explorer worker. Race analysis dominates; it is the
//     path a sounder DPOR engine or faster race analysis changes.
//     Exhaustive, so it takes no seed.
//   - check-ref-n3: the same jobs under the unreduced reference engine
//     (no DPOR, no POR), serial. No race analysis at all: the bypass
//     workload for reduction changes, bound by replay, hashing and the
//     visited set.
//   - fleet-n16: one fleet.Run sweep of the default scenarios over the
//     portfolio at n=16, 2 workers, seeded by --seed, writing a lode
//     dataset, followed by the cfcfleet -grep read side (Count per
//     workload, the verdict and violation queries). No check code runs.
//   - fabric-waves-n3: the check-dpor-n3 job list through
//     fabric.Coordinate with Shards 2 and two in-process fabric.Work
//     workers over loopback TCP. The only workload with wire encoding,
//     transport and the coordinator's serial commit on the critical path.
//
// # Metrics
//
// End to end (--trace 0), every workload: wall_s, the median pass
// (one whole job list, sweep plus reads, or Coordinate call; a first
// pass short enough to leave room for three more is a warm-up, not a
// sample); work_per_s, explored states per second of exploration
// (check, fabric) or simulated events per second of sweep (fleet);
// setup_s, the median of repeated set-ups (program builds; on
// fabric-waves-n3 also a fabric.Coordinate call that two fabric.Work
// workers join, on one trivial job; fleet-n16 creates its dataset inside
// every pass, not in set-up); max_rss_mb, the peak resident set. The
// failed share is failed/attempted in the result object.
//
// Per layer (--trace 1) come from a separate run that wraps the calls
// into each layer from here; trace.overhead_s is its median pass minus
// the untraced median pass. Layers a workload does not drive report 0.
// A pass of check-ref-n3 takes more than half the window, so its traced
// run is one untraced and one traced pass, about twice --seconds, and
// its trace.overhead_s is the difference of two single passes: within
// the pass-to-pass noise, not a resolved overhead.
// Which per-layer metric should move which end-to-end metric:
//
//   - check.expand_s (wave-prober self time), check.replayed_per_state:
//     work_per_s on check-dpor-n3, nothing on fleet-n16.
//   - check.commit_s (serial commit): also wall_s on fabric-waves-n3.
//   - check.explore_self_s, check.us_per_state: work_per_s on
//     check-ref-n3.
//   - check.build_s: setup_s. metrics.property_s: at most a few percent
//     of wall_s on check-ref-n3, so a property speed-up cannot pose as an
//     engine win.
//   - sim.session_step_ns: work_per_s on check-ref-n3 and the
//     fleet.<scenario>.s times on fleet-n16.
//   - fleet.<scenario>.s: work_per_s on fleet-n16.
//   - lode.append_ns_per_record: work_per_s on fleet-n16;
//     lode.scan_ns_per_record: wall_s on fleet-n16; neither moves a check
//     workload.
//   - fabric.* (bytes, writes, write time): wall_s on fabric-waves-n3
//     only; check-dpor-n3 must not move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"cfc/internal/fleet"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"work_per_s", "1/s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, on every workload.
func perLayer() []metricDef {
	defs := []metricDef{
		{"check.expand_s", "s"},
		{"check.commit_s", "s"},
		{"check.waves", "count"},
		{"check.wave_tasks", "count"},
		{"check.tasks_per_state", "ratio"},
		{"check.events_replayed", "count"},
		{"check.events_saved", "count"},
		{"check.replayed_per_state", "ratio"},
		{"check.explore_self_s", "s"},
		{"check.us_per_state", "us"},
		{"check.states", "count"},
		{"check.runs", "count"},
		{"check.truncated_jobs", "count"},
		{"check.build_s", "s"},
		{"check.builder_calls", "count"},
		{"metrics.property_s", "s"},
		{"metrics.property_calls", "count"},
		{"sim.session_step_ns", "ns"},
	}
	for _, s := range fleet.DefaultScenarios() {
		defs = append(defs, metricDef{"fleet." + s + ".s", "s"})
	}
	defs = append(defs,
		metricDef{"fleet.events", "count"},
		metricDef{"fleet.violations", "count"},
		metricDef{"fleet.degraded", "count"},
		metricDef{"lode.append_ns_per_record", "ns"},
		metricDef{"lode.scan_ns_per_record", "ns"},
		metricDef{"lode.bytes_per_record", "B"},
		metricDef{"fabric.bytes_out", "B"},
		metricDef{"fabric.bytes_in", "B"},
		metricDef{"fabric.bytes_per_task", "B"},
		metricDef{"fabric.writes", "count"},
		metricDef{"fabric.write_s", "s"},
		metricDef{"fabric.wave_tasks", "count"},
		metricDef{"fabric.events_replayed", "count"},
		metricDef{"fabric.events_saved", "count"},
		metricDef{"trace.overhead_s", "s"},
	)
	return defs
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	workdir  string // scratch space for datasets

	n            int           // process count of the check and fabric workloads
	fleetN       int           // process count of the fleet sweep
	fleetRuns    int           // fleet runs per (scenario, workload) cell
	setupSamples int           // set-ups per run at least; setup_s is their median
	setupBudget  time.Duration // time spent setting up repeatedly
	stepSessions int           // random-schedule sessions per program for sim.session_step_ns

	// flip inverts the ground truth of the job with this label, so tests
	// can prove a wrong verdict is counted as a failed operation.
	flip string
}

// fullSize and smallSize are the workload sizes of the benchmark and of
// its own tests.
func (c *config) fullSize() {
	c.n, c.fleetN, c.fleetRuns, c.setupSamples, c.stepSessions = 3, 16, 200, 31, 256
	c.setupBudget = 600 * time.Millisecond
}

func (c *config) smallSize() {
	c.n, c.fleetN, c.fleetRuns, c.setupSamples, c.stepSessions = 2, 4, 2, 3, 4
}

// outcome is what a workload run reports.
type outcome struct {
	// ops holds each distinct operation and whether it failed in any
	// pass. Passes repeat the same operations, so attempted and failed
	// do not depend on how many passes fit the window.
	ops map[string]bool
	// batches holds operations recorded in bulk (a fleet sweep's runs)
	// as [attempted, failed], the largest of any pass.
	batches map[string][2]int
	// failures counts each distinct "operation: reason", so repeated
	// passes list a failing job once.
	failures map[string]int
	// broken marks an output the benchmark could not check.
	broken  []string
	metrics map[string]float64
	// exact holds the untraced passes' exact counts under the names of
	// the per-layer metrics a traced run reports for them.
	exact map[string]float64
}

func newOutcome() *outcome {
	return &outcome{ops: map[string]bool{}, batches: map[string][2]int{}, failures: map[string]int{},
		metrics: map[string]float64{}, exact: map[string]float64{}}
}

// op records one operation, failed when err is non-nil. An operation
// a later pass repeats is counted once and fails if any pass failed it.
func (o *outcome) op(name string, err error) {
	o.ops[name] = o.ops[name] || err != nil
	if err != nil {
		o.failures[name+": "+err.Error()]++
	}
}

// batch records n operations of one kind of which bad failed; a later
// pass repeating them is counted once, with its largest counts.
func (o *outcome) batch(name string, n, bad int) {
	b := o.batches[name]
	o.batches[name] = [2]int{max(b[0], n), max(b[1], bad)}
}

// attempted is the number of distinct operations.
func (o *outcome) attempted() int {
	n := len(o.ops)
	for _, b := range o.batches {
		n += b[0]
	}
	return n
}

// failed is the number of distinct operations that failed.
func (o *outcome) failed() int {
	n := 0
	for _, bad := range o.ops {
		if bad {
			n++
		}
	}
	for _, b := range o.batches {
		n += b[1]
	}
	return n
}

var workloads = map[string]func(cfg config, o *outcome) error{
	"check-dpor-n3":   func(cfg config, o *outcome) error { return runCheck(cfg, o, true) },
	"check-ref-n3":    func(cfg config, o *outcome) error { return runCheck(cfg, o, false) },
	"fleet-n16":       runFleet,
	"fabric-waves-n3": runFabric,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var seconds int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: check-dpor-n3, check-ref-n3, fleet-n16, fabric-waves-n3")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (fleet schedules and the sim step sample)")
	flag.IntVar(&seconds, "seconds", 25, "measuring window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", "", "scratch directory for datasets (default: a fresh temporary directory)")
	flag.Parse()
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.fullSize()
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := report(cfg, res, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// execute runs one workload in a private scratch directory.
func execute(cfg config) (*outcome, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	base := cfg.workdir
	if base != "" {
		if err := os.MkdirAll(base, 0o755); err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp(base, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workdir = dir
	o := newOutcome()
	if err := wl(cfg, o); err != nil {
		return nil, err
	}
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		o.metrics["max_rss_mb"] = rss
	}
	return o, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable summary to w and returns the result
// line.
func report(cfg config, o *outcome, w io.Writer) ([]byte, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
	}
	out := map[string]metricValue{}
	for _, d := range defs {
		out[d.name] = metricValue{Value: o.metrics[d.name], Unit: d.unit}
		fmt.Fprintf(w, "%-28s %16.6g %s\n", d.name, o.metrics[d.name], d.unit)
	}
	if !cfg.trace {
		for _, d := range perLayer() {
			if v, ok := o.exact[d.name]; ok {
				fmt.Fprintf(w, "%-28s %16.0f %s (exact)\n", d.name, v, d.unit)
			}
		}
	}
	keys := make([]string, 0, len(o.failures))
	for k := range o.failures {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "FAILED (x%d) %s\n", o.failures[k], k)
	}
	for _, b := range o.broken {
		fmt.Fprintf(w, "UNCHECKED %s\n", b)
	}
	attempted, failed := o.attempted(), o.failed()
	fmt.Fprintf(w, "%s: attempted=%d failed=%d failed_share=%.4f\n", cfg.workload, attempted, failed, float64(failed)/float64(max(attempted, 1)))
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(o.broken) == 0, attempted, failed, out})
}
