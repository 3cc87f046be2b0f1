package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"cfc/internal/check"
	"cfc/internal/fleet"
	"cfc/internal/lode"
)

// sweep is one fleet pass: the sweep into a fresh dataset, then the
// read side.
type sweep struct {
	rep      *fleet.Report
	sweepS   float64
	read     reads
	failures []error // answers that disagree with the sweep's report
}

// runFleet is the fleet-n16 workload.
func runFleet(cfg config, o *outcome) error {
	k := 0
	newDir := func() string {
		k++
		return filepath.Join(cfg.workdir, fmt.Sprintf("ds%d", k))
	}
	// Set-up is building the sweep's programs. Creating the dataset is
	// left to the passes, which each create one: its handful of
	// directory and rename operations take 0.2 to 2.5 ms, drifting with
	// the filesystem's journal from one run to the next, several times
	// the builds' 0.13 ms, so they would swamp any change to set-up.
	portfolio := fleet.Portfolio(cfg.fleetN)
	setup, err := sampleSetup(cfg.setupSamples, cfg.setupBudget, func() error {
		for _, wl := range portfolio {
			if _, _, err := wl.Build(cfg.fleetN); err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.metrics["setup_s"] = setup

	opts := fleet.Options{Seed: cfg.seed, N: cfg.fleetN, Runs: cfg.fleetRuns, Workers: 2}
	var events int64
	var names []string
	// Every pass writes a dataset of its own, kept until the run's
	// scratch directory is removed: a user's sweep does not delete its
	// dataset, and deleting megabytes inside a timed pass would time the
	// filesystem's journal.
	plain := func() (float64, error) {
		s, err := fleetPass(opts, newDir())
		if err != nil {
			return 0, err
		}
		if events != 0 && s.rep.TotalEvents() != events {
			s.failures = append(s.failures, fmt.Errorf("sweep simulated %d events, the first pass %d", s.rep.TotalEvents(), events))
		}
		events = s.rep.TotalEvents()
		o.exact["fleet.events"] = float64(events)
		names = workloadNames(s.rep)
		s.judge(o)
		return s.sweepS, nil
	}

	// Traced pass: one fleet.Run per scenario into one dataset, whose
	// events must sum to the one-shot sweep's, then the read side.
	var dir string
	tracedPass := func() error {
		dir = newDir()
		w, err := lode.Create(dir)
		if err != nil {
			return err
		}
		var perScenario, violations, degraded int64
		for _, sc := range fleet.DefaultScenarios() {
			so := opts
			so.Scenarios = []string{sc}
			so.Dataset = w
			t := time.Now()
			rep, err := fleet.Run(so)
			o.metrics["fleet."+sc+".s"] = time.Since(t).Seconds()
			if err != nil {
				w.Close()
				return err
			}
			perScenario += rep.TotalEvents()
			violations += rep.Violations()
			if rep.Degraded() {
				degraded++
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		var serr error
		if perScenario != events {
			serr = fmt.Errorf("simulated %d events, the one-shot sweep %d", perScenario, events)
		}
		o.op("fleet per-scenario sweeps", serr)
		o.metrics["fleet.events"] = float64(perScenario)
		o.metrics["fleet.violations"] = float64(violations)
		o.metrics["fleet.degraded"] = float64(degraded)
		t := time.Now()
		rd, err := readSide(dir, names)
		if err != nil {
			return err
		}
		o.metrics["lode.scan_ns_per_record"] = time.Since(t).Seconds() * 1e9 / float64(rd.scanned)
		return nil
	}

	if !cfg.trace {
		walls, sweepS, err := closedLoop(cfg.window, plain)
		if err != nil {
			return err
		}
		o.metrics["wall_s"] = median(walls)
		o.metrics["work_per_s"] = float64(events) / median(sweepS)
		return nil
	}
	overhead, err := overheadLoop(cfg.window, plain, tracedPass)
	if err != nil {
		return err
	}
	o.metrics["trace.overhead_s"] = overhead

	// Re-append the last traced dataset's records into a fresh dataset,
	// timed per record.
	d, err := lode.Open(dir)
	if err != nil {
		return err
	}
	var recs []lode.Record
	if err := d.Scan(func(r *lode.Record) bool { recs = append(recs, *r); return true }); err != nil {
		return err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	o.metrics["lode.bytes_per_record"] = float64(size) / float64(len(recs))
	t := time.Now()
	w, err := lode.Create(newDir())
	if err != nil {
		return err
	}
	for i := range recs {
		if err := w.Append(&recs[i]); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	o.metrics["lode.append_ns_per_record"] = time.Since(t).Seconds() * 1e9 / float64(len(recs))

	progs := make([]check.Builder, len(portfolio))
	for i, wl := range portfolio {
		progs[i] = wl.Builder(cfg.fleetN)
	}
	// Sessions are capped at the fleet's default run budget.
	ns, err := sessionStepNs(progs, cfg.seed, cfg.stepSessions/16+1, 64*cfg.fleetN+2048)
	if err != nil {
		return err
	}
	o.metrics["sim.session_step_ns"] = ns
	return nil
}

// fleetPass runs one sweep into dir and reads it back.
func fleetPass(opts fleet.Options, dir string) (*sweep, error) {
	w, err := lode.Create(dir)
	if err != nil {
		return nil, err
	}
	opts.Dataset = w
	s := &sweep{}
	t0 := time.Now()
	s.rep, err = fleet.Run(opts)
	if err != nil {
		w.Close()
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	s.sweepS = time.Since(t0).Seconds()
	s.read, err = readSide(dir, workloadNames(s.rep))
	return s, err
}

// workloadNames lists the workloads a sweep ran, in cell order.
func workloadNames(rep *fleet.Report) []string {
	var names []string
	for _, c := range rep.Cells {
		if !slices.Contains(names, c.Workload) {
			names = append(names, c.Workload)
		}
	}
	return names
}

// reads is what the read side found in a dataset.
type reads struct {
	total   int64
	perName []int64       // records matching each workload query
	ok      int64         // records with verdict "ok"
	bad     []lode.Record // records carrying a violation schedule
	scanned int64         // records the scans streamed
}

// readSide runs the queries cfcfleet -grep users run on a dataset: the
// record count of every workload, the ok records and the violation
// records.
func readSide(dir string, names []string) (reads, error) {
	var r reads
	d, err := lode.Open(dir)
	if err != nil {
		return r, err
	}
	r.total = d.Index.Total
	for _, name := range names {
		c, err := d.Count(lode.Query{Workload: name})
		if err != nil {
			return r, err
		}
		r.perName = append(r.perName, c)
	}
	if r.ok, err = d.Count(lode.Query{Verdict: "ok"}); err != nil {
		return r, err
	}
	if err := d.ScanQuery(lode.Query{Violations: true}, func(rec *lode.Record) bool {
		r.bad = append(r.bad, *rec)
		return true
	}); err != nil {
		return r, err
	}
	r.scanned = int64(len(names)+2) * r.total
	return r, nil
}

// judge counts the sweep's runs as operations: a run fails unless its
// record's verdict is "ok" (the portfolio is correct, so a violation, an
// access error or a panic is a wrong output). Every pass repeats the
// same seeded sweep, so the runs are counted once per benchmark run. The
// read side is one more operation, failed when any of its answers
// disagrees with the sweep's report.
func (s *sweep) judge(o *outcome) {
	total := s.rep.TotalRuns()
	o.batch("fleet runs", int(total), int(total-s.read.ok))
	for _, r := range s.read.bad {
		o.failures[fmt.Sprintf("fleet %s/%s run %d: %s %s", r.Scenario, r.Workload, r.Run, r.Verdict, r.Err)]++
	}
	if other := total - s.read.ok - int64(len(s.read.bad)); other > 0 {
		o.failures[fmt.Sprintf("fleet: %d runs ended neither ok nor in a violation", other)]++
	}
	if s.read.total != total {
		s.failures = append(s.failures, fmt.Errorf("dataset holds %d records, the sweep ran %d", s.read.total, total))
	}
	for i, name := range workloadNames(s.rep) {
		var want int64
		for _, c := range s.rep.Cells {
			if strings.HasPrefix(c.Workload, name) {
				want += c.Runs
			}
		}
		if got := s.read.perName[i]; got != want {
			s.failures = append(s.failures, fmt.Errorf("workload=%s matched %d records, the sweep ran %d", name, got, want))
		}
	}
	o.op("fleet read side", errors.Join(s.failures...))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
