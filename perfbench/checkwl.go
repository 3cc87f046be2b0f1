package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"cfc/internal/check"
	"cfc/internal/sim"
)

// exploreResult is one job's exploration in a pass.
type exploreResult struct {
	res check.Result
	err error
}

// runCheck is the check-dpor-n3 / check-ref-n3 workload.
func runCheck(cfg config, o *outcome, dpor bool) error {
	jobs, err := cfg.jobs(dpor)
	if err != nil {
		return err
	}
	setup, err := sampleSetup(cfg.setupSamples, cfg.setupBudget, func() error {
		js, err := cfg.jobs(dpor)
		if err != nil {
			return err
		}
		for _, j := range js {
			if _, _, err := j.build(); err != nil {
				return fmt.Errorf("%s: %w", j.label(), err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.metrics["setup_s"] = setup

	// Untraced passes: every job explored and judged. Later passes must
	// reproduce the first exactly.
	var first []exploreResult
	var states int
	plain := func() (float64, error) {
		rs, secs := explorePass(jobs)
		states = 0
		o.exact["check.runs"], o.exact["check.truncated_jobs"] = 0, 0
		for i, j := range jobs {
			err := verdictError(j, rs[i].res, rs[i].err)
			if err == nil && first != nil {
				if d := diffResult(first[i].res, rs[i].res); d != "" {
					err = errors.New("differs from the first pass: " + d)
				}
			}
			o.op(j.label(), err)
			states += rs[i].res.States
			o.exact["check.runs"] += float64(rs[i].res.Runs)
			if rs[i].res.Truncated {
				o.exact["check.truncated_jobs"]++
			}
		}
		o.exact["check.states"] = float64(states)
		if first == nil {
			first = rs
		}
		return secs, nil
	}

	// Traced passes: the same calls with the builders and properties
	// wrapped; the results must equal the untraced pass.
	var build, prop counter
	var self time.Duration
	var traced []exploreResult
	tracedPass := func() error {
		build, prop, self = counter{}, counter{}, 0
		traced = make([]exploreResult, len(jobs))
		for i, j := range jobs {
			b0, p0 := build.ns.Load(), prop.ns.Load()
			t := time.Now()
			res, err := check.Explore(wrapBuilder(j.build, &build), wrapProperty(j.prop, &prop), j.opts)
			d := time.Since(t)
			self += d - time.Duration(build.ns.Load()-b0+prop.ns.Load()-p0)
			traced[i] = exploreResult{res, err}
		}
		return nil
	}

	if !cfg.trace {
		walls, exploreS, err := closedLoop(cfg.window, plain)
		if err != nil {
			return err
		}
		o.metrics["wall_s"] = median(walls)
		o.metrics["work_per_s"] = float64(states) / median(exploreS)
		return checkControls(cfg, o, jobs, first)
	}
	overhead, err := overheadLoop(cfg.window, plain, tracedPass)
	if err != nil {
		return err
	}
	if err := checkControls(cfg, o, jobs, first); err != nil {
		return err
	}
	var tstates, runs, truncated int
	for i, j := range jobs {
		var err error
		if d := diffResult(first[i].res, traced[i].res); d != "" || traced[i].err != nil {
			err = fmt.Errorf("traced exploration differs from untraced: %s %v", d, traced[i].err)
		}
		o.op(j.label()+" (traced)", err)
		tstates += traced[i].res.States
		runs += traced[i].res.Runs
		if traced[i].res.Truncated {
			truncated++
		}
	}
	o.metrics["trace.overhead_s"] = overhead
	o.metrics["check.explore_self_s"] = self.Seconds()
	o.metrics["check.states"] = float64(tstates)
	o.metrics["check.runs"] = float64(runs)
	o.metrics["check.truncated_jobs"] = float64(truncated)
	o.metrics["check.us_per_state"] = self.Seconds() / float64(tstates) * 1e6
	o.metrics["check.build_s"] = build.seconds()
	o.metrics["check.builder_calls"] = float64(build.calls.Load())
	o.metrics["metrics.property_s"] = prop.seconds()
	o.metrics["metrics.property_calls"] = float64(prop.calls.Load())
	if dpor {
		if err := waveSeam(o, jobs, first); err != nil {
			return err
		}
	}
	progs := make([]check.Builder, len(jobs))
	for i, j := range jobs {
		progs[i] = j.build
	}
	ns, err := sessionStepNs(progs, cfg.seed, cfg.stepSessions, jobs[0].opts.MaxDepth)
	if err != nil {
		return err
	}
	o.metrics["sim.session_step_ns"] = ns
	return nil
}

// explorePass explores every job once and returns the results and the
// seconds spent inside check.Explore.
func explorePass(jobs []job) ([]exploreResult, float64) {
	rs := make([]exploreResult, len(jobs))
	var d time.Duration
	for i, j := range jobs {
		t0 := time.Now()
		res, err := check.Explore(j.build, j.prop, j.opts)
		d += time.Since(t0)
		rs[i] = exploreResult{res, err}
	}
	return rs, d.Seconds()
}

// checkControls proves the mutant scaffolding faithful: the benchmark's
// unmutated Lamport copy must reproduce mutex/lamport-fast's exact
// result under the workload's engine at n=2 and at the workload's n.
func checkControls(cfg config, o *outcome, jobs []job, first []exploreResult) error {
	ns := []int{2}
	if cfg.n != 2 {
		ns = append(ns, cfg.n)
	}
	for _, n := range ns {
		want, found := check.Result{}, false
		for i, j := range jobs {
			if j.name == "mutex/lamport-fast" && j.n == n {
				want, found = first[i].res, first[i].err == nil
			}
		}
		opts := jobs[0].opts
		if !found {
			build, prop, _ := resolve("mutex/lamport-fast", n)
			res, err := check.Explore(build, prop, opts)
			if err != nil {
				return fmt.Errorf("control reference: %w", err)
			}
			want = res
		}
		build, prop, _ := resolve("control/lamport-fast", n)
		got, err := check.Explore(build, prop, opts)
		label := fmt.Sprintf("control/lamport-fast@n=%d", n)
		if err == nil && got.Violation != nil {
			err = fmt.Errorf("violation on the unmutated copy: %v", got.Violation.Err)
		}
		if err == nil {
			if d := diffResult(want, got); d != "" {
				err = fmt.Errorf("does not reproduce mutex/lamport-fast: %s", d)
			}
		}
		if err != nil {
			o.broken = append(o.broken, label+": "+err.Error())
		}
		o.op(label, err)
	}
	return nil
}

// waveSeam re-runs every DPOR job through the public wave seam — a
// check.WaveMaster committing the waves a check.WaveProber expands — and
// requires each result to equal check.Explore's exactly.
func waveSeam(o *outcome, jobs []job, want []exploreResult) error {
	var expand, commit time.Duration
	var prop counter
	var waves, tasks, states int
	var stats check.ProbeStats
	for i, j := range jobs {
		if want[i].err != nil {
			continue
		}
		wp := wrapProperty(j.prop, &prop)
		m, err := check.NewWaveMaster(j.build, wp, j.opts)
		if err != nil {
			return fmt.Errorf("%s: %w", j.label(), err)
		}
		p, err := check.NewWaveProber(j.build, wp, j.opts)
		if err != nil {
			return fmt.Errorf("%s: %w", j.label(), err)
		}
		var perr error
		for !m.Done() && perr == nil {
			wave := m.Wave()
			reps := make([]check.WaveReport, len(wave))
			p0 := prop.ns.Load()
			t0 := time.Now()
			for k, nd := range wave {
				if reps[k], perr = p.ProbeWave(nd); perr != nil {
					break
				}
			}
			expand += time.Since(t0) - time.Duration(prop.ns.Load()-p0)
			if perr != nil {
				break
			}
			t1 := time.Now()
			perr = m.Commit(reps)
			commit += time.Since(t1)
			waves++
			tasks += len(wave)
		}
		st := p.Stats()
		p.Close()
		stats.Replayed += st.Replayed
		stats.Saved += st.Saved
		res := m.Result()
		states += res.States
		if perr == nil {
			if d := diffResult(want[i].res, res); d != "" {
				perr = errors.New(d)
			}
		}
		if perr != nil {
			perr = fmt.Errorf("wave seam differs from check.Explore: %v", perr)
		}
		o.op(j.label()+" (wave seam)", perr)
	}
	o.metrics["check.expand_s"] = expand.Seconds()
	o.metrics["check.commit_s"] = commit.Seconds()
	o.metrics["check.waves"] = float64(waves)
	o.metrics["check.wave_tasks"] = float64(tasks)
	o.metrics["check.tasks_per_state"] = float64(tasks) / float64(states)
	o.metrics["check.events_replayed"] = float64(stats.Replayed)
	o.metrics["check.events_saved"] = float64(stats.Saved)
	o.metrics["check.replayed_per_state"] = float64(stats.Replayed) / float64(states)
	return nil
}

// sessionStepNs times sim.Session.Step on each program under seeded
// random schedules of at most maxSteps decisions and returns the mean
// nanoseconds per step.
func sessionStepNs(progs []check.Builder, seed int64, sessions, maxSteps int) (float64, error) {
	var d time.Duration
	var steps int
	for pi, build := range progs {
		rng := rand.New(rand.NewPCG(uint64(seed), uint64(pi)))
		arena := sim.NewArena()
		mem, procs, err := build()
		if err != nil {
			return 0, err
		}
		for k := 0; k < sessions; k++ {
			s, err := sim.StartSession(sim.Config{Mem: mem, Procs: procs, MaxSteps: maxSteps, Reuse: arena})
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			n := 0
			for ; n < maxSteps; n++ {
				ready := s.Ready()
				if len(ready) == 0 {
					break
				}
				if err := s.Step(ready[rng.IntN(len(ready))]); err != nil {
					s.Close()
					return 0, fmt.Errorf("session step: %w", err)
				}
			}
			d += time.Since(t0)
			steps += n
			s.Close()
		}
	}
	if steps == 0 {
		return 0, errors.New("session step sample took no steps")
	}
	return float64(d.Nanoseconds()) / float64(steps), nil
}
