package main

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cfc/internal/check"
	"cfc/internal/sim"
)

// counter accumulates the time and number of calls of one wrapped hot
// function. Fabric workers call wrappers concurrently, hence atomics.
type counter struct {
	ns    atomic.Int64
	calls atomic.Int64
}

func (c *counter) add(d time.Duration) {
	c.ns.Add(int64(d))
	c.calls.Add(1)
}

func (c *counter) seconds() float64 { return time.Duration(c.ns.Load()).Seconds() }

// wrapBuilder times every call of a check.Builder.
func wrapBuilder(b check.Builder, c *counter) check.Builder {
	return func() (*sim.Memory, []sim.ProcFunc, error) {
		t0 := time.Now()
		mem, procs, err := b()
		c.add(time.Since(t0))
		return mem, procs, err
	}
}

// wrapProperty times every call of a check.Property.
func wrapProperty(p check.Property, c *counter) check.Property {
	return func(t *sim.Trace) error {
		t0 := time.Now()
		err := p(t)
		c.add(time.Since(t0))
		return err
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// closedLoop runs pass back to back, each starting when the previous one
// finished, while the next pass is expected to end inside the window
// (expected: the median pass so far). It returns each sampled pass's
// wall time and the work seconds the pass reported. At least one pass
// runs. A first pass that takes at most a quarter of the window warms
// the heap and caches and is no sample (it is the slowest of a run more
// often than not); a longer one leaves too little of the window, and is
// kept.
func closedLoop(window time.Duration, pass func() (float64, error)) (walls, works []float64, err error) {
	start := time.Now()
	for first := true; ; first = false {
		t0 := time.Now()
		work, err := pass()
		if err != nil {
			return walls, works, err
		}
		wall := time.Since(t0)
		if first && wall <= window/4 {
			continue
		}
		walls = append(walls, wall.Seconds())
		works = append(works, work)
		next := time.Duration(median(walls) * float64(time.Second))
		if time.Since(start)+next > window {
			return walls, works, nil
		}
	}
}

// overheadLoop measures the tracing overhead: one warm-up pass of
// plain, then pairs of a plain and a traced pass back to back while the
// next pair is expected to end inside the window (at least one pair).
// When the warm-up pass already takes half the window, so that one pair
// would fill it, the warm-up is the only plain sample and one traced
// pass follows: a run with long passes takes two passes, not three. It returns the
// median traced pass minus the median plain pass, in seconds; the
// traced closure's last pass holds the per-layer counters.
func overheadLoop(window time.Duration, plain func() (float64, error), traced func() error) (float64, error) {
	t0 := time.Now()
	if _, err := plain(); err != nil {
		return 0, err
	}
	warm := time.Since(t0)
	if 2*warm >= window {
		t1 := time.Now()
		if err := traced(); err != nil {
			return 0, err
		}
		return time.Since(t1).Seconds() - warm.Seconds(), nil
	}
	start := time.Now()
	var plains, traces []float64
	for {
		t0 := time.Now()
		if _, err := plain(); err != nil {
			return 0, err
		}
		t1 := time.Now()
		if err := traced(); err != nil {
			return 0, err
		}
		plains = append(plains, t1.Sub(t0).Seconds())
		traces = append(traces, time.Since(t1).Seconds())
		next := time.Duration((median(plains) + median(traces)) * float64(time.Second))
		if time.Since(start)+next > window {
			return median(traces) - median(plains), nil
		}
	}
}

// sampleSetup runs a set-up step repeatedly and returns the median
// duration in seconds. The first third of the time budget warms the
// heap and caches and is discarded; then at least k samples are taken,
// and more until the budget is spent, so a short stall of the host
// cannot move the median.
func sampleSetup(k int, budget time.Duration, step func() error) (float64, error) {
	start := time.Now()
	var ds []float64
	for len(ds) < k || time.Since(start) < budget {
		t0 := time.Now()
		if err := step(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		if t0.Sub(start) >= budget/3 {
			ds = append(ds, time.Since(t0).Seconds())
		}
	}
	return median(ds), nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
