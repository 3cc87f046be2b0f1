package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the tests hold the code to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func smallConfig(t *testing.T, workload string, trace bool) config {
	c := config{workload: workload, seed: 7, window: 100 * time.Millisecond, trace: trace, workdir: t.TempDir()}
	c.smallSize()
	return c
}

// result runs one small workload and parses its result line.
func result(t *testing.T, cfg config) (*outcome, map[string]metricValue) {
	t.Helper()
	o, err := execute(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	line, err := report(cfg, o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var r struct {
		Correct bool                   `json:"correct"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal(line, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct {
		t.Errorf("%s: result not correct: %v", cfg.workload, o.broken)
	}
	return o, r.Metrics
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json untraced
// and traced and requires each named metric with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			_, got := result(t, smallConfig(t, w.Name, trace))
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(got), len(want))
			}
			for _, m := range want {
				if v, ok := got[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, v, m.Unit)
				}
			}
		}
	}
}

// TestWrongVerdictIsFailedOperation flips the ground truth of one
// correct job and requires the benchmark to count it as failed.
func TestWrongVerdictIsFailedOperation(t *testing.T) {
	for _, w := range []string{"check-ref-n3", "fabric-waves-n3"} {
		cfg := smallConfig(t, w, false)
		base, _ := result(t, cfg)
		cfg.flip = "mutex/lamport-fast@n=2"
		flipped, _ := result(t, cfg)
		if flipped.failed() <= base.failed() {
			t.Errorf("%s: %d failed with a wrong expected verdict, %d without", w, flipped.failed(), base.failed())
		}
		found := false
		for k := range flipped.failures {
			found = found || strings.HasPrefix(k, cfg.flip+": violation missed")
		}
		if !found {
			t.Errorf("%s: failures %v do not name %s", w, flipped.failures, cfg.flip)
		}
	}
}

// TestTracedCountsEqualUntraced requires the traced run's exact counts
// to equal the untraced run's, and the traced paths (wrapped Explore,
// wave seam, per-scenario fleet runs, counted transport) to agree with
// the untraced results.
func TestTracedCountsEqualUntraced(t *testing.T) {
	for w := range workloads {
		plain, _ := result(t, smallConfig(t, w, false))
		traced, _ := result(t, smallConfig(t, w, true))
		if len(plain.exact) == 0 {
			t.Errorf("%s: no exact counts", w)
		}
		for k, v := range plain.exact {
			if traced.metrics[k] != v {
				t.Errorf("%s: traced %s = %v, untraced %v", w, k, traced.metrics[k], v)
			}
		}
		for k := range traced.failures {
			if strings.Contains(k, "differs") || strings.Contains(k, "per-scenario") {
				t.Errorf("%s: %s", w, k)
			}
		}
	}
}

// TestCountsIndependentOfPasses requires attempted and failed to be the
// same whether the window holds one pass or several: passes repeat the
// same operations.
func TestCountsIndependentOfPasses(t *testing.T) {
	for _, w := range []string{"check-dpor-n3", "fleet-n16"} {
		one := smallConfig(t, w, false)
		one.window = 0
		several := smallConfig(t, w, false)
		several.window = time.Second
		a, _ := result(t, one)
		b, _ := result(t, several)
		if a.attempted() != b.attempted() || a.failed() != b.failed() {
			t.Errorf("%s: one pass %d attempted/%d failed, several %d/%d", w, a.attempted(), a.failed(), b.attempted(), b.failed())
		}
	}
}
