package check_test

import (
	"math/rand"
	"testing"

	"cfc/internal/check"
	"cfc/internal/fleet"
)

// driveWaves runs one DPOR exploration through the WaveMaster/WaveProber
// split with k probers, chunking every wave round-robin with the seeded
// rng so chunk boundaries fall everywhere across waves. Reports are
// reassembled into task order exactly as the fabric coordinator does.
// It also returns the number of wave tasks expanded.
func driveWaves(t *testing.T, w fleet.Workload, n, k int, opts check.Options, seed int64) (check.Result, int) {
	t.Helper()
	build := w.Builder(n)
	m, err := check.NewWaveMaster(build, w.Check, opts)
	if err != nil {
		t.Fatalf("NewWaveMaster: %v", err)
	}
	probers := make([]*check.WaveProber, k)
	for i := range probers {
		p, err := check.NewWaveProber(build, w.Check, opts)
		if err != nil {
			t.Fatalf("NewWaveProber: %v", err)
		}
		defer p.Close()
		probers[i] = p
	}
	rng := rand.New(rand.NewSource(seed))
	tasks := 0
	for !m.Done() {
		wave := m.Wave()
		tasks += len(wave)
		reports := make([]check.WaveReport, len(wave))
		for lo := 0; lo < len(wave); {
			hi := min(lo+1+rng.Intn(5), len(wave))
			p := probers[rng.Intn(k)]
			for i := lo; i < hi; i++ {
				rep, err := p.ProbeWave(wave[i])
				if err != nil {
					t.Fatalf("ProbeWave(%v): %v", wave[i].Schedule, err)
				}
				reports[i] = rep
			}
			lo = hi
		}
		if err := m.Commit(reports); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	return m.Result(), tasks
}

// TestWaveSplitEqualsExplore is the distributed-DPOR determinism gate at
// the engine level: the WaveMaster/WaveProber split — any prober count,
// any chunking — reports byte-identical results to the in-process DPOR
// engine, including witnesses, with and without symmetry.
func TestWaveSplitEqualsExplore(t *testing.T) {
	loads := []string{"mutex/peterson-2p", "naming/tas-scan", "broken/racy-mutex", "mixed/tas-lock+tas-scan"}
	base := check.Options{MaxDepth: 60, MaxStates: 1 << 17, CollapseSpins: true, DPOR: true}
	sym := base
	sym.Symmetry = true
	for _, name := range loads {
		w, ok := fleet.ByName(name, 2)
		if !ok {
			t.Fatalf("%s missing from registry", name)
		}
		for _, opts := range []check.Options{base, sym} {
			serial, err := check.Explore(w.Builder(2), w.Check, opts)
			if err != nil {
				t.Fatalf("%s: serial: %v", name, err)
			}
			for _, k := range []int{1, 3} {
				res, tasks := driveWaves(t, w, 2, k, opts, int64(k)*6151+int64(len(name)))
				assertResultsEqual(t, name+"/waves", serial, res)
				if tasks == 0 {
					t.Errorf("%s k=%d: wave probers expanded nothing", name, k)
				}
			}
		}
	}
}

func assertResultsEqual(t *testing.T, name string, serial, split check.Result) {
	t.Helper()
	if serial.States != split.States || serial.Runs != split.Runs ||
		serial.Truncated != split.Truncated || serial.ReducedNodes != split.ReducedNodes {
		t.Errorf("%s: counters diverge: serial {states %d runs %d trunc %v reduced %d}, split {states %d runs %d trunc %v reduced %d}",
			name, serial.States, serial.Runs, serial.Truncated, serial.ReducedNodes,
			split.States, split.Runs, split.Truncated, split.ReducedNodes)
	}
	sv, dv := serial.Violation, split.Violation
	if (sv == nil) != (dv == nil) {
		t.Errorf("%s: verdicts diverge: serial violation %v, split violation %v", name, sv, dv)
		return
	}
	if sv == nil {
		return
	}
	if len(sv.Schedule) != len(dv.Schedule) {
		t.Errorf("%s: witness length diverges: serial %v, split %v", name, sv.Schedule, dv.Schedule)
		return
	}
	for i := range sv.Schedule {
		if sv.Schedule[i] != dv.Schedule[i] {
			t.Errorf("%s: witness diverges: serial %v, split %v", name, sv.Schedule, dv.Schedule)
			return
		}
	}
	if sv.Err.Error() != dv.Err.Error() {
		t.Errorf("%s: violation error diverges: serial %q, split %q", name, sv.Err, dv.Err)
	}
}
