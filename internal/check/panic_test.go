package check_test

// Coverage for the explorers' panic containment: a panicking algorithm
// body must surface as a checker error carrying the offending schedule
// prefix, not kill the process.

import (
	"strings"
	"testing"

	"cfc/internal/check"
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// TestExplorerContainsBodyPanic explores a program whose body panics on
// a reachable interleaving (pid 1 observes pid 0's write) and requires
// Explore to return an error naming the schedule prefix — on the serial
// explorer, the DPOR engine's parallel wave pass, and its one-worker
// pass, which runs the stage on the calling goroutine.
func TestExplorerContainsBodyPanic(t *testing.T) {
	build := func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.AtomicRegisters)
		x := mem.Bit("x")
		procs := []sim.ProcFunc{
			func(p *sim.Proc) { p.Write(x, 1) },
			func(p *sim.Proc) {
				if p.Read(x) != 0 {
					panic("injected body panic")
				}
			},
		}
		return mem, procs, nil
	}
	for _, opts := range []check.Options{
		{MaxDepth: 16},
		{MaxDepth: 16, DPOR: true, Workers: 4},
		{MaxDepth: 16, DPOR: true, Workers: 1},
	} {
		_, err := check.Explore(build, trivialProp, opts)
		if err == nil {
			t.Fatalf("%+v: Explore should report the body panic as an error", opts)
		}
		if !strings.Contains(err.Error(), "panicked expanding schedule prefix") {
			t.Fatalf("%+v: error should carry the schedule prefix, got: %v", opts, err)
		}
	}
}
