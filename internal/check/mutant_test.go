package check_test

// Mutant-kill gate for the reference engine: one-line mutants of the
// portfolio's mutual-exclusion algorithms at n = 2, each of which breaks
// mutual exclusion, plus the fleet's deliberately racy mutex. The
// unreduced reference exploration (Options.DPOR unset) must report a
// violation on every one, and check.ReplaysToViolation must confirm the
// witness on a fresh program instance. The DPOR engine is held only to
// the kills it makes today; its misses on the spin-loop mutants are a
// known defect of its revisit handling and are asserted neither way.

import (
	"testing"

	"cfc/internal/check"
	"cfc/internal/driver"
	"cfc/internal/fleet"
	"cfc/internal/metrics"
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// lamportMutant is Lamport's fast mutual exclusion (mutex.Lamport) for
// two processes with slot ids pid+1, minus one line selected by the
// flags.
type lamportMutant struct {
	x, y sim.Reg
	b    []sim.Reg
	// noReadY drops the doorway's read of y, so a process writes y even
	// while another holds the gate.
	noReadY bool
	// noRereadX drops the re-read of x after writing y, so two processes
	// past the y check both enter.
	noRereadX bool
}

func (l *lamportMutant) Lock(p *sim.Proc) {
	me := p.ID()
	v := uint64(me + 1)
	for {
		p.Write(l.b[me], 1)
		p.Write(l.x, v)
		if !l.noReadY && p.Read(l.y) != 0 {
			p.Write(l.b[me], 0)
			for p.Read(l.y) != 0 {
			}
			continue
		}
		p.Write(l.y, v)
		if !l.noRereadX && p.Read(l.x) != v {
			p.Write(l.b[me], 0)
			for _, bj := range l.b {
				for p.Read(bj) != 0 {
				}
			}
			if p.Read(l.y) != v {
				for p.Read(l.y) != 0 {
				}
				continue
			}
		}
		return
	}
}

func (l *lamportMutant) Unlock(p *sim.Proc) {
	p.Write(l.y, 0)
	p.Write(l.b[p.ID()], 0)
}

// petersonTurnFirst is Peterson's two-process algorithm (mutex.Peterson)
// with the entry's two writes swapped: turn before flag. A process can
// then yield the turn, be overtaken by the other's whole entry, and
// still pass on the turn it finds afterwards.
type petersonTurnFirst struct {
	flag [2]sim.Reg
	turn sim.Reg
}

func (l *petersonTurnFirst) Lock(p *sim.Proc) {
	side := p.ID()
	p.Write(l.turn, uint64(side))
	p.Write(l.flag[side], 1)
	for {
		if p.Read(l.flag[1-side]) == 0 {
			return
		}
		if p.Read(l.turn) != uint64(side) {
			return
		}
	}
}

func (l *petersonTurnFirst) Unlock(p *sim.Proc) {
	p.Write(l.flag[p.ID()], 0)
}

// lockerBuilder is a two-process, one-round mutex program over the
// locker newLock declares in a fresh atomic-register memory.
func lockerBuilder(newLock func(mem *sim.Memory) driver.Locker) check.Builder {
	return func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.AtomicRegisters)
		l := newLock(mem)
		return mem, []sim.ProcFunc{driver.MutexBody(l, 1, 0), driver.MutexBody(l, 1, 0)}, nil
	}
}

func newLamportMutant(noReadY, noRereadX bool) func(mem *sim.Memory) driver.Locker {
	return func(mem *sim.Memory) driver.Locker {
		return &lamportMutant{
			x: mem.Register("x", 2), y: mem.Register("y", 2), b: mem.Bits("b", 2),
			noReadY: noReadY, noRereadX: noRereadX,
		}
	}
}

func TestReferenceKillsMutants(t *testing.T) {
	racy, ok := fleet.ByName("broken/racy-mutex", 2)
	if !ok {
		t.Fatal("broken/racy-mutex missing from the fleet registry")
	}
	mutants := []struct {
		name  string
		build check.Builder
		prop  check.Property
		// dporKills marks the mutants the DPOR engine is required to
		// kill as well.
		dporKills bool
	}{
		{"lamport/no-reread-x", lockerBuilder(newLamportMutant(false, true)), metrics.CheckMutualExclusion, false},
		{"lamport/no-read-y", lockerBuilder(newLamportMutant(true, false)), metrics.CheckMutualExclusion, false},
		{"peterson/turn-before-flag", lockerBuilder(func(mem *sim.Memory) driver.Locker {
			return &petersonTurnFirst{
				flag: [2]sim.Reg{mem.Bit("flag[0]"), mem.Bit("flag[1]")},
				turn: mem.Bit("turn"),
			}
		}), metrics.CheckMutualExclusion, false},
		{racy.Name, racy.Builder(2), racy.Check, true},
	}
	// cfccheck's defaults for mutex jobs.
	base := check.Options{MaxDepth: 120, MaxStates: 1 << 19, CollapseSpins: true}
	dpor := base
	dpor.DPOR = true
	dporSym := dpor
	dporSym.Symmetry = true
	type engine struct {
		label string
		opts  check.Options
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			engines := []engine{{"reference", base}}
			if m.dporKills {
				engines = append(engines, engine{"dpor", dpor}, engine{"dpor+sym", dporSym})
			}
			for _, e := range engines {
				res, err := check.Explore(m.build, m.prop, e.opts)
				if err != nil {
					t.Fatalf("%s: %v", e.label, err)
				}
				if res.Violation == nil {
					t.Fatalf("%s: mutant survived (%d states, %d runs, truncated=%v)",
						e.label, res.States, res.Runs, res.Truncated)
				}
				ok, err := check.ReplaysToViolation(m.build, m.prop, e.opts, res.Violation.Schedule)
				if err != nil {
					t.Fatalf("%s: witness replay: %v", e.label, err)
				}
				if !ok {
					t.Errorf("%s: witness %v does not replay to a violation", e.label, res.Violation.Schedule)
				}
			}
		})
	}
}
