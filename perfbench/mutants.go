package main

import (
	"fmt"

	"cfc/internal/driver"
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// The mutants are one-line breakages of the paper's algorithms, written
// here rather than taken from the repository so the benchmark's ground
// truth cannot drift with the code it judges. Each is a copy of the
// repository's algorithm with the change named by its mutation; the
// unmutated copy (lamportIntact) is the control that proves the copy is
// faithful: it must reproduce mutex/lamport-fast's exact counts.

// lamportMutation selects which line of Lamport's fast algorithm a
// lamport program drops.
type lamportMutation int

const (
	lamportIntact lamportMutation = iota
	// lamportNoXReread drops the doorway's re-read of x after writing y:
	// a process that passes the y gate always enters.
	lamportNoXReread
	// lamportNoYRead drops the doorway's read of y: a process never waits
	// for the gate to close.
	lamportNoYRead
)

// lamportLock is Lamport's fast mutual exclusion algorithm for slots
// 1..k, registers declared in the order and with the names of
// mutex.Lamport so that explored state counts are comparable.
type lamportLock struct {
	k   int
	mut lamportMutation
	x   sim.Reg
	y   sim.Reg
	b   []sim.Reg
}

func newLamportLock(mem *sim.Memory, k int, mut lamportMutation) *lamportLock {
	w := 1
	for (uint64(1)<<w)-1 < uint64(k) {
		w++
	}
	return &lamportLock{
		k:   k,
		mut: mut,
		x:   mem.Register("x", w),
		y:   mem.Register("y", w),
		b:   mem.Bits("b", k),
	}
}

func await(p *sim.Proc, r sim.Reg, v uint64) {
	for p.Read(r) != v {
	}
}

func (l *lamportLock) Lock(p *sim.Proc) {
	id := p.ID() + 1
	v := uint64(id)
	for {
		p.Write(l.b[id-1], 1)
		p.Write(l.x, v)
		if l.mut != lamportNoYRead && p.Read(l.y) != 0 {
			p.Write(l.b[id-1], 0)
			await(p, l.y, 0)
			continue
		}
		p.Write(l.y, v)
		if l.mut != lamportNoXReread && p.Read(l.x) != v {
			p.Write(l.b[id-1], 0)
			for j := 0; j < l.k; j++ {
				await(p, l.b[j], 0)
			}
			if p.Read(l.y) != v {
				await(p, l.y, 0)
				continue
			}
		}
		return
	}
}

func (l *lamportLock) Unlock(p *sim.Proc) {
	id := p.ID() + 1
	p.Write(l.y, 0)
	p.Write(l.b[id-1], 0)
}

// petersonTurnFirst is Peterson's two-process algorithm with the entry
// writes swapped: turn is written before flag, so both processes can
// read the other's flag as 0 after conceding the turn.
type petersonTurnFirst struct {
	flag [2]sim.Reg
	turn sim.Reg
}

func (l *petersonTurnFirst) Lock(p *sim.Proc) {
	side := p.ID()
	other := 1 - side
	p.Write(l.turn, uint64(side))
	p.Write(l.flag[side], 1)
	for {
		if p.Read(l.flag[other]) == 0 {
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

// mutexProgram wraps a lock as a checker program: every process makes
// one marked lock/unlock round, exactly as the portfolio's mutex
// workloads do.
func mutexProgram(mem *sim.Memory, l driver.Locker, n int) (*sim.Memory, []sim.ProcFunc, error) {
	procs := make([]sim.ProcFunc, n)
	for pid := range procs {
		procs[pid] = driver.MutexBody(l, 1, 0)
	}
	return mem, procs, nil
}

// program is one of the benchmark's own programs, resolvable by name
// like a fleet workload and checked for mutual exclusion.
type program struct {
	name  string
	build func(n int) (*sim.Memory, []sim.ProcFunc, error)
}

func lamportProgram(name string, mut lamportMutation) program {
	return program{
		name: name,
		build: func(n int) (*sim.Memory, []sim.ProcFunc, error) {
			mem := sim.NewMemory(opset.AtomicRegisters)
			return mutexProgram(mem, newLamportLock(mem, n, mut), n)
		},
	}
}

// programs lists the benchmark's own programs.
var programs = []program{
	lamportProgram("control/lamport-fast", lamportIntact),
	lamportProgram("mutant/lamport-no-x-reread", lamportNoXReread),
	lamportProgram("mutant/lamport-no-y-read", lamportNoYRead),
	{
		name: "mutant/peterson-turn-first",
		build: func(n int) (*sim.Memory, []sim.ProcFunc, error) {
			if n != 2 {
				return nil, nil, fmt.Errorf("peterson-turn-first supports exactly 2 processes, got %d", n)
			}
			mem := sim.NewMemory(opset.AtomicRegisters)
			l := &petersonTurnFirst{
				flag: [2]sim.Reg{mem.Bit("flag[0]"), mem.Bit("flag[1]")},
				turn: mem.Bit("turn"),
			}
			// The same symmetry declaration as mutex.Peterson: the
			// mutation keeps both sides mirror images.
			mem.DeclareSymmetric(2)
			mem.DeclarePidFamily(l.flag[:])
			mem.DeclarePidValued(l.turn, sim.PidEncExact)
			return mutexProgram(mem, l, n)
		},
	},
}

// programByName finds one of the benchmark's own programs.
func programByName(name string) (program, bool) {
	for _, p := range programs {
		if p.name == name {
			return p, true
		}
	}
	return program{}, false
}
