package check

// Internal gate for the serial explorer's sibling batch peek: the peek
// must actually fire (visited siblings skipped without a replay) and the
// exploration it prunes must stay bit-identical — same States, Runs and
// verdict — to a naive depth-first search with no peek, which replays
// every child.

import (
	"testing"

	"cfc/internal/opset"
	"cfc/internal/sim"
)

func peekBuilder(n int) Builder {
	return func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.RMW)
		b := mem.Bit("lock")
		body := func(p *sim.Proc) {
			p.Mark(sim.PhaseTry)
			for p.TestAndSet(b) != 0 {
			}
			p.Mark(sim.PhaseCS)
			p.Mark(sim.PhaseExit)
			p.TestAndReset(b)
			p.Mark(sim.PhaseRemainder)
		}
		procs := make([]sim.ProcFunc, n)
		for i := range procs {
			procs[i] = body
		}
		return mem, procs, nil
	}
}

func TestSiblingPeekSkipsReplays(t *testing.T) {
	prop := func(tr *sim.Trace) error { return nil }
	opts := Options{CollapseSpins: true, MaxDepth: 60}

	// Run the serial explorer by hand to read the peek counter.
	e := &explorer{
		prop:      prop,
		opts:      opts,
		maxDepth:  opts.MaxDepth,
		maxStates: 1 << 20,
		visited:   make(map[uint64]struct{}),
	}
	if err := e.core.init(peekBuilder(3), e.maxDepth); err != nil {
		t.Fatal(err)
	}
	e.provider, e.por = newProvider(opts, 3)
	if err := e.dfs(nil, 0); err != nil {
		t.Fatal(err)
	}
	e.core.close()
	if e.peeked == 0 {
		t.Fatal("sibling peek never skipped a replay on a state-sharing program")
	}
	if e.violation != nil {
		t.Fatalf("unexpected violation: %v", e.violation)
	}

	states, runs := naiveDFS(t, peekBuilder(3), opts.CollapseSpins, e.maxDepth)
	if e.truncated {
		t.Fatal("peeked exploration truncated")
	}
	if len(e.visited) != states || e.runs != runs {
		t.Fatalf("peeked serial exploration diverged: states %d vs %d, runs %d vs %d",
			len(e.visited), states, e.runs, runs)
	}
	t.Logf("states=%d runs=%d peeked=%d", len(e.visited), e.runs, e.peeked)
}

// naiveDFS is the unpeeked reference: every child of every unvisited
// state is replayed and hashed, branching on every live process.
func naiveDFS(t *testing.T, build Builder, collapse bool, maxDepth int) (states, runs int) {
	t.Helper()
	var c replayCore
	if err := c.init(build, maxDepth); err != nil {
		t.Fatal(err)
	}
	defer c.close()
	visited := make(map[uint64]struct{})
	var dfs func(schedule []int)
	dfs = func(schedule []int) {
		tr, live, err := c.stateAt(schedule)
		if err != nil {
			t.Fatal(err)
		}
		if len(live) == 0 {
			runs++
			return
		}
		if len(schedule) >= maxDepth {
			t.Fatalf("naive reference truncated at %v", schedule)
		}
		h := c.stateHash(tr, collapse)
		if _, seen := visited[h]; seen {
			return
		}
		visited[h] = struct{}{}
		for _, pid := range live {
			dfs(childSchedule(schedule, pid))
		}
	}
	dfs(nil)
	return len(visited), runs
}
