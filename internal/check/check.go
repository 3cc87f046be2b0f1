package check

import (
	"fmt"

	"cfc/internal/sim"
)

// Property is a safety predicate over a (partial) run: it must return an
// error if any state of the trace violates the property. The metrics
// package's CheckMutualExclusion, CheckUniqueOutputs and CheckDetection
// are Properties. The DPOR engine's wave pass (Options.Workers > 1) calls
// the property concurrently from several goroutines, each on its own
// trace, so it must not keep mutable state between calls — a pure
// function of the trace, which all three metrics properties are.
type Property func(t *sim.Trace) error

// Builder constructs the memory and process bodies of the program under
// check. It must be deterministic: every call must produce an identical
// program. The serial explorer calls it once and replays that one program
// for every schedule; the DPOR engine calls it once per wave-pass
// goroutine (see Options.Workers), so each goroutine replays a private
// instance. Builder calls are never concurrent, but distinct instances
// are driven concurrently, so instances must not share mutable state
// through package-level variables — which holds for every algorithm body
// in this repository, all of which are pure functions of the values
// their shared-memory operations return.
type Builder func() (*sim.Memory, []sim.ProcFunc, error)

// Options configures an exploration.
type Options struct {
	// MaxDepth bounds the schedule length (scheduled events per run).
	// Zero means 200.
	MaxDepth int
	// MaxStates bounds the number of distinct states explored; the
	// exploration reports Truncated when exceeded. Zero means 1 << 20.
	MaxStates int
	// ExploreCrashes additionally branches on crashing each process (at
	// most one crash per process per run).
	ExploreCrashes bool
	// ExpectTermination requires every maximal run (empty ready set) to
	// end with all started processes terminated or crashed; a process
	// that can neither step nor finish would be a simulator-level
	// deadlock.
	ExpectTermination bool
	// CollapseSpins canonicalises busy-wait loops when hashing states:
	// wherever a process history repeats a short period (up to 4 events)
	// with identical operations, registers and return values, the
	// repetition is reduced to a single occurrence of the period, so
	// "spun 3 times" and "spun 30 times" merge — also when the process
	// has since moved past the spin. This turns the unbounded spin
	// chains of deadlock-free mutex algorithms into finitely many
	// states, and because the reduction is applied online (it commutes
	// with extending the history by one event), state identity is a pure
	// function of the program, independent of the order in which states
	// are discovered.
	//
	// The reduction is sound only for algorithms whose busy-wait loops
	// carry no loop-local state (no iteration counters, no accumulated
	// values): every algorithm in this repository except the backoff
	// variants qualifies. It is off by default.
	CollapseSpins bool
	// POR is ignored by Explore.
	//
	// Deprecated: the static ample-set reduction it selected was deleted;
	// the unreduced reference (DPOR unset) and DPOR are the two engines.
	// The field remains only for callers that still set it.
	POR bool
	// DPOR enables dynamic partial-order reduction (source-DPOR, see
	// dpor.go): every node starts with a single step branch and backtrack
	// points are computed from the conflicts each executed schedule
	// actually exhibits — a race between two steps of the path that the
	// execution's own happens-before relation does not order schedules an
	// alternative first step at the earlier node. Sleep sets (sleep.go)
	// prune permutational duplicates, the visited set is keyed on (state,
	// sleep), and completed explorations are bit-identical at any Workers
	// count. Without DPOR, Explore runs the unreduced reference
	// exploration, which branches on every live process at every node.
	//
	// Soundness contract: the property must depend only on the events the
	// metrics properties depend on — the interleaving of marks, outputs
	// and crashes, and each process's own event subsequence — not on the
	// global order of accesses by different processes. Any violation
	// reported under DPOR is real (the reduction only omits schedules;
	// every witness replays), and cfccheck -pordiff diffs its verdicts
	// against the reference across the whole portfolio.
	//
	// Under DPOR, States counts expanded (state, sleep set) nodes — the
	// unit of work the reduced search actually performs — and Runs counts
	// the maximal schedules of the reduced tree, so both are expected to
	// be (much) smaller than the reference exploration's; they remain
	// deterministic. Reduction requires at most 64 processes (sleep sets
	// are pid bitmasks); wider programs silently fall back to the
	// reference exploration.
	DPOR bool
	// Symmetry canonicalises the visited key under the program's
	// declared pid-permutation group before lookup, so one
	// representative per symmetry orbit is expanded (see symmetry.go and
	// sim/symmetry.go for the declaration surface and the soundness
	// conditions: uniform bodies up to declared pid encodings, and a
	// pid-symmetric property — all the metrics properties qualify). It
	// is honoured by the DPOR engine only, and silently stays off when
	// the program's Memory declares no symmetry spec, the declared
	// process count differs from the program's, or more than 6 processes
	// would make the group too large. Result.SymmetryApplied reports
	// whether it was active.
	Symmetry bool
	// PORAuto is ignored by Explore.
	//
	// Deprecated: the two-pass profitability fallback of the static
	// reduction was deleted together with it. The field remains only for
	// callers that still set it.
	PORAuto bool
	// Workers is the number of goroutines that run the DPOR engine's
	// wave-expansion pass, each owning a private program instance (one
	// Builder call) and live session; 0 means 1. Results are
	// bit-identical at any count — counters, truncation and the
	// reported witness — because the order-sensitive commit pass stays
	// serial (see dpor.go). The reference engine always explores serially
	// and ignores Workers.
	Workers int
}

// Violation describes a property failure found during exploration.
type Violation struct {
	// Schedule reproduces the failure: non-negative entries schedule that
	// process's next event; entry -pid-1 crashes process pid.
	Schedule []int
	// Err is the property's error.
	Err error
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("check: violation under schedule %v: %v", v.Schedule, v.Err)
}

// Result summarises an exploration.
type Result struct {
	// States is the number of distinct states visited.
	States int
	// Runs is the number of maximal schedules explored to completion.
	Runs int
	// Truncated reports that a bound (depth or states) was hit, so the
	// exploration is not a full proof.
	Truncated bool
	// ReducedNodes counts the expanded nodes whose branch set was a
	// strict subset of the enabled steps. Zero without Options.DPOR.
	ReducedNodes int
	// Violation is the first property failure found, or nil.
	Violation *Violation
	// PORDisabled is always false.
	//
	// Deprecated: it reported the fallback of the deleted PORAuto mode.
	// The field remains only for callers that still read it.
	PORDisabled bool
	// SymmetryApplied reports that pid-symmetry canonicalisation was
	// active: Options.Symmetry was set under DPOR and the program
	// declared a matching symmetry group.
	SymmetryApplied bool
}

// Explore exhaustively explores the interleavings of the program under
// the property, on one of two engines: the DPOR engine when Options.DPOR
// is set, else the unreduced reference depth-first search. It returns an
// error only for configuration problems; a property failure is reported
// in Result.Violation.
func Explore(build Builder, prop Property, opts Options) (Result, error) {
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 200
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	if opts.DPOR {
		return exploreDPOR(build, prop, opts, maxDepth, maxStates)
	}
	return exploreSerial(build, prop, opts, maxDepth, maxStates)
}

// exploreSerial is the reference engine: a single-goroutine depth-first
// search that branches on every live process (and, with crash
// exploration, every crash) at every unvisited state.
func exploreSerial(build Builder, prop Property, opts Options, maxDepth, maxStates int) (Result, error) {
	e := &explorer{
		prop:      prop,
		opts:      opts,
		maxDepth:  maxDepth,
		maxStates: maxStates,
		visited:   make(map[uint64]struct{}),
	}
	if err := e.core.init(build, maxDepth); err != nil {
		return Result{}, err
	}
	// A panic in an algorithm body or property surfaces as a
	// checker error carrying the schedule prefix being expanded, like the
	// DPOR engine's containment (see dexplorer.runStage).
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				prefix := append([]int(nil), e.core.sess.Decisions()...)
				err = fmt.Errorf("check: panicked expanding schedule prefix %v: %v", prefix, r)
			}
		}()
		return e.dfs(nil)
	}()
	e.core.close()
	if err != nil {
		return Result{}, err
	}
	return Result{
		States:    len(e.visited),
		Runs:      e.runs,
		Truncated: e.truncated,
		Violation: e.violation,
	}, nil
}

type explorer struct {
	core      replayCore
	prop      Property
	opts      Options
	maxDepth  int
	maxStates int

	visited   map[uint64]struct{}
	runs      int
	peeked    int // sibling replays skipped by the batch peek
	truncated bool
	violation *Violation

	peekHist []histEntry // scratch for peekKey's branch-pid history
}

func (e *explorer) dfs(schedule []int) error {
	if e.violation != nil {
		return nil
	}
	tr, live, err := e.core.stateAt(schedule)
	if err != nil {
		return err
	}

	if err := e.prop(tr); err != nil {
		e.violation = &Violation{Schedule: append([]int(nil), schedule...), Err: err}
		return nil
	}

	if len(live) == 0 {
		e.runs++
		if e.opts.ExpectTermination {
			if pid, ok := unterminated(tr); ok {
				e.violation = &Violation{
					Schedule: append([]int(nil), schedule...),
					Err:      unterminatedErr(pid),
				}
			}
		}
		return nil
	}

	if len(schedule) >= e.maxDepth {
		e.truncated = true
		return nil
	}

	h := e.core.stateHash(tr, e.opts.CollapseSpins)
	if _, seen := e.visited[h]; seen {
		return nil
	}
	if len(e.visited) >= e.maxStates {
		e.truncated = true
		return nil
	}
	e.visited[h] = struct{}{}

	// The unreduced branch set: every live process's step in ascending
	// pid order, then — with crash exploration — a crash of every live
	// process not crashed yet. live is the core's scratch, so it is
	// copied before any child overwrites it.
	br := make([]int, len(live), 2*len(live))
	copy(br, live)
	if e.opts.ExploreCrashes {
		for _, pid := range live {
			if !crashedIn(schedule, pid) {
				br = append(br, -pid-1)
			}
		}
	}

	// Batch-peek the siblings before descending into any of them: every
	// child's visited key is a pure function of this node's hashing
	// scratch (cell values plus per-pid histories, both still valid here)
	// and the branch's pending step, so the keys of all siblings can be
	// computed in one pass over the shared parent state. A child whose
	// key is already visited is skipped without a session Seek — which
	// for every sibling after the first would replay the whole schedule
	// prefix from the root. Terminal, violating and depth-truncated
	// children never enter the visited set (dfs returns before marking),
	// so the peek can only skip children dfs would prune anyway; the
	// depth guard keeps the boundary case (child at maxDepth must report
	// Truncated) on the replay path.
	var skip []bool
	if len(schedule)+1 < e.maxDepth {
		pend := e.core.pendingOps()
		for i, entry := range br {
			key, ok := e.peekKey(entry, live, pend)
			if !ok {
				continue
			}
			if _, seen := e.visited[key]; seen {
				if skip == nil {
					skip = make([]bool, len(br))
				}
				skip[i] = true
				e.peeked++
			}
		}
	}

	// First branch first: the live session's decision stack still equals
	// schedule here, so the child's Seek extends it by one event instead
	// of replaying the prefix; later siblings rebuild from the root.
	for i, entry := range br {
		if skip != nil && skip[i] {
			continue
		}
		if err := e.dfs(append(schedule, entry)); err != nil {
			return err
		}
		if e.violation != nil {
			return nil
		}
	}
	return nil
}

// peekKey computes the visited key the child reached via entry would
// derive for itself — stateHash over the child's cell values and
// histories — without replaying the child. It reads the parent node's
// hashing scratch (c.vals, c.hist — filled by stateHash above, collapsed
// per the options) and the parent's pending steps; the auto termination
// mark a completing step would add is excluded from stateHash for
// exactly this purpose. ok is false when the branch cannot be peeked
// (scratch misalignment or an unknown entry kind); the caller then
// replays it normally.
func (e *explorer) peekKey(entry int, live []int, pend []sim.PendingOp) (key uint64, ok bool) {
	c := &e.core
	var en histEntry
	pid := -1
	cell := int32(-1)
	var newVal uint64
	switch {
	case entry >= 0 && entry < len(c.procs):
		pid = entry
		var po sim.PendingOp
		found := false
		for i, q := range live {
			if q == pid {
				if i < len(pend) && pend[i].PID == pid {
					po, found = pend[i], true
				}
				break
			}
		}
		if !found {
			return 0, false
		}
		en = c.pendingEntry(po)
		if po.Kind == sim.KindAccess {
			mask := po.Acc().Mask()
			cur := c.vals[po.Cell]
			next, _, _ := po.Op.Apply((cur&mask)>>po.Shift, po.Arg)
			cell = po.Cell
			newVal = cur&^mask | (next<<po.Shift)&mask
		}
	case entry < 0 && -entry-1 < len(c.procs):
		pid = -entry - 1
		en = histEntry{kind: uint8(sim.KindCrash)}
	default:
		return 0, false
	}

	// The branch process's post-step history, collapse-canonical: by the
	// online property collapse(H+e) == collapse(collapse(H)+e), appending
	// to the parent's already-collapsed history and reducing any new
	// trailing period reproduces what the child's own stateHash computes.
	hh := append(e.peekHist[:0], c.hist[pid]...)
	hh = append(hh, en)
	if e.opts.CollapseSpins {
		for {
			reduced := false
			for p := 1; p <= maxSpinPeriod && 2*p <= len(hh); p++ {
				if tailRepeats(hh, p) {
					hh = hh[:len(hh)-p]
					reduced = true
					break
				}
			}
			if !reduced {
				break
			}
		}
	}
	e.peekHist = hh

	h := uint64(hashSeed)
	for i, v := range c.vals {
		if int32(i) == cell {
			v = newVal
		}
		h = mix64(h, v)
	}
	for q := range c.hist {
		s := c.hist[q]
		if q == pid {
			s = hh
		}
		h = mix64(h, uint64(len(s))<<32|0xabcd)
		for _, en := range s {
			h = mix64(h, uint64(en.kind)|uint64(en.op)<<8|uint64(en.shift)<<16|uint64(en.width)<<24|uint64(uint32(en.cell))<<32)
			h = mix64(h, en.ret)
			h = mix64(h, en.aux)
		}
	}
	return h, true
}

// unterminated scans a maximal run for a process that started but neither
// terminated nor crashed — a simulator-level deadlock under
// Options.ExpectTermination.
func unterminated(tr *sim.Trace) (int, bool) {
	for pid := 0; pid < tr.NumProcs; pid++ {
		if tr.FirstEvent(pid) >= 0 && !tr.Done(pid) && !tr.Crashed(pid) {
			return pid, true
		}
	}
	return -1, false
}

func unterminatedErr(pid int) error {
	return fmt.Errorf("process %d started but neither terminated nor crashed", pid)
}
