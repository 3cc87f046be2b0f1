package check

import (
	"errors"
	"fmt"

	"cfc/internal/sim"
)

// replayCore is the per-explorer (and, in the DPOR wave pass,
// per-goroutine) replay state: one program instance (memory plus bodies, from a private
// call of the Builder), one arena-backed live session, and the hashing
// scratch. A core is confined to a single goroutine; parallelism comes
// from running many cores, never from sharing one.
type replayCore struct {
	mem      *sim.Memory
	procs    []sim.ProcFunc
	maxDepth int

	// One simulator session, trace/event buffer (via the arena) and
	// hashing scratch recycled across every replay instead of being
	// reallocated per node. The live session doubles as a cursor:
	// Session.Seek extends it in place whenever the target schedule has
	// the session's decision stack as a prefix — in depth-first order
	// that is every first branch — and rebuilds from the root only on
	// divergence.
	arena  *sim.Arena
	sess   *sim.Session
	hist   [][]histEntry
	vals   []uint64
	status []uint8
	pend   []sim.PendingOp

	// Symmetry-reduction scratch (see symmetry.go): permuted cell
	// values, the per-view permutation-behaviour cache, and written-bit
	// masks — wmask has the bits any process wrote during the run (per
	// cell), symOwnW the bits one process wrote up to the history entry
	// being remapped. Both gate exact pid-encoding remaps, which cannot
	// distinguish an untouched register from a written pid 0 by value.
	symVals  []uint64
	symDescs map[uint32]sim.ViewDesc
	wmask    []uint64
	symOwnW  []uint64
}

// init builds the core's private program instance.
func (c *replayCore) init(build Builder, maxDepth int) error {
	mem, procs, err := build()
	if err != nil {
		return fmt.Errorf("check: builder: %w", err)
	}
	c.mem = mem
	c.procs = procs
	c.maxDepth = maxDepth
	c.arena = sim.NewArena()
	return nil
}

func (c *replayCore) close() {
	if c.sess != nil {
		c.sess.Close()
		c.sess = nil
	}
}

// statuses recorded while scanning a replayed trace.
const (
	statusDone uint8 = 1 << iota
	statusCrashed
)

// seekCost reports how many events positioning the live session at
// schedule would replay: the schedule minus the session's depth when the
// session's decision stack is a prefix of the target (Session.Seek then
// extends in place), the whole schedule otherwise. Pure accounting —
// stateAt does the actual work.
func (c *replayCore) seekCost(schedule []int) int {
	if c.sess == nil || c.sess.Err() != nil {
		return len(schedule)
	}
	dec := c.sess.Decisions()
	if len(dec) > len(schedule) {
		return len(schedule)
	}
	for i, d := range dec {
		if schedule[i] != d {
			return len(schedule)
		}
	}
	return len(schedule) - len(dec)
}

// stateAt positions the live session at the given schedule — extending it
// in place when the current decision stack is a prefix, replaying from
// the root otherwise — and returns the trace plus the set of processes
// that are still live (can be scheduled). The trace aliases the session:
// it is valid only until the session advances or is replaced.
func (c *replayCore) stateAt(schedule []int) (*sim.Trace, []int, error) {
	if c.sess == nil {
		sess, err := sim.StartSession(sim.Config{
			Mem:      c.mem,
			Procs:    c.procs,
			MaxSteps: c.maxDepth + 1,
			Reuse:    c.arena,
		})
		if err != nil {
			return nil, nil, err
		}
		c.sess = sess
	}
	if err := c.sess.Seek(schedule); err != nil {
		if errors.Is(err, sim.ErrNotReady) {
			// The explorer only schedules observed-live processes, so a
			// non-ready entry means the program is nondeterministic.
			return nil, nil, fmt.Errorf("check: internal error: schedule %v became invalid: %w",
				schedule, err)
		}
		return nil, nil, fmt.Errorf("check: replay error: %w", err)
	}
	tr := c.sess.Trace()

	// Live processes: have a body, not done, not crashed. One pass over
	// the events instead of per-pid trace scans.
	if cap(c.status) < len(c.procs) {
		c.status = make([]uint8, len(c.procs))
	} else {
		c.status = c.status[:len(c.procs)]
		clear(c.status)
	}
	for _, ev := range tr.Events {
		switch {
		case ev.Kind == sim.KindCrash:
			c.status[ev.PID] |= statusCrashed
		case ev.Kind == sim.KindMark && ev.Phase == sim.PhaseDone:
			c.status[ev.PID] |= statusDone
		}
	}
	// live is allocated per node: it must survive recursion below the
	// node, unlike the trace and the status scratch.
	live := make([]int, 0, len(c.procs))
	for pid := 0; pid < len(c.procs); pid++ {
		if c.procs[pid] != nil && c.status[pid] == 0 {
			live = append(live, pid)
		}
	}
	return tr, live, nil
}

// histEntry is one event of a process's observation history, in the form
// that determines its future behaviour (processes are deterministic
// functions of the values their operations return). Shift and width
// matter: packed-word algorithms access different field views of the
// same cell, and two accesses that agree on (op, cell, arg, ret) but
// touch different fields are different observations — dropping the view
// from the digest made the spin collapse merge genuinely different
// lamport-packed states, a latent unsoundness the parallel/serial
// differential gate caught as an order-dependent state count.
type histEntry struct {
	kind  uint8
	op    uint8
	shift uint8
	width uint8
	cell  int32
	ret   uint64
	aux   uint64 // written arg / phase / output value
}

// hashSeed is an arbitrary odd constant seeding the state digest.
const hashSeed = 14695981039346656037

// viewMask is the cell-coordinate bit mask of a register view.
func viewMask(shift, width uint8) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return ((uint64(1) << width) - 1) << shift
}

// mix64 folds v into a running hash with one multiply-xorshift round
// (splitmix64-style). The digest only feeds the explorer's own visited
// set, so word-at-a-time mixing replaces the byte-at-a-time fnv loop that
// dominated hashing time.
func mix64(h, v uint64) uint64 {
	h ^= v
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// stateHash digests the global state after a trace: final cell values plus
// each process's observation history and status. Two prefixes with equal
// hashes lead to identical futures. With collapse set, trailing busy-wait
// periods in each history are reduced to one occurrence (see
// Options.CollapseSpins). All scratch comes from the core.
func (c *replayCore) stateHash(t *sim.Trace, collapse bool) uint64 {
	if cap(c.hist) < t.NumProcs {
		c.hist = append(c.hist[:cap(c.hist)], make([][]histEntry, t.NumProcs-cap(c.hist))...)
	}
	c.hist = c.hist[:t.NumProcs]
	for pid := range c.hist {
		c.hist[pid] = c.hist[pid][:0]
	}
	ncells := c.mem.NumCells()
	if cap(c.wmask) < ncells {
		c.wmask = make([]uint64, ncells)
	} else {
		c.wmask = c.wmask[:ncells]
		clear(c.wmask)
	}
	for _, ev := range t.Events {
		if ev.Kind == sim.KindMark && ev.Phase == sim.PhaseDone {
			// The termination mark is run-loop-generated (no body marks
			// PhaseDone itself — see Trace.Schedule), recorded in the same
			// scheduled step as the body's final action. Whether a body has
			// returned is therefore a deterministic function of the rest of
			// its history, so dropping the mark from the digest merges no
			// distinct states — and it lets the serial explorer's sibling
			// peek (explorer.peekKey) predict a child's key without knowing
			// whether the scheduled step completes the body.
			continue
		}
		v := histEntry{kind: uint8(ev.Kind)}
		switch ev.Kind {
		case sim.KindAccess:
			v.op = uint8(ev.Op)
			v.shift = ev.Shift
			v.width = ev.Width
			v.cell = ev.Cell
			v.ret = ev.Ret
			v.aux = ev.Arg
			if ev.Op.Mutates() {
				c.wmask[ev.Cell] |= viewMask(ev.Shift, ev.Width)
			}
		case sim.KindMark:
			v.aux = uint64(ev.Phase)
		case sim.KindOutput:
			v.aux = ev.Out
		}
		c.hist[ev.PID] = append(c.hist[ev.PID], v)
	}
	if collapse {
		for pid := range c.hist {
			c.hist[pid] = collapseSpins(c.hist[pid])
		}
	}

	h := uint64(hashSeed)
	c.vals = t.ReplayValuesInto(c.vals, len(t.Events))
	for _, v := range c.vals {
		h = mix64(h, v)
	}
	for _, hh := range c.hist {
		h = mix64(h, uint64(len(hh))<<32|0xabcd) // separator, collapse-aware length
		for _, en := range hh {
			h = mix64(h, uint64(en.kind)|uint64(en.op)<<8|uint64(en.shift)<<16|uint64(en.width)<<24|uint64(uint32(en.cell))<<32)
			h = mix64(h, en.ret)
			h = mix64(h, en.aux)
		}
	}
	return h
}

// maxSpinPeriod bounds the busy-wait loop body size recognised by
// collapseSpins (in events per iteration).
const maxSpinPeriod = 4

// collapseSpins rewrites a history into its spin-canonical form: the
// history is rebuilt one entry at a time, and after every append any
// trailing repetition of a period of up to maxSpinPeriod identical
// entries is dropped, so repeated busy-wait iterations collapse wherever
// they occur, not only at the end of the history. The rewrite is in
// place.
//
// The online form has the property the explorers depend on:
// collapse(H+e) == collapse(collapse(H)+e). The canonical form of a
// state therefore determines the canonical forms of all its successors,
// which makes the visited closure — and with it States and Runs — a pure
// function of the program, independent of the order states are
// discovered in. A tail-only collapse lacks this: two merged arrivals
// with different spin counts diverge again one event later (the spins
// are no longer the tail), and which arrival's subtree gets expanded
// then depends on discovery order — so the depth-first explorer and the
// wave-ordered DPOR engine could disagree with their own reference
// orders.
func collapseSpins(h []histEntry) []histEntry {
	out := h[:0] // in place: writes trail reads
	for _, e := range h {
		out = append(out, e)
		for {
			reduced := false
			for p := 1; p <= maxSpinPeriod && 2*p <= len(out); p++ {
				if tailRepeats(out, p) {
					out = out[:len(out)-p]
					reduced = true
					break
				}
			}
			if !reduced {
				break
			}
		}
	}
	return out
}

// tailRepeats reports whether the last p entries equal the p entries
// before them.
func tailRepeats(h []histEntry, p int) bool {
	n := len(h)
	for i := 0; i < p; i++ {
		if h[n-1-i] != h[n-1-p-i] {
			return false
		}
	}
	return true
}

// pendingOps snapshots the live processes' pending steps from the core's
// session (which must be positioned at the current node), reusing the
// core's scratch. In a healthy session the ready set and the explorer's
// live set coincide, so entry i belongs to live[i].
func (c *replayCore) pendingOps() []sim.PendingOp {
	c.pend = c.sess.PendingOps(c.pend)
	return c.pend
}

// pendingEntry materialises the histEntry that performing po would append
// to its process's observation history. For an access the return value is
// computed from the current cell values — c.vals, filled by the stateHash
// call for this node — exactly as the run loop's perform would.
func (c *replayCore) pendingEntry(po sim.PendingOp) histEntry {
	v := histEntry{kind: uint8(po.Kind)}
	switch po.Kind {
	case sim.KindAccess:
		mask := po.Acc().Mask()
		old := (c.vals[po.Cell] & mask) >> po.Shift
		_, ret, _ := po.Op.Apply(old, po.Arg)
		v.op = uint8(po.Op)
		v.shift = po.Shift
		v.width = po.Width
		v.cell = po.Cell
		v.ret = ret
		v.aux = po.Arg
	case sim.KindMark:
		v.aux = uint64(po.Phase)
	case sim.KindOutput:
		v.aux = po.Out
	}
	return v
}

func crashedIn(schedule []int, pid int) bool {
	for _, s := range schedule {
		if s == -pid-1 {
			return true
		}
	}
	return false
}

// ReplaysToViolation replays a witness schedule (Decisions encoding:
// entry pid steps pid, entry -pid-1 crashes it) through a session on a
// fresh program instance and reports whether it reproduces a violation:
// either the property rejects the trace, or — mirroring the explorers'
// leaf check under Options.ExpectTermination — the replayed run is
// maximal with a started process that neither terminated nor crashed.
// It is the independent re-verification step the fabric coordinator
// (and cfccheck -pordiff) runs on every witness that arrives over a wire
// before trusting it.
func ReplaysToViolation(build Builder, prop Property, opts Options, schedule []int) (bool, error) {
	mem, procs, err := build()
	if err != nil {
		return false, err
	}
	sess, err := sim.StartSession(sim.Config{Mem: mem, Procs: procs, MaxSteps: len(schedule) + 1})
	if err != nil {
		return false, err
	}
	defer sess.Close()
	if err := sess.Seek(schedule); err != nil {
		return false, fmt.Errorf("witness schedule does not replay: %w", err)
	}
	tr := sess.Trace()
	if prop(tr) != nil {
		return true, nil
	}
	if opts.ExpectTermination && sess.Finished() {
		if _, ok := unterminated(tr); ok {
			return true, nil
		}
	}
	return false, nil
}
