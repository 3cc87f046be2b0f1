package check

import (
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// This file holds the independence relation and the sleep-set pieces the
// DPOR engine (dpor.go) builds on.
//
// # Independence
//
// Two pending steps of distinct processes are independent when swapping
// their order changes neither the resulting state nor any property's
// verdict on any extension:
//
//   - two shared-memory accesses are independent exactly when the opset
//     oracle proves they commute (different cells, disjoint bit-field
//     footprints of one packed word, or a commuting operation pair on
//     the same view — see opset.Independent);
//   - a Local step touches nothing and no property observes it: it is
//     independent of everything;
//   - Mark and Output steps are property-visible — the safety properties
//     observe their relative order (mutual exclusion compares
//     critical-section intervals, which are delimited by marks) — so two
//     visible steps are never independent, but a visible step is
//     independent of an access or Local step, which no property in this
//     repository observes.
//
// A property that inspects the global order of *accesses* (none of the
// metrics properties does) would break the last rule; Options.DPOR
// documents the contract.
//
// # Sleep sets
//
// Each node carries a sleep set: the set of processes whose pending step
// was already explored from an equivalent sibling subtree and is
// independent of every step on the path since, so re-exploring it here
// would only re-derive a permutation. A node's later branches put its
// earlier ones to sleep in their children (filtered by independence with
// the branch taken), and the visited set is keyed on (state, sleep) so
// that expansion decisions are a pure function of the node — which is
// what keeps the exploration independent of the order nodes are visited
// in, and lets the DPOR engine visit wave by wave.

// filterSleep keeps the processes of mask whose pending step is
// independent of the executed step po; dependent sleepers wake (their
// postponed step no longer commutes with the path), and po's own process
// leaves the set because its step is the one being taken.
func filterSleep(pend []sim.PendingOp, mask uint64, po sim.PendingOp) uint64 {
	out := mask &^ (1 << uint(po.PID))
	if out == 0 {
		return 0
	}
	for _, q := range pend {
		bit := uint64(1) << uint(q.PID)
		if out&bit != 0 && !pendingIndependent(po, q) {
			out &^= bit
		}
	}
	return out
}

// normalizeSleep computes the node's effective sleep set, the one both
// the visited key and the expansion use. Starting from the inherited
// mask (already restricted to live pids by the caller — a dead process
// has no pending step to skip and never revives, so its sleep bit would
// only split keys), it wakes every sleeping process whose sleep bit no
// longer buys a worthwhile pruning:
//
//   - visible pending steps (marks, outputs): dependent with every
//     other visible step, so their postponement rarely survives the
//     next edge anyway;
//   - steps dependent with another live process's pending step: the
//     conflict means the orderings are not equivalent and the sleeper
//     would be woken imminently;
//   - under spin collapse, steps that do not progress: the step folds
//     back into the same collapsed state, so skipping it saves almost
//     nothing.
//
// Waking a sleeper is always sound — it only re-explores a permutation
// an explored sibling already covers. The payoff is a canonical key:
// on conflict-heavy states (single-cell spin locks) the sleep component
// collapses toward zero, so one state no longer re-enters the visited
// set under many different sleep masks, which would otherwise inflate
// tas/ttas explorations past the unreduced reference. On
// independence-heavy states nothing wakes and the full reduction is
// kept. The result is a pure function of the state and the incoming
// sleep set, so keying and expanding on it keeps the exploration
// independent of visit order.
//
// Must be called with the session at the node, after stateHash for this
// node (the progresses check reads its hist/vals scratch).
func normalizeSleep(c *replayCore, collapse bool, pend []sim.PendingOp, sleep uint64) uint64 {
	out := sleep
	for i := range pend {
		bit := uint64(1) << uint(pend[i].PID)
		if out&bit == 0 {
			continue
		}
		if pend[i].Kind == sim.KindMark || pend[i].Kind == sim.KindOutput {
			out &^= bit
			continue
		}
		if collapse && !c.progresses(pend[i].PID, c.pendingEntry(pend[i])) {
			out &^= bit
			continue
		}
		for j := range pend {
			if j != i && !pendingIndependent(pend[i], pend[j]) {
				out &^= bit
				break
			}
		}
	}
	return out
}

// pidMask returns the bitmask of the live pids.
func pidMask(live []int) uint64 {
	var m uint64
	for _, p := range live {
		m |= 1 << uint(p)
	}
	return m
}

// pendingIndependent is the independence relation over pending steps of
// distinct processes; see the file comment for the case analysis.
func pendingIndependent(a, b sim.PendingOp) bool {
	if a.PID == b.PID {
		return false // program order: steps of one process never commute
	}
	aAcc, bAcc := a.Kind == sim.KindAccess, b.Kind == sim.KindAccess
	switch {
	case a.Kind == sim.KindLocal || b.Kind == sim.KindLocal:
		return true
	case aAcc && bAcc:
		return opset.Independent(a.Acc(), b.Acc())
	case aAcc || bAcc:
		return true // visible (mark/output) vs invisible access
	default:
		return false // two visible steps: the properties observe their order
	}
}

// progresses reports whether appending e to pid's spin-collapsed history
// strictly grows it — i.e. the step is not another iteration of a
// busy-wait period that collapseSpins would remove. It must be called
// after stateHash(collapse=true) for the current node, whose c.hist
// scratch holds the collapsed histories.
//
// Steps that do not progress are exactly the edges cycles in the
// collapsed state space are made of: without collapse every step
// strictly grows some observation history and states cannot recur, and
// around a collapsed cycle the net history growth is zero. A node that
// started only a non-progressing step could postpone every other
// process around such a cycle forever (the classical ignoring problem),
// which is why the DPOR engine never starts a node with one alone.
func (c *replayCore) progresses(pid int, e histEntry) bool {
	h := c.hist[pid]
	for p := 1; p <= maxSpinPeriod && 2*p <= len(h)+1; p++ {
		if tailRepeatsWith(h, e, p) {
			return false
		}
	}
	return true
}

// tailRepeatsWith is tailRepeats over the virtual history h followed by
// e: whether the last p entries of (h, e) equal the p entries before
// them.
func tailRepeatsWith(h []histEntry, e histEntry, p int) bool {
	n := len(h) + 1
	at := func(i int) histEntry {
		if i == n-1 {
			return e
		}
		return h[i]
	}
	for i := 0; i < p; i++ {
		if at(n-1-i) != at(n-1-p-i) {
			return false
		}
	}
	return true
}
