package check

import (
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// This file is the symmetry-reduction layer of the DPOR explorer: when
// the program's Memory declares a pid-symmetry group (see
// sim/symmetry.go), the visited-set key of a node is the minimum, over
// every pid permutation, of the state digest with the permutation
// applied — so all states in one symmetry orbit collapse to a single
// canonical key, and only one representative's subtree is expanded.
//
// Soundness rests on the declared claim: permuting pids of a reachable
// state yields a state whose futures are the permuted futures, so a
// property that is itself pid-symmetric (all the metrics properties:
// mutual exclusion, unique outputs and detection quantify over
// processes, never naming one) holds of every orbit member iff it holds
// of the representative. A violation found under symmetry is real
// as-is: symmetry only prunes the visited set, it never alters the
// schedules actually executed, so every reported witness replays.
//
// The permuted digest is computed directly from the hashing scratch the
// preceding stateHash call filled (c.vals, c.hist): cell values are
// remapped through SymSpec.RemapCells, per-pid histories are read in
// permuted slot order with each recorded access relocated/rewritten
// through its ViewDesc, and the (live-normalised) sleep mask is
// permuted alongside. By construction the identity permutation's digest
// equals mix64(stateHash, sleep) — the key the unsymmetrised explorer
// would use — which the symmetry unit tests pin.
//
// An access through a view the spec cannot remap (ViewDesc.Opaque, e.g.
// a partial read of a pid-valued field) makes the whole state fall back
// to its identity digest. The fallback is a pure function of the state,
// so determinism is preserved; it merely forgoes collapsing that orbit.

// maxSymProcs bounds the process count symmetry reduction enumerates
// permutations for: beyond this, n! dominates any conceivable saving
// and the reduction silently stays off.
const maxSymProcs = 6

// symCanon is the read-only, worker-shared symmetry context of one
// exploration: the declared spec plus the full permutation group.
type symCanon struct {
	spec  *sim.SymSpec
	perms [][]int // perms[0] is the identity
	invs  [][]int // invs[k] is the inverse of perms[k]
}

// newSymCanon builds the symmetry context, or returns nil when the
// reduction does not apply: not requested, nothing declared, the
// declared process count does not match the program's, or the group is
// too large to enumerate.
func newSymCanon(mem *sim.Memory, nprocs int) *symCanon {
	spec := mem.Symmetry()
	if spec == nil || spec.NumPids() != nprocs || nprocs < 2 || nprocs > maxSymProcs {
		return nil
	}
	perms := permutations(nprocs)
	invs := make([][]int, len(perms))
	for k, p := range perms {
		inv := make([]int, nprocs)
		for i, v := range p {
			inv[v] = i
		}
		invs[k] = inv
	}
	return &symCanon{spec: spec, perms: perms, invs: invs}
}

// permutations enumerates all permutations of 0..n-1 in lexicographic
// order, identity first.
func permutations(n int) [][]int {
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := k; i < n; i++ {
			cur[k], cur[i] = cur[i], cur[k]
			rec(k + 1)
			cur[k], cur[i] = cur[i], cur[k]
		}
	}
	rec(0)
	// The swap enumeration is not lexicographic beyond the first entry,
	// but perms[0] is the identity, which is all callers rely on.
	return out
}

// remapPidMask permutes a pid bitmask: bit p of mask becomes bit
// perm[p].
func remapPidMask(mask uint64, perm []int) uint64 {
	var out uint64
	for p, q := range perm {
		if mask&(1<<uint(p)) != 0 {
			out |= 1 << uint(q)
		}
	}
	return out
}

// symDesc resolves (and caches, per core — the cache is goroutine-
// confined scratch) the permutation behaviour of a register view.
func (c *replayCore) symDesc(spec *sim.SymSpec, cell int32, shift, width uint8) sim.ViewDesc {
	key := uint32(cell)<<16 | uint32(shift)<<8 | uint32(width)
	if d, ok := c.symDescs[key]; ok {
		return d
	}
	if c.symDescs == nil {
		c.symDescs = make(map[uint32]sim.ViewDesc)
	}
	d := spec.ResolveView(cell, shift, width)
	c.symDescs[key] = d
	return d
}

// symDigest computes the state digest under one pid permutation, from
// the hashing scratch of the preceding stateHash call, mixing the
// permuted sleep mask in last. ok is false when some recorded access
// goes through a view the spec cannot remap, or observed a value that
// cannot be proven post-write (see RemapValueChecked).
func (c *replayCore) symDigest(sy *symCanon, k int, sleep uint64) (uint64, bool) {
	perm, inv := sy.perms[k], sy.invs[k]
	h := uint64(hashSeed)
	c.symVals = sy.spec.RemapCells(c.symVals, c.vals, c.wmask, perm)
	for _, v := range c.symVals {
		h = mix64(h, v)
	}
	if cap(c.symOwnW) < len(c.vals) {
		c.symOwnW = make([]uint64, len(c.vals))
	}
	for q := range c.hist {
		hh := c.hist[inv[q]] // slot q of the permuted run is old pid inv[q]
		h = mix64(h, uint64(len(hh))<<32|0xabcd)
		c.symOwnW = c.symOwnW[:len(c.vals)]
		clear(c.symOwnW)
		for _, en := range hh {
			ren, ok := c.remapHistEntry(sy.spec, perm, en)
			if !ok {
				return 0, false
			}
			h = mix64(h, uint64(ren.kind)|uint64(ren.op)<<8|uint64(ren.shift)<<16|uint64(ren.width)<<24|uint64(uint32(ren.cell))<<32)
			h = mix64(h, ren.ret)
			h = mix64(h, ren.aux)
		}
	}
	return mix64(h, remapPidMask(sleep, perm)), true
}

// remapHistEntry rewrites one observation-history entry under perm:
// access entries relocate/rewrite through their view descriptor; marks,
// outputs and crashes are pid-neutral and pass through. Three
// value-bearing channels are remapped: the returned value (gated on the
// process's own prior writes, accumulated in c.symOwnW, because a
// pre-write read observes the initial value, which does not permute),
// the written word argument, and — for the eight single-bit operations,
// whose written value lives in the OPCODE — the operation itself, which
// maps to its dual exactly when the permutation flips the bit's value
// sense (the paper's 0 <-> 1 relabelling).
func (c *replayCore) remapHistEntry(spec *sim.SymSpec, perm []int, en histEntry) (histEntry, bool) {
	if en.kind != uint8(sim.KindAccess) {
		return en, true
	}
	d := c.symDesc(spec, en.cell, en.shift, en.width)
	if d.Opaque() {
		return histEntry{}, false
	}
	op := opset.Op(en.op)
	if op.ReturnsValue() {
		var ok bool
		en.ret, ok = spec.RemapValueChecked(d, en.shift, en.ret, c.symOwnW[en.cell], perm)
		if !ok {
			return histEntry{}, false
		}
	}
	if op == opset.WriteWord {
		en.aux = spec.RemapValue(d, en.shift, en.aux, perm)
	}
	if op.IsBitOp() && spec.RemapValue(d, en.shift, 1, perm) != 1 {
		en.op = uint8(op.Dual())
	}
	if op.Mutates() {
		c.symOwnW[en.cell] |= viewMask(en.shift, en.width)
	}
	en.cell, en.shift = spec.RemapLoc(d, en.cell, en.shift, perm)
	return en, true
}

// canonicalKey is the node's visited-set key: with symmetry, the
// minimum digest over the permutation group; without (sy == nil, or an
// unmappable view), the identity digest mix64(base, sleep).
func (c *replayCore) canonicalKey(sy *symCanon, base, sleep uint64) uint64 {
	best := mix64(base, sleep) // == symDigest(identity): stateHash mixes vals then hists in the same order
	if sy == nil {
		return best
	}
	for k := 1; k < len(sy.perms); k++ {
		d, ok := c.symDigest(sy, k, sleep)
		if !ok {
			return mix64(base, sleep)
		}
		if d < best {
			best = d
		}
	}
	return best
}
