package opset

// This file is the independence oracle of the model checker's DPOR race
// analysis and sleep sets: a decision procedure for whether two pending
// atomic accesses commute. Two accesses are independent when executing
// them in either order from any memory state yields the same final
// memory AND the same value returned to each access. The model checker
// prunes interleavings that only reorder independent accesses
// (internal/check, Options.DPOR); the simulator is not involved —
// independence is a property of the operations and their footprints
// alone.
//
// The relation is exact for accesses on the same register view (a
// table over all operation pairs, computed at init time by brute force
// against Op.Apply, so the table cannot drift from the semantics) and
// footprint-based across views: accesses to different cells, or to
// non-overlapping bit fields of one packed word, always commute, because
// Memory.apply reads and writes only the view's masked bits. The only
// conservative answer is for partially overlapping, unequal views with a
// mutation involved, which the oracle calls dependent without chasing the
// overlap algebra.

// Acc describes one pending atomic access for the independence oracle:
// the operation, the underlying cell, the bit-field view within the cell
// (shift and width, exactly as sim.Event records them), and the written
// argument (used by write-word). The return value of the access is
// deliberately absent: independence must be decidable before either
// access has executed.
type Acc struct {
	Op    Op
	Cell  int32
	Shift uint8
	Width uint8
	Arg   uint64
}

// wordWidth is the cell width in bits (sim.MaxWidth, restated here to
// keep opset free of a sim dependency).
const wordWidth = 64

// Mask returns the access's footprint within its cell: the bits the
// operation may read or write, already shifted into cell position.
func (a Acc) Mask() uint64 {
	if a.Width >= wordWidth {
		return ^uint64(0)
	}
	return ((uint64(1) << a.Width) - 1) << a.Shift
}

// Independent reports whether the two accesses commute: from every
// memory state, both execution orders produce identical final memory and
// identical values returned to each access. It is true when the cells
// differ, when both operations are non-mutating, when the bit-field
// footprints within one packed word do not overlap, and — for the same
// view — when the operation pair commutes per the brute-forced table
// (write-word pairs additionally need equal arguments). Invalid
// operations are reported dependent.
func Independent(a, b Acc) bool {
	if !a.Op.Valid() || !b.Op.Valid() {
		return false
	}
	if a.Cell != b.Cell {
		return true
	}
	if a.Op == Skip || b.Op == Skip {
		return true
	}
	if !a.Op.Mutates() && !b.Op.Mutates() {
		return true
	}
	if a.Mask()&b.Mask() == 0 {
		return true
	}
	if a.Shift == b.Shift && a.Width == b.Width {
		return sameViewIndependent(a, b)
	}
	// Overlapping but unequal views with at least one mutation: a write
	// to a subfield does not commute with a wider read (or write) of the
	// containing field in general; call it dependent.
	return false
}

// sameViewIndependent decides independence for two accesses to the exact
// same register view (same cell, shift and width), with overlapping
// footprints and at least one mutating, skip already excluded.
func sameViewIndependent(a, b Acc) bool {
	if a.Width == 1 {
		// On a single-bit view the word operations degenerate to bit
		// operations; the brute-forced table is exact.
		return bitCommutes[normBitOp(a.Op, a.Arg)][normBitOp(b.Op, b.Arg)]
	}
	// Wider views admit only the word operations. read-word/read-word was
	// handled by the non-mutating rule, so one side writes.
	if a.Op == WriteWord && b.Op == WriteWord {
		return a.Arg == b.Arg // idempotent only when both write the same value
	}
	return false // write-word vs read-word: the read's value depends on the order
}

// normBitOp maps a word operation on a single-bit view to the bit
// operation it performs there: read-word is read, write-word is write-0
// or write-1 according to the argument. Bit operations pass through.
func normBitOp(o Op, arg uint64) Op {
	switch o {
	case ReadWord:
		return Read
	case WriteWord:
		if arg == 0 {
			return Write0
		}
		return Write1
	}
	return o
}

// bitCommutes[x][y] reports whether bit operations x and y commute on a
// shared bit. Filled at init by brute force over both orders and both
// initial values, so the table is proved against Op.Apply rather than
// hand-reasoned; indep_test.go re-proves it (and the word-operation
// cases) exhaustively.
var bitCommutes [TestAndFlip + 1][TestAndFlip + 1]bool

func init() {
	for x := Skip; x <= TestAndFlip; x++ {
		for y := Skip; y <= TestAndFlip; y++ {
			bitCommutes[x][y] = commutesOnBit(x, y)
		}
	}
}

// commutesOnBit reports whether, for every initial bit value, applying x
// then y yields the same final bit and the same per-operation returns as
// applying y then x.
func commutesOnBit(x, y Op) bool {
	for v := uint64(0); v <= 1; v++ {
		xv, xr, _ := x.Apply(v, 0)
		xyv, xyr, _ := y.Apply(xv, 0)
		yv, yr, _ := y.Apply(v, 0)
		yxv, yxr, _ := x.Apply(yv, 0)
		if xyv != yxv || xr != yxr || yr != xyr {
			return false
		}
	}
	return true
}
