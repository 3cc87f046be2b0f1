// Package check is an exhaustive explorer for small configurations: it
// enumerates every interleaving of a deterministic program (optionally
// with crash injection) up to a depth bound, prunes equivalent states, and
// verifies safety properties on every reachable state.
//
// # State model
//
// Processes in the simulator are deterministic functions of the values
// their shared-memory operations return, so a global state is fully
// described by the shared cell values plus each process's observation
// history; the explorer replays schedules (the simulator is cheap) and
// hashes that description to prune: two schedule prefixes with equal
// digests lead to identical futures, so only the first arrival's subtree
// is expanded. Options.CollapseSpins additionally canonicalises busy-wait
// tails, which makes the state space of deadlock-free spin algorithms
// finite.
//
// # Replay engine
//
// Replays run on the simulator's direct engine through a sim.Session with
// one reuse arena, so a replay costs no goroutines, no channels and no
// per-replay trace allocations. The session's checkpointed decision stack
// (sim.Session.Seek) is the core of the exploration's economics: in
// depth-first order the next node's schedule almost always has the
// session's current stack as a prefix, and Seek then extends the live run
// by a single decision instead of replaying the prefix; only sibling
// switches rebuild from the root, paying exactly the schedule length.
//
// # Engines
//
// There are two. The reference engine (Options.DPOR unset) is the
// unreduced exploration: at every unvisited state it branches on every
// live process's step and, with crash injection, every crash. It is the
// oracle the reduction is diffed against — cfccheck -dpor=false, or zero
// Options at the library level.
//
// Options.DPOR selects source-DPOR with sleep sets (dpor.go, sleep.go):
// every node starts with a single step branch, and when an executed
// schedule exhibits a conflict — two dependent steps by different
// processes, judged by the opset independence oracle under a
// vector-clock happens-before — a backtrack point is registered at the
// earliest node that could have reordered it (the initials of the
// reordered suffix, the source-set refinement). The independence
// relation comes from three sources: the opset oracle proves when two
// accesses commute (different cells, disjoint bit-field footprints of
// one packed word, or a commuting operation pair — a table brute-forced
// against Op.Apply), Local steps commute with everything, and
// phase-mark/output steps are property-visible — the safety properties
// observe their relative order — so two visible steps never commute.
// Sleep sets remove the remaining permutational duplicates; crash
// branches are never pruned. Because accesses to different cells always
// commute, the race analysis indexes the path by dependence class — each
// cell's accesses, and the visible steps — and tests a step only against
// its own class.
//
// Reduced state counts are NOT comparable to reference counts: the
// reduced exploration skips the interior states of commuting diamonds
// and counts (state, sleep set) expansions, so States and Runs shrink —
// that is the point — while verdicts must not change. Any violation
// found under DPOR replays to a real one; cfccheck -pordiff re-checks
// the whole portfolio — reference versus DPOR, agreeing verdicts,
// replaying witnesses — in CI on every push, and the differential fuzz
// harness (fuzz_test.go) holds DPOR to two-sided verdict agreement with
// the reference on adversarial random programs.
// The stateful part — pruning revisited states — is an approximation
// (see the compensation caveat in dpor.go) that misses some one-line
// mutants of spin-loop algorithms; mutant_test.go pins that the
// reference engine kills them.
//
// Options.Symmetry canonicalises the DPOR visited key under the
// program's declared pid-permutation group (symmetry.go,
// sim/symmetry.go): one representative per orbit is expanded, which
// compounds with the dynamic reduction to make exhaustive n = 4 proofs
// of the declaring portfolio entries routine. Declaration carries a
// soundness obligation — uniform bodies up to the declared pid
// encodings; algorithms that scan registers in fixed index order
// (lamport-fast, lamport-packed) fall under the scalarset restriction
// and must not declare.
//
// # Exploration paths
//
// The reference engine is a recursive depth-first search on the calling
// goroutine, with the sibling peek (check.go) skipping replays of
// already-visited children. The DPOR engine is wave-synchronised: each
// tree level is expanded by a pass of pure per-node work, then a serial
// commit pass makes every order-sensitive decision (visited arbitration,
// counters, backtrack joins, violation selection) in deterministic task
// order. The calling goroutine runs the expansion pass itself, so a
// one-worker exploration starts no goroutine per level;
// Options.Workers > 1 adds Workers-1 goroutines pulling from the same
// task index, each with a private program instance and live session;
// results — including truncated ones and counterexamples — are
// bit-identical at any Workers count by construction. The same split
// lets the fabric (internal/fabric) run the expansion pass in other
// processes (wave.go).
package check
