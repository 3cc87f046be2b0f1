// Package fabric is the distributed check fabric: a coordinator/worker
// layer that spreads a cfccheck portfolio — and, for large
// configurations, single DPOR explorations — across processes over a
// pluggable transport, with results bit-identical to the single-process
// run.
//
// # Topology
//
// One coordinator (Coordinate) owns the job list and all merged state;
// any number of workers (Work) connect, pull work and stream results
// back. Workers are stateless between messages — every job is a pure
// replay of a deterministic program — so a worker that disconnects
// mid-job costs nothing but the wasted cycles: the coordinator re-queues
// its outstanding work and any other worker (or the same one,
// reconnected) re-executes it with an identical outcome.
//
// Work travels at two granularities:
//
//   - Whole portfolio entries (JobSpec: workload name, process count,
//     check.Options). The worker runs check.Explore exactly as the
//     single-process cfccheck would and returns the Result. This is the
//     path for every job when sharding is off (Shards <= 1), and for
//     every non-DPOR job always.
//
//   - DPOR waves (Shards > 1, DPOR jobs). The wave-synchronised DPOR
//     engine splits along its BSP seam: a check.WaveMaster at the
//     coordinator owns the node tree, visited set and the serial commit
//     pass, and each wave's pure expansion tasks fan out to workers
//     (check.WaveProber) in contiguous chunks. Waves are barriers;
//     reports are reassembled into task order before commit, which
//     makes the result bit-identical at any worker count by induction
//     over waves. A chunk's tasks are siblings sharing long schedule
//     prefixes, so each prober's live session mostly extends instead of
//     replaying from the root; wave replies carry replayed/saved event
//     deltas, which cfccheck surfaces in FABRIC-SUMMARY as the locality
//     ratio (baseline events over replayed events, where the baseline is
//     what root-replay-per-task would have executed).
//
// # Guarantees
//
// At any worker and shard count, portfolio verdicts, States, Runs,
// Truncated and ReducedNodes equal the single-process run, and a
// violating entry reports the identical witness: whole-entry results
// are the deterministic check.Explore output, distributed waves commit
// through the same serial code as the in-process engine, and every
// violation is re-verified at the coordinator by serial replay
// (check.ReplaysToViolation) before it is reported.
//
// Failure handling is by re-execution, never by trust: a disconnected
// worker's jobs are re-queued; a malformed or oversized frame drops only
// the offending connection; a job exceeding the coordinator's job
// timeout is reported DEGRADED instead of wedging the run.
//
// # Wire format (protocol v3)
//
// Frames are 4-byte big-endian length prefixes followed by one JSON
// object (Msg), at most MaxFrame bytes. JSON keeps the frames
// inspectable and the uint64 sleep masks and keys exact (Go decodes
// integer literals into uint64 without a float round-trip). The
// Transport interface (Dial/Serve over an opaque address) carries the
// byte stream: TCP for real deployments, an in-process pipe
// (NewPipeTransport) for deterministic tests, leaving room for a
// durable queue later.
//
// The messages:
//
//   - hello (worker → coordinator) carries ProtoVersion; a mismatch is
//     rejected at handshake, so older workers never see v3 frames;
//
//   - job/result (and error) carry whole-entry jobs;
//
//   - shard-open/shard-close bracket one distributed DPOR job at each
//     worker;
//
//   - wave/waved carry a chunk of wave tasks, delta-encoded (WireNode:
//     each task ships the length of the schedule prefix it shares with
//     the chunk's first task plus its own tail), and the chunk's
//     task-ordered reports with replayed/saved event deltas;
//
//   - bye ends the session.
//
// Protocol v3 removed v2's frontier-probe frames (probe/probed).
package fabric
