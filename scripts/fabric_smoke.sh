#!/usr/bin/env bash
# fabric_smoke.sh — end-to-end equality gate for the distributed check
# fabric over real loopback TCP: a coordinator plus two worker processes
# must produce byte-identical portfolio output to a single-process run.
#
# Three passes:
#   1. whole jobs          — the default n=2 portfolio (DPOR engines and
#      all), fanned out one portfolio entry per job;
#   2. reference, sharded  — the reference portfolio (-dpor=false) with
#      -shards 2: only DPOR jobs split, so every job still travels whole;
#   3. wave sharding       — the full portfolio with -shards 2, putting
#      the DPOR entries on the distributed wave path (pure expansion at
#      the workers, serial commit at the coordinator).
#
# In every pass the comparison strips only the FABRIC-SUMMARY line (it
# carries wall-clock and worker counts that have no single-process
# analogue); every verdict row, state/run count and witness schedule must
# match exactly. Any diff fails the script (set -e).
#
# Usage: scripts/fabric_smoke.sh [port]     # default 34517
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-34517}"
ADDR="127.0.0.1:${PORT}"
BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"; kill $(jobs -p) 2>/dev/null || true' EXIT

go build -o "$BIN/cfccheck" ./cmd/cfccheck

run_pass() { # run_pass <label> <extra flags...>
    local label="$1"; shift
    echo "== fabric smoke: $label =="

    "$BIN/cfccheck" -n 2 "$@" > "$BIN/single.txt"

    "$BIN/cfccheck" -n 2 "$@" -serve "$ADDR" > "$BIN/fabric.txt" &
    local coord=$!
    # Workers retry the dial for 5s, so racing the coordinator's bind is
    # fine; they exit cleanly when the coordinator says bye.
    "$BIN/cfccheck" -join "$ADDR" &
    local w1=$!
    "$BIN/cfccheck" -join "$ADDR" &
    local w2=$!
    wait "$coord"
    wait "$w1" "$w2"

    if ! diff <(grep -v '^FABRIC-SUMMARY' "$BIN/fabric.txt") "$BIN/single.txt"; then
        echo "FAIL: $label: coordinator+2-worker output differs from single-process run" >&2
        exit 1
    fi
    grep '^FABRIC-SUMMARY' "$BIN/fabric.txt"
    echo "OK: $label output identical to single-process run"
}

# Pass 1: whole portfolio entries as jobs (includes the DPOR engines).
run_pass "whole jobs, 2 workers"

# Pass 2: the reference engine with sharding on. Only DPOR jobs split
# into waves, so these jobs must travel whole and still match the single
# process.
run_pass "reference portfolio (-dpor=false -shards 2), 2 workers" -dpor=false -shards 2

# Pass 3: wave sharding. The full portfolio (DPOR engines included) with
# -shards 2 routes DPOR jobs through the distributed wave engine; the
# byte-diff above proves the BSP split is invisible in the output, and a
# sanity grep asserts wave tasks actually crossed the wire.
run_pass "wave sharding (-shards 2, DPOR included), 2 workers" -shards 2
WAVES="$(grep -o 'wave_tasks=[0-9]*' "$BIN/fabric.txt" | cut -d= -f2)"
if [[ -z "$WAVES" || "$WAVES" -eq 0 ]]; then
    echo "FAIL: wave pass reported wave_tasks=$WAVES — DPOR wave distribution never engaged" >&2
    exit 1
fi
echo "fabric smoke passed (wave pass: $WAVES wave tasks)"
