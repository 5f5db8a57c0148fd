#!/usr/bin/env sh
# Serve-mode perf check for the lane-leased execution path.
#
# Records two fresh serve_bench baselines over an identical seeded
# workload of heavy queries (PR + SSSP at scale 12, cache disabled so
# every request re-executes):
#
#   serial.jsonl    --width 1:1.0  — every request runs single-lane
#                   under a width-1 LaneLease
#   parallel.jsonl  --width 8:1.0  — every request asks for 8 lanes;
#                   LaneLease grants are best-effort, clamped to the
#                   pool, so this is the multi-lane path in production
#                   trim on multi-core hosts and a clamp-to-1 no-op on
#                   single-core hosts
#
# perf_gate then compares parallel against serial.  The gate must PASS
# (zero regressed cells): turning on multi-lane serving is never
# allowed to cost width-1-equivalent traffic anything.  On hosts with
# enough cores for real fan-out (pool >= 4 lanes) the check further
# requires at least one significantly *improved* cell — the large-query
# latency win multi-lane execution exists to deliver.  Single-core
# hosts (like the CI container) cannot express that speedup, so there
# the improvement assertion is skipped and reported as such; see
# DESIGN.md section 13.
#
# Baselines do not transfer across machines, so there is no committed
# pair: both sides are always recorded fresh here, on the same host.
#
#   tools/serve_perf_check.sh            # from the repo root
#   BUILD_DIR=ci tools/serve_perf_check.sh
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="$BUILD_DIR/ci-serve-perf"
rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"

# Runs "$@" with its stdout in log file $1, prints the log, and returns
# the command's own status (piped into tee, a failure would read as
# tee's success).
logged()
{
    log="$1"
    shift
    status=0
    "$@" > "$log" || status=$?
    cat "$log"
    return "$status"
}

BENCH_ARGS="--scale 12 --requests 240 --distinct 12 --workers 2 \
    --clients 4 --seed 7 --cache-mb 0 --kernels PR,SSSP"

echo "== serve perf: record width-1 (single-lane) baseline =="
# shellcheck disable=SC2086  # BENCH_ARGS is a flat flag list
logged "$OUT_DIR/serial.log" "$BUILD_DIR/tools/serve_bench" $BENCH_ARGS \
    --width 1:1.0 --baseline-out "$OUT_DIR/serial.jsonl"

echo "== serve perf: record width-8 (lane-leased) baseline =="
# shellcheck disable=SC2086
logged "$OUT_DIR/parallel.log" "$BUILD_DIR/tools/serve_bench" $BENCH_ARGS \
    --width 8:1.0 --baseline-out "$OUT_DIR/parallel.jsonl"

echo "== serve perf: gate parallel vs serial (no regression allowed) =="
logged "$OUT_DIR/gate.log" "$BUILD_DIR/tools/perf_gate" \
    --ref "$OUT_DIR/serial.jsonl" --cand "$OUT_DIR/parallel.jsonl" \
    --report-out "$OUT_DIR/report.jsonl"

CORES="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)"
if [ "$CORES" -ge 4 ]; then
    echo "== serve perf: $CORES cores — requiring a significant win =="
    if ! grep -q '"verdict":"improved"' "$OUT_DIR/report.jsonl"; then
        echo "multi-lane execution produced no significant improvement" \
            "on a $CORES-core host" >&2
        exit 1
    fi
else
    echo "== serve perf: $CORES core(s) — lane grants clamp to 1," \
        "improvement assertion skipped (see DESIGN.md section 13) =="
fi
echo "serve perf check: PASS"
