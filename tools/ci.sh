#!/usr/bin/env sh
# CI entry point: a check that every baseline perf/baselines/README.md
# names is tracked in git, tier-1 verification with warnings as errors
# (the build must stay warnings-clean), an AddressSanitizer pass over
# the graph-store and GraphBLAS tests (the code most exposed to the
# zero-copy view lifetimes introduced by the GraphStore refactor), a
# ThreadSanitizer pass over the tracing, thread-pool, and serve tests
# (the code with cross-thread counter/span/queue traffic), a
# profile-pipeline smoke run that fails on unparseable Chrome trace JSON,
# a perf-gate smoke that records a baseline, self-compares it (must
# pass), then re-runs with a fault-injected slowdown on one cell (must
# fail), a determinism tier that fingerprints every framework x kernel
# x graph cell at GM_THREADS=1 and GM_THREADS=8 and fails on any byte
# difference (the contract DESIGN.md section 13 pins), a serve smoke
# that drives the query service closed-loop (cache warm-up) with a
# mixed-width request population (lane-leased parallel execution),
# open-loop under injected overload (deadline misses + shedding), and
# through tools/serve_perf_check.sh (width-8 vs width-1 baselines must
# show zero perf_gate regressions), one chaos storm: serve_bench --chaos
# under a pinned fault storm with a 10% write mix (Server::mutate
# batches between queries) and a 20% query-plan mix (multi-kernel DAGs
# through Server::submit_plan), gating storm availability >= 99%, full
# circuit-breaker open/half-open/closed cycles, mid-storm gmtop scrapes
# of the --metrics-port endpoint (format, plan-counter coherence,
# counter monotonicity, a monotone gm_dyn_generation gauge), an SLO burn
# monitor that fires in the storm and clears by the settle phase, a
# scraped lifetime availability that agrees with the post-hoc SLO
# JSONL, and profile_report's consumption of the breaker, SLO,
# serve.mutation and serve.plan records; then the serve benches: the
# disabled-telemetry probe budget (bench/telemetry_overhead), the >=5x
# incremental-maintenance win (bench/dyn_maintenance), and the >=4x
# multi-source fusion win (bench/plan_batch, perf_gated against the
# committed perf/baselines/plan_batch.jsonl); and the benchmark's own
# tests (perfbench/test_perfbench.py: both workloads at toy size, every
# metric printed, a corrupted answer caught).
#
#   tools/ci.sh              # from the repo root
#   BUILD_DIR=ci tools/ci.sh # custom build directory prefix
#
# Exits non-zero on the first failing step.
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Runs "$@" with its stdout in log file $1, prints the log, and returns
# the command's own status.  Gates never pipe into tee or tail: under
# set -e a pipeline's status is its last command's, so a failing gate
# would pass.
logged()
{
    log="$1"
    shift
    status=0
    "$@" > "$log" || status=$?
    cat "$log"
    return "$status"
}

echo "== tier 0: every baseline perf/baselines/README.md names is in git =="
for baseline in $(grep -o '`[A-Za-z0-9_.-]*\.jsonl`' perf/baselines/README.md \
    | tr -d '`' | sort -u); do
    if ! git ls-files --error-unmatch "perf/baselines/$baseline" \
        > /dev/null 2>&1; then
        echo "perf/baselines/README.md names $baseline," \
            "which git does not track" >&2
        exit 1
    fi
done

echo "== tier 1: configure (warnings are errors) + build + full test suite =="
cmake -B "$BUILD_DIR" -S . -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== tier 2: AddressSanitizer build of the store/view tests =="
ASAN_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_DIR" -S . -DGM_SANITIZE=address
cmake --build "$ASAN_DIR" -j "$JOBS" \
    --target store_test grb_test grb_ops_edge_test converter_test
"$ASAN_DIR/tests/store_test"
"$ASAN_DIR/tests/grb_test"
"$ASAN_DIR/tests/grb_ops_edge_test"
"$ASAN_DIR/tests/converter_test"

echo "== tier 3: ThreadSanitizer build of the obs/par/serve/plan tests and the shared kernels =="
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . -DGM_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$JOBS" \
    --target obs_test par_test par_stress_test serve_test \
    serve_resilience_test telemetry_test plan_test shared_kernels_test
"$TSAN_DIR/tests/obs_test"
"$TSAN_DIR/tests/par_test"
"$TSAN_DIR/tests/par_stress_test"
"$TSAN_DIR/tests/serve_test"
"$TSAN_DIR/tests/serve_resilience_test"
"$TSAN_DIR/tests/telemetry_test"
"$TSAN_DIR/tests/plan_test"
"$TSAN_DIR/tests/shared_kernels_test"

echo "== tier 4: profile pipeline smoke (suite --trace-out + validation) =="
SMOKE_DIR="$BUILD_DIR/ci-profile-smoke"
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"
"$BUILD_DIR/tools/suite" --scale 6 --trials 1 \
    --trace-out "$SMOKE_DIR/traces" \
    --metrics-out "$SMOKE_DIR/metrics.jsonl" \
    --csv-prefix "$SMOKE_DIR/results" > "$SMOKE_DIR/suite.log"
# Fails (exit 1) on any trace file that does not parse as JSON, and
# (exit 2) when the sweep produced no trace files at all.
"$BUILD_DIR/tools/profile_report" --check-trace "$SMOKE_DIR/traces"
"$BUILD_DIR/tools/profile_report" --metrics "$SMOKE_DIR/metrics.jsonl" \
    --csv "$SMOKE_DIR/workload.csv" > /dev/null
test -s "$SMOKE_DIR/workload.csv"

echo "== tier 5: perf-gate smoke (record, self-compare, injected regression) =="
GATE_DIR="$BUILD_DIR/ci-perf-gate"
rm -rf "$GATE_DIR"
mkdir -p "$GATE_DIR"
# 5 trials: with fewer than 4 per side Mann-Whitney cannot reach
# p < 0.05, so the gate could never flag anything (see gm/perf/gate.hh).
"$BUILD_DIR/tools/suite" --scale 6 --trials 5 --warmup 1 \
    --baseline-out "$GATE_DIR/ref.jsonl" \
    --csv-prefix "$GATE_DIR/ref" > "$GATE_DIR/ref.log"
# Self-comparison: identical trial vectors, zero regressions, exit 0.
"$BUILD_DIR/tools/perf_gate" --ref "$GATE_DIR/ref.jsonl" \
    --cand "$GATE_DIR/ref.jsonl" \
    --report-out "$GATE_DIR/self.report.jsonl"
# Inject a 150 ms sleep inside the timed region of one cell and re-run:
# the gate must spot the manufactured regression and exit non-zero.
GM_FAULTS="trial.timed.GAP.BFS.Kron:1:7:delay=150" \
    "$BUILD_DIR/tools/suite" --scale 6 --trials 5 --warmup 1 \
    --baseline-out "$GATE_DIR/slow.jsonl" \
    --csv-prefix "$GATE_DIR/slow" > "$GATE_DIR/slow.log"
if "$BUILD_DIR/tools/perf_gate" --ref "$GATE_DIR/ref.jsonl" \
    --cand "$GATE_DIR/slow.jsonl" \
    --report-out "$GATE_DIR/slow.report.jsonl" > "$GATE_DIR/gate.log"; then
    echo "perf_gate missed an injected 150 ms regression" >&2
    cat "$GATE_DIR/gate.log" >&2
    exit 1
fi
grep -q '"verdict":"regressed"' "$GATE_DIR/slow.report.jsonl"

echo "== tier 6: determinism (fingerprints at GM_THREADS=1 vs 8) =="
DET_DIR="$BUILD_DIR/ci-determinism"
rm -rf "$DET_DIR"
mkdir -p "$DET_DIR"
# Every framework x kernel x graph cell must produce a bit-identical
# result payload at any thread count; detcheck prints one FNV-1a
# fingerprint per cell, so any scheduling-dependent result shows up as
# a CSV diff.  This is the end-to-end gate on the deterministic
# parallel substrate (ordered reductions, min-combine claims, fixed
# RNG chunk grids in the generators).  --dyn appends fingerprints for
# the scripted gm::dyn mutation workload: post-compaction CSR
# generations plus the incrementally maintained CC/BFS/SSSP/PR results
# must also be bit-identical across thread counts.  --plan appends one
# folded fingerprint per scripted query plan (a 70-source fused BFS
# batch with aggregations, and a mixed CC/PR/SSSP DAG with a
# per-component reduce) executed through Server::run_plan at width 8,
# pinning the plan executor's concurrent DAG scheduling to the same
# bit-identical contract.
GM_THREADS=1 "$BUILD_DIR/tools/detcheck" --scale 6 --dyn --plan \
    > "$DET_DIR/det1.csv"
GM_THREADS=8 "$BUILD_DIR/tools/detcheck" --scale 6 --dyn --plan \
    > "$DET_DIR/det8.csv"
if ! diff "$DET_DIR/det1.csv" "$DET_DIR/det8.csv"; then
    echo "kernel results differ between GM_THREADS=1 and GM_THREADS=8" >&2
    exit 1
fi

echo "== tier 7: serve smoke (closed-loop mixed load, open-loop overload) =="
SERVE_DIR="$BUILD_DIR/ci-serve-smoke"
rm -rf "$SERVE_DIR"
mkdir -p "$SERVE_DIR"
# Closed loop: a mixed seeded workload must complete with zero failures
# and a warm cache (hits > 0 is guaranteed: 200 draws from 32 queries).
# The width distribution exercises the lane-budget scheduler: 70% of
# requests run width-1, 30% ask for 4 lanes, and every answer must
# still be served (identical payloads regardless of width).
logged "$SERVE_DIR/closed.log" \
    "$BUILD_DIR/tools/serve_bench" --scale 6 --requests 200 --distinct 32 \
    --workers 4 --clients 8 --seed 42 --width 1:0.7,4:0.3 \
    --csv "$SERVE_DIR/closed.csv" \
    --baseline-out "$SERVE_DIR/closed.jsonl" \
    --metrics-out "$SERVE_DIR/closed_metrics.jsonl"
grep -q "failed=0" "$SERVE_DIR/closed.log"
grep -q "mean lanes/request" "$SERVE_DIR/closed.log"
if grep -q "cache:       0 hits" "$SERVE_DIR/closed.log"; then
    echo "serve_bench closed loop produced no cache hits" >&2
    exit 1
fi
test -s "$SERVE_DIR/closed.csv"
test -s "$SERVE_DIR/closed.jsonl"
# Open-loop overload: a 40 ms injected delay in serve.execute against a
# 2-worker / 4-slot server at 400 req/s must exercise both protective
# paths — deadline misses and queue shedding — and still exit 0.
logged "$SERVE_DIR/open.log" env GM_FAULTS="serve.execute:1:9:delay=40" \
    "$BUILD_DIR/tools/serve_bench" --scale 6 --requests 60 --distinct 60 \
    --workers 2 --queue 4 --open-loop --rate 400 --deadline-ms 100 \
    --cache-mb 0 --seed 42
if grep -q "deadline_exceeded=0 " "$SERVE_DIR/open.log"; then
    echo "serve_bench overload exercised no deadline misses" >&2
    exit 1
fi
if grep -q " shed=0 " "$SERVE_DIR/open.log"; then
    echo "serve_bench overload shed nothing" >&2
    exit 1
fi
grep -q "failed=0" "$SERVE_DIR/open.log"
# Lane-leased execution must never cost width-1-equivalent traffic:
# records fresh width-1 vs width-8 baselines over the same seeded heavy
# workload and perf_gates them (and, on >=4-core hosts, requires a
# significant large-query improvement).
BUILD_DIR="$BUILD_DIR" tools/serve_perf_check.sh

echo "== tier 8: chaos storm (faults + write mix + plan mix, availability SLO) =="
CHAOS_DIR="$BUILD_DIR/ci-chaos-smoke"
rm -rf "$CHAOS_DIR"
mkdir -p "$CHAOS_DIR"
# One pinned storm — 20% serve.execute errors, 30% cache-insert drops,
# and injected admission delays — against an allow_stale mixed-priority
# workload with a 10 ms cache TTL, a 10% write mix (seeded mutation
# batches land between queries: Server::mutate quiesces the lane budget,
# applies the overlay delta, maintains CC/PR, compacts a fresh CSR
# generation, and lets generation-tagged cache entries go stale) and a
# 20% query-plan mix (seeded multi-kernel DAGs — fused BFS batches,
# histogram / top-k aggregations, per-component reduces — through
# Server::submit_plan).  The run must (a) keep storm-phase availability
# at or above 99% even while the graph mutates under faults, with plan
# failures counting against the SLO (degraded answers count as
# available; serve_bench exits 4 below the floor, 3 on any plan
# failure), (b) exercise the circuit breakers through full open ->
# half-open -> closed cycles, and (c) leave breaker transitions,
# serve.mutation and serve.plan records in the metrics JSONL that
# profile_report tabulates without warnings.  The bench runs in the
# background with a live metrics endpoint (--metrics-port 0) so gmtop
# can scrape it mid-storm: the structural format check plus the
# plan-accounting coherence invariants (completed/failed within
# submitted, node outcomes within nodes_total, bounded inflight gauge),
# two scrapes ~0.3 s apart that must pass the counter-monotonicity
# check, and two samples of the gm_dyn_generation gauge ~0.4 s apart,
# proving the endpoint answers while the server is under fault load,
# not just at the edges.
"$BUILD_DIR/tools/serve_bench" --chaos --scale 8 --kernels BFS,CC,PR \
    --distinct 6 --requests 800 --clients 4 --workers 2 \
    --cache-ttl-ms 10 --think-ms 2 --seed 42 --write-mix 0.1 \
    --plan-mix 0.2 \
    --chaos-faults "serve.execute:0.2:9,serve.cache.insert:0.3:13,serve.admission:0.02:11:delay=5" \
    --min-availability 0.99 \
    --metrics-port 0 \
    --telemetry-out "$CHAOS_DIR/telemetry.jsonl" \
    --telemetry-flush-ms 100 \
    --slo-out "$CHAOS_DIR/slo.jsonl" \
    --metrics-out "$CHAOS_DIR/chaos_metrics.jsonl" \
    > "$CHAOS_DIR/chaos.log" 2>&1 &
CHAOS_PID=$!
# The port line is flushed as soon as the listener binds; poll for it.
METRICS_PORT=""
for _ in $(seq 1 100); do
    METRICS_PORT="$(sed -n \
        's/^metrics exposition on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
        "$CHAOS_DIR/chaos.log")"
    [ -n "$METRICS_PORT" ] && break
    sleep 0.05
done
if [ -z "$METRICS_PORT" ]; then
    echo "serve_bench never announced a metrics port" >&2
    wait "$CHAOS_PID" || true
    cat "$CHAOS_DIR/chaos.log" >&2
    exit 1
fi
logged "$CHAOS_DIR/check.log" \
    "$BUILD_DIR/tools/gmtop" --port "$METRICS_PORT" --check
"$BUILD_DIR/tools/gmtop" --port "$METRICS_PORT" --raw \
    > "$CHAOS_DIR/scrape1.txt"
sleep 0.3
# Second scrape: counters must only have grown since the first.
"$BUILD_DIR/tools/gmtop" --port "$METRICS_PORT" \
    --monotone-against "$CHAOS_DIR/scrape1.txt"
SCRAPED_AVAIL="$("$BUILD_DIR/tools/gmtop" --port "$METRICS_PORT" \
    --get gm_slo_availability_lifetime)"
# Two scrapes of the generation gauge ~0.4 s apart: a compaction can
# only ever advance it, so the second sample must not be smaller.
GEN1="$("$BUILD_DIR/tools/gmtop" --port "$METRICS_PORT" \
    --get gm_dyn_generation)"
sleep 0.4
GEN2="$("$BUILD_DIR/tools/gmtop" --port "$METRICS_PORT" \
    --get gm_dyn_generation)"
awk -v a="$GEN1" -v b="$GEN2" 'BEGIN {
    if (b + 0 < a + 0) {
        printf "gm_dyn_generation went backwards: %s -> %s\n",
               a, b > "/dev/stderr";
        exit 1;
    }
}'
if ! wait "$CHAOS_PID"; then
    echo "serve_bench chaos run failed" >&2
    cat "$CHAOS_DIR/chaos.log" >&2
    exit 1
fi
cat "$CHAOS_DIR/chaos.log"
grep -q "failed=0" "$CHAOS_DIR/chaos.log"
if grep -q "breaker_transitions=0 " "$CHAOS_DIR/chaos.log"; then
    echo "chaos storm opened no circuit breakers" >&2
    exit 1
fi
grep -q '"to":"open"' "$CHAOS_DIR/chaos_metrics.jsonl"
grep -q '"to":"half_open"' "$CHAOS_DIR/chaos_metrics.jsonl"
grep -q '"to":"closed"' "$CHAOS_DIR/chaos_metrics.jsonl"
grep -q '"kind":"serve.slo","phase":"storm"' "$CHAOS_DIR/slo.jsonl"
# The SLO burn monitor must fire during the storm and have cleared by
# the settle phase, leaving firing/clear transition records behind.
grep -q "slo storm:.*firing=1" "$CHAOS_DIR/chaos.log"
grep -q "slo settle:.*firing=0" "$CHAOS_DIR/chaos.log"
grep -q '"kind":"serve.slo.burn","state":"firing"' \
    "$CHAOS_DIR/chaos_metrics.jsonl"
grep -q '"kind":"serve.slo.burn","state":"clear"' \
    "$CHAOS_DIR/chaos_metrics.jsonl"
# The periodic flusher left crash-safe telemetry snapshots behind.
grep -q '"kind":"serve.telemetry"' "$CHAOS_DIR/telemetry.jsonl"
# The availability the live endpoint reported mid-run must agree with
# what the SLO JSONL records post-hoc (same monitor, so the scrape can
# only lag it, never contradict it).
REPORTED_AVAIL="$(sed -n \
    's/.*"phase":"overall".*"availability":\([0-9.]*\).*/\1/p' \
    "$CHAOS_DIR/slo.jsonl")"
awk -v a="$SCRAPED_AVAIL" -v b="$REPORTED_AVAIL" 'BEGIN {
    d = a - b; if (d < 0) d = -d;
    if (d > 0.05) {
        printf "scraped availability %s vs slo.jsonl %s: drift > 0.05\n",
               a, b > "/dev/stderr";
        exit 1;
    }
}'
# The write mix must actually have mutated (applied= with a non-zero
# count) and every batch must have succeeded.
grep -q "mutations:   applied=" "$CHAOS_DIR/chaos.log"
if grep -q "mutations:   applied=0 " "$CHAOS_DIR/chaos.log"; then
    echo "write-mix run applied no mutations" >&2
    exit 1
fi
grep -q " failed=0 inserted_arcs=" "$CHAOS_DIR/chaos.log"
grep -q '"kind":"serve.mutation"' "$CHAOS_DIR/chaos_metrics.jsonl"
# The plan mix must actually have submitted plans, all successfully,
# and the fused batches must have collapsed sources into shared sweeps.
grep -q "plans:       submitted=" "$CHAOS_DIR/chaos.log"
if grep -q "plans:       submitted=0 " "$CHAOS_DIR/chaos.log"; then
    echo "plan-mix run submitted no plans" >&2
    exit 1
fi
grep -q "plans:       submitted=[0-9]* ok=[0-9]* failed=0 " \
    "$CHAOS_DIR/chaos.log"
if grep -q " sources_fused=0$" "$CHAOS_DIR/chaos.log"; then
    echo "plan-mix run fused no multi-source batches" >&2
    exit 1
fi
grep -q '"kind":"serve.plan"' "$CHAOS_DIR/chaos_metrics.jsonl"
# The metrics stream (per-request records + breaker/slo/mutation/plan
# side-records) must still be consumable by the profile pipeline, and
# the --slo view must tabulate the phase records, burn transitions and
# snapshots, and the mutation and plan records as MUTATIONS and PLANS
# tables.
"$BUILD_DIR/tools/profile_report" --metrics "$CHAOS_DIR/chaos_metrics.jsonl" \
    > /dev/null 2> "$CHAOS_DIR/report.err"
if grep -q "skipping unreadable record" "$CHAOS_DIR/report.err"; then
    echo "profile_report warned on serve side-records" >&2
    exit 1
fi
cat "$CHAOS_DIR/slo.jsonl" "$CHAOS_DIR/chaos_metrics.jsonl" \
    "$CHAOS_DIR/telemetry.jsonl" > "$CHAOS_DIR/combined.jsonl"
"$BUILD_DIR/tools/profile_report" --slo "$CHAOS_DIR/combined.jsonl" \
    > "$CHAOS_DIR/slo_report.txt"
grep -q "storm" "$CHAOS_DIR/slo_report.txt"
grep -q "BURN TRANSITIONS" "$CHAOS_DIR/slo_report.txt"
"$BUILD_DIR/tools/profile_report" --slo "$CHAOS_DIR/chaos_metrics.jsonl" \
    > "$CHAOS_DIR/metrics_report.txt"
grep -q "MUTATIONS" "$CHAOS_DIR/metrics_report.txt"
grep -q "PLANS" "$CHAOS_DIR/metrics_report.txt"

echo "== tier 9: serve benches (telemetry probes, dyn maintenance, plan fusion) =="
BENCH_DIR="$BUILD_DIR/ci-serve-benches"
rm -rf "$BENCH_DIR"
mkdir -p "$BENCH_DIR"
# Telemetry must be free when off: the disabled-registry probe budget
# (bench/telemetry_overhead exits non-zero above ~10 ns/op).
logged "$BENCH_DIR/telemetry_overhead.log" \
    "$BUILD_DIR/bench/telemetry_overhead"
# Incremental maintenance must beat full recompute by >=5x on
# CC/BFS/SSSP for small batches (<=0.1% of arcs), with every round
# verified against the from-scratch result (exit 2 on divergence,
# exit 4 below the speedup floor).  The committed reference baseline
# lives in perf/baselines/dyn_maintenance.jsonl.
logged "$BENCH_DIR/dyn_maintenance.log" \
    "$BUILD_DIR/bench/dyn_maintenance" \
    --out "$BENCH_DIR/dyn_maintenance.jsonl"
# The headline fusion win: a 64-source fused BFS batch must beat 64
# sequential single-source plans by >=4x through the same executor,
# with every fused slice verified bit-identical (exit 2 on divergence,
# exit 4 below the floor), and the fresh timings must show no
# regression against the committed reference baseline.
logged "$BENCH_DIR/plan_batch.log" \
    "$BUILD_DIR/bench/plan_batch" --out "$BENCH_DIR/plan_batch.jsonl"
"$BUILD_DIR/tools/perf_gate" --ref perf/baselines/plan_batch.jsonl \
    --cand "$BENCH_DIR/plan_batch.jsonl" \
    --report-out "$BENCH_DIR/plan_batch.report.jsonl"

echo "== tier 10: benchmark tests (perfbench at toy size) =="
# The repository benchmark's own tests: both workloads at scale 8 for 6 s
# per run, untraced and traced, through perfbench/run.py (which builds
# its own copy of the program under .bench_build/).  It is the one
# end-to-end driver that mixes reads, fused plans and mutate() on one
# server, with every answer checked; a deliberately corrupted answer
# must fail the run.
python3 perfbench/test_perfbench.py

echo "== ci.sh: all green =="
