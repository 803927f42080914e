#!/usr/bin/env bash
# Build the Release tree and run the two tracked performance benchmarks:
#
#   bench_fig1_lenet_dse   - the 24k-point LeNet DSE sweep (Figure 1 /
#                            Table 2); its wall time is the headline
#                            compiler-performance metric.
#   bench_service_traffic  - seeded mixed traffic through one DseService.
#
# Emits BENCH_dse.json (points/sec of the DSE sweep, the raw output
# hash so result drift is detectable, and the active search strategy's
# proposed/evaluated/coverage stats) and BENCH_service.json (requests/sec,
# latency and totality counters). Per-model compile time is measured by
# the compile-zoo workload of benchmark/run.sh. Run from anywhere inside
# the repo.
#
# HIDA_DSE_STRATEGY selects the sweep's search strategy (exhaustive,
# the default, is the regression-gated trajectory; random/lhs/evolve
# sample the grid — their output hash intentionally differs from the
# exhaustive baseline). An unknown strategy fails here with exit 65
# (the user-error code the benches themselves use) before any build.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
cd "$REPO_ROOT"

# Validate the strategy before spending anything on a build: a typo'd
# HIDA_DSE_STRATEGY must fail immediately, never fall back to a silent
# (and expensive) exhaustive run.
DSE_STRATEGY="${HIDA_DSE_STRATEGY:-exhaustive}"
case "$DSE_STRATEGY" in
    exhaustive|random|lhs|evolve) ;;
    *)
        echo "FAIL: unknown HIDA_DSE_STRATEGY '$DSE_STRATEGY'" \
             "(expected exhaustive|random|lhs|evolve)" >&2
        exit 65
        ;;
esac

echo "DSE strategy: $DSE_STRATEGY (seed ${HIDA_DSE_SEED:-42}," \
     "budget ${HIDA_DSE_BUDGET:-10% of grid})"

# Fail loudly, never partially: every BENCH json is staged to a .tmp and
# only renamed into place after its producer succeeded, and the ERR trap
# removes stale temps — an aborted run can never leave a half-written
# (or worse, plausible-but-wrong) baseline for the regression gate to
# diff against.
STAGED_TMPS=()
on_error() {
    local line=$1
    rm -f "${STAGED_TMPS[@]}"
    echo "FAIL: bench.sh aborted at line $line; no BENCH json was" \
         "(re)written" >&2
}
trap 'on_error $LINENO' ERR

# Honor a compiler launcher (CI sets CMAKE_CXX_COMPILER_LAUNCHER=ccache so
# matrix rebuilds are warm); plain local runs are unaffected.
CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Release)
if [[ -n "${CMAKE_CXX_COMPILER_LAUNCHER:-}" ]]; then
    CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER="$CMAKE_CXX_COMPILER_LAUNCHER")
fi

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target bench_fig1_lenet_dse bench_service_traffic

# ---- DSE sweep: wall time over the fixed 24,000-point grid ----------------
# Two timed runs: serial (HIDA_BENCH_THREADS=1, the machine-comparable
# trajectory metric the regression gate normalizes on) and sharded
# (HIDA_BENCH_THREADS when set, else all cores). The sweep's merge is
# deterministic in grid order, so both runs must hash identically — a
# mismatch is a sharding correctness bug and fails the script here.
DSE_POINTS=24000
DSE_OUT="$BUILD_DIR/bench_fig1_lenet_dse.out"
HW_CONCURRENCY=$(nproc)
THREADS="${HIDA_BENCH_THREADS:-$HW_CONCURRENCY}"

start_ns=$(date +%s%N)
HIDA_BENCH_THREADS=1 "$BUILD_DIR/bench_fig1_lenet_dse" > "$DSE_OUT.serial"
end_ns=$(date +%s%N)
serial_wall_s=$(awk "BEGIN { printf \"%.3f\", ($end_ns - $start_ns) / 1e9 }")
serial_pps=$(awk "BEGIN { printf \"%.1f\", $DSE_POINTS / $serial_wall_s }")
serial_sha=$(sha256sum "$DSE_OUT.serial" | cut -d' ' -f1)

# The sharded run also emits the strategy's machine-readable stats
# (points proposed/evaluated, Pareto coverage, cache hit rate), folded
# into BENCH_dse.json below.
DSE_STATS="$BUILD_DIR/bench_fig1_lenet_dse.stats.json"
rm -f "$DSE_STATS"
start_ns=$(date +%s%N)
HIDA_BENCH_THREADS="$THREADS" HIDA_DSE_STATS="$DSE_STATS" \
    "$BUILD_DIR/bench_fig1_lenet_dse" > "$DSE_OUT"
end_ns=$(date +%s%N)
wall_s=$(awk "BEGIN { printf \"%.3f\", ($end_ns - $start_ns) / 1e9 }")
pps=$(awk "BEGIN { printf \"%.1f\", $DSE_POINTS / $wall_s }")
out_sha=$(sha256sum "$DSE_OUT" | cut -d' ' -f1)

if [[ "$out_sha" != "$serial_sha" ]]; then
    echo "FAIL: sharded sweep (threads=$THREADS) output drifted from the" \
         "serial run ($serial_sha -> $out_sha)" >&2
    exit 1
fi

STAGED_TMPS+=("$REPO_ROOT/BENCH_dse.json.tmp")
cat > "$REPO_ROOT/BENCH_dse.json.tmp" <<EOF
{
  "bench": "bench_fig1_lenet_dse",
  "points": $DSE_POINTS,
  "wall_seconds": $wall_s,
  "points_per_sec": $pps,
  "wall_seconds_serial": $serial_wall_s,
  "points_per_sec_serial": $serial_pps,
  "threads": $THREADS,
  "hardware_concurrency": $HW_CONCURRENCY,
  "output_sha256": "$out_sha",
  "strategy": $(cat "$DSE_STATS"),
  "date": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "commit": "$(git -C "$REPO_ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"
}
EOF
mv "$REPO_ROOT/BENCH_dse.json.tmp" "$REPO_ROOT/BENCH_dse.json"
echo "DSE sweep: serial ${serial_wall_s}s (${serial_pps} pps)," \
     "threads=$THREADS ${wall_s}s (${pps} pps), identical output"

# ---- Service traffic: requests/sec, p99, shed + store hit rate ------------
# The fig1/fig10/fig11-shaped closed-loop traffic mix through one
# DseService (docs/service.md), against a fresh persistent QoR store.
# Totality (every request terminally answered) is checked by the bench
# itself — a violation fails this script right here. The kill/restart
# warm-start leg lives in scripts/service_soak.sh, not in this timing
# run.
SERVICE_STATS="$BUILD_DIR/bench_service_traffic.stats.json"
SERVICE_STORE="$BUILD_DIR/bench_service_traffic.store.bin"
rm -f "$SERVICE_STATS" "$SERVICE_STORE" "$SERVICE_STORE.tmp"
HIDA_QOR_STORE="$SERVICE_STORE" HIDA_SERVICE_STATS="$SERVICE_STATS" \
    HIDA_SERVICE_REQUESTS="${HIDA_SERVICE_REQUESTS:-24}" \
    "$BUILD_DIR/bench_service_traffic"

STAGED_TMPS+=("$REPO_ROOT/BENCH_service.json.tmp")
cat > "$REPO_ROOT/BENCH_service.json.tmp" <<EOF
{
  "bench": "bench_service_traffic",
  "threads": $THREADS,
  "hardware_concurrency": $HW_CONCURRENCY,
  "service": $(cat "$SERVICE_STATS"),
  "date": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "commit": "$(git -C "$REPO_ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"
}
EOF
mv "$REPO_ROOT/BENCH_service.json.tmp" "$REPO_ROOT/BENCH_service.json"
echo "Wrote BENCH_service.json"
