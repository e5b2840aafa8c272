#!/usr/bin/env bash
# Builds the Release benchmark binaries, runs the baseline-vs-optimized
# kernel suites (bench_report and bench_simd) and the serving-layer
# suite, and distills the results into BENCH_kernels.json +
# BENCH_service.json at the repository root (see EXPERIMENTS.md for
# methodology).
#
# Usage:
#   bench/run_benchmarks.sh           # full run, refreshes the committed
#                                     # BENCH_*.json files
#   bench/run_benchmarks.sh --smoke   # quick CI pass; writes into the build
#                                     # dir only, never touches the committed
#                                     # JSON files
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-bench}
SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
fi

CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Release)
if command -v ccache >/dev/null; then
  CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi
cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}" >/dev/null
cmake --build "$BUILD_DIR" --target bench_report bench_simd \
  bench_service -j"$(nproc)" >/dev/null

BENCH_ARGS=(--benchmark_format=json)
# The SIMD suite repeats every benchmark and the distiller keeps the
# per-cell minimum: these kernels are short enough that neighbor load on
# a shared machine dominates single-run noise, and the minimum is the
# least-contended estimate (same treatment for both sides of each
# comparison).
SIMD_ARGS=(--benchmark_format=json --benchmark_repetitions=5)
SVC_ARGS=(--benchmark_format=json)
if [[ "$SMOKE" == 1 ]]; then
  # Smallest tier of each op, minimal sampling: validates the harness and
  # the distiller without burning CI minutes. In bench_simd, 64 is the
  # smallest word tier.
  BENCH_ARGS+=(--benchmark_filter='/(8|16|1000)$' --benchmark_min_time=0.01)
  SIMD_ARGS+=(--benchmark_filter='/64$' --benchmark_min_time=0.01
              --benchmark_repetitions=1)
  # The iterations-suffix alternative keeps the pinned-iteration
  # BM_net_saturation/12 tier in the smoke.
  SVC_ARGS+=(--benchmark_filter='/(12|64|256)(/iterations:[0-9]+)?$'
             --benchmark_min_time=0.01)
  OUT=$BUILD_DIR/BENCH_kernels.smoke.json
  SVC_OUT=$BUILD_DIR/BENCH_service.smoke.json
  LABEL="smoke"
  SVC_LABEL="smoke"
else
  OUT=BENCH_kernels.json
  SVC_OUT=BENCH_service.json
  LABEL="flat-storage + bitset + SIMD kernels vs frozen scalar references"
  SVC_LABEL="serving layer: hit/miss latency, replay hit rate, overload shed, two-node loopback saturation"
fi

# Run every suite first: the kernels distill merges bench_report's pairs
# with bench_simd's SIMD-vs-scalar pairs, so it needs both raws.
RAW=$BUILD_DIR/bench_report.raw.json
"$BUILD_DIR/bench/bench_report" "${BENCH_ARGS[@]}" > "$RAW"

SIMD_RAW=$BUILD_DIR/bench_simd.raw.json
"$BUILD_DIR/bench/bench_simd" "${SIMD_ARGS[@]}" > "$SIMD_RAW"

SVC_RAW=$BUILD_DIR/bench_service.raw.json
"$BUILD_DIR/bench/bench_service" "${SVC_ARGS[@]}" > "$SVC_RAW"

python3 bench/distill_bench.py "$RAW" "$SIMD_RAW" "$OUT" --label "$LABEL"
echo "wrote $OUT"

python3 bench/distill_bench.py "$SVC_RAW" "$SVC_OUT" \
  --label "$SVC_LABEL" --mode service
echo "wrote $SVC_OUT"
