#!/usr/bin/env bash
# Parameterized sanitizer driver: one flavor table instead of three
# near-identical build-and-run scripts. run_asan.sh / run_ubsan.sh /
# run_tsan.sh remain as thin wrappers for muscle memory and CI.
#
#   asan    AddressSanitizer over the observability, scenario and MPC
#           solver suites (labels `obs` + `scenario` + `control`: event
#           log / metrics / export unit tests plus the safety-event,
#           observed-facility, span-tracer, windowed-metrics and
#           health-monitor suites, the scenario loader/fuzzer, the golden
#           scenario replays — so every shipped scenario gets one replay
#           under ASan — and structured_qp_test / mpc_test, since the
#           class-compact QP solve indexes per-class arrays through each
#           coordinate's class)
#   tsan    ThreadSanitizer over the concurrency-sensitive suites (label
#           `threads`: the parallel facility and the span tracer under
#           the sharded runtime — trace_test's
#           facility-with-tracing case drives per-worker TraceBuffers and
#           the concurrent metric emitters from every shard — and the
#           swell's per-thread sin memo driven from two threads)
#   ubsan   UndefinedBehaviorSanitizer over the FULL suite — including the
#           `fault` chaos sweeps, the export fuzz harness, and the
#           scenario spec fuzzer + golden scenario replays, whose whole
#           point is proving the parsers and injectors are UB-free on
#           hostile input
#
# Each flavor is equivalent to:
#   cmake --preset <flavor> && cmake --build --preset <flavor> \
#     && ctest --preset <flavor>
#
# Usage: scripts/run_sanitizer.sh <asan|tsan|ubsan> [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

FLAVOR="${1:-}"
shift || true

# Per-flavor knobs: the CMake toggle, which test binaries to build (empty =
# everything), and which ctest label to select (empty = full suite).
case "$FLAVOR" in
  asan)
    CMAKE_FLAG=SPRINTCON_ASAN
    TARGETS=(obs_test safety_test facility_test export_fuzz_test
      trace_test windowed_metrics_test health_test health_alloc_test
      scenario_test scenario_fuzz_test golden_trace_test structured_qp_test
      mpc_test)
    CTEST_LABEL='obs|scenario|control'
    CTEST_PARALLEL=0
    ;;
  tsan)
    CMAKE_FLAG=SPRINTCON_TSAN
    TARGETS=(facility_test facility_shard_test obs_test trace_test
      sin_memo_test)
    CTEST_LABEL=threads
    CTEST_PARALLEL=0
    ;;
  ubsan)
    CMAKE_FLAG=SPRINTCON_UBSAN
    TARGETS=()
    CTEST_LABEL=""
    CTEST_PARALLEL=1
    ;;
  *)
    echo "usage: $0 <asan|tsan|ubsan> [extra ctest args...]" >&2
    exit 2
    ;;
esac

BUILD_DIR="build-$FLAVOR"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-D${CMAKE_FLAG}=ON" \
  -DSPRINTCON_BUILD_BENCH=OFF \
  -DSPRINTCON_BUILD_EXAMPLES=OFF

BUILD_ARGS=(--build "$BUILD_DIR" -j "$(nproc)")
if [[ ${#TARGETS[@]} -gt 0 ]]; then
  BUILD_ARGS+=(--target "${TARGETS[@]}")
fi
cmake "${BUILD_ARGS[@]}"

CTEST_ARGS=(--test-dir "$BUILD_DIR" --output-on-failure)
if [[ -n "$CTEST_LABEL" ]]; then
  CTEST_ARGS+=(-L "$CTEST_LABEL")
fi
if [[ "$CTEST_PARALLEL" == 1 ]]; then
  CTEST_ARGS+=(-j "$(nproc)")
fi
ctest "${CTEST_ARGS[@]}" "$@"
