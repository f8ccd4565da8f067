#!/usr/bin/env bash
# Local reproduction of the CI matrix (.github/workflows/ci.yml):
#   1. RelWithDebInfo build + full ctest suite
#   2. Release (-O3, the optimisation level perfbench times) build + full
#      ctest suite; skipped with --fast
#   3. ASan+UBSan build (with float-cast-overflow, which GCC's "undefined"
#      leaves out) + full ctest suite
#   4. TSan build + full ctest suite, plus the parallel-runner tests re-run
#      under CCSIM_JOBS=8 (the threaded sweep path under TSan)
#   5. bench smoke: one figure binary, short batches, CCSIM_JOBS=4, then
#      the microbench smoke (BENCH_sim.json validation, a brief run of every
#      micro_substrates benchmark, byte-identical fig03/fig04 CSVs vs the
#      committed references, then the ccsim-perf noise-aware regression
#      gate against bench/BENCH_trajectory.jsonl — scripts/bench_smoke.sh)
#   6. observability smoke: one figure point with the sampler + Perfetto
#      trace on; validates the trace parses and the time-series CSV is
#      non-empty and time-monotone (docs/OBSERVABILITY.md)
#   7. perfbench pins: each benchmark workload run briefly at seed 42 must
#      reproduce perfbench/pins.json (scripts/perfbench_pins.sh)
#   8. audited figure smoke: fig03_04 built with -DCCSIM_AUDIT=ON in
#      build-audit, short batches at CCSIM_JOBS=4; no audit violation and
#      fig03/fig04 byte-identical to the references (scripts/audit_smoke.sh)
#   9. ccsim-lint: project-rule linter (determinism, env-knob, observability
#      and layering rules — docs/VERIFICATION.md), self-test first
#  10. deep schedule-space verification: verify_test re-run with
#      CCSIM_VERIFY_DEPTH=8 (the full ctest pass above ran the shallow
#      PR-lane depth); skipped with --fast
#  11. clang-tidy over src/ (skipped with a notice if clang-tidy is absent —
#      the local toolchain may be gcc-only; CI still enforces it)
#
# Every step runs even when an earlier one fails (a failing wall-clock gate
# must not hide the deterministic checks after it); the failed steps are
# listed at the end and the script exits 1 if there were any.
#
# Usage: scripts/check.sh [--fast]
#   --fast   skip the -O3 and sanitizer builds and the deep verification
#            pass
set -uo pipefail

cd "$(dirname "$0")/.."
JOBS=$(($(nproc) > 1 ? $(nproc) : 2))
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1
FAILED=()

# step <name> <command...>: runs one step, recording it if it fails.
step() {
  local name="$1"; shift
  echo "=== ${name} ==="
  "$@" || FAILED+=("${name}")
}

run_config() {
  local name="$1"; shift
  cmake -B "build-${name}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@" &&
    cmake --build "build-${name}" -j "${JOBS}" &&
    ctest --test-dir "build-${name}" --output-on-failure -j "${JOBS}"
}

fig03_smoke() {
  CCSIM_JOBS=4 CCSIM_BATCHES=2 CCSIM_BATCH_SECONDS=1 CCSIM_WARMUP_SECONDS=1 \
    ./build-plain/bench/fig03_04_low_conflict >/dev/null
}

step plain run_config plain
if [[ "${FAST}" -eq 0 ]]; then
  step o3 run_config o3 -DCMAKE_BUILD_TYPE=Release
  step asan run_config asan -DCCSIM_SAN=address,undefined,float-cast-overflow
  step tsan run_config tsan -DCCSIM_SAN=thread
  step "parallel-runner tests under TSan, CCSIM_JOBS=8" \
    env CCSIM_JOBS=8 ctest --test-dir build-tsan --output-on-failure \
    -R '(ParallelSweep|ParallelReplication|RunPoints|ThreadPool|ParallelFor|Jobs)'
fi

step "bench smoke (fig03_04, short batches, CCSIM_JOBS=4)" fig03_smoke
step "microbench smoke (BENCH_sim.json + fig03/04 diff + perf gate)" \
  scripts/bench_smoke.sh build-plain
step "observability smoke (sampler + trace artifacts validated)" \
  scripts/obs_smoke.sh ./build-plain/bench/fig03_04_low_conflict
step "perfbench pins (three workloads, seed 42)" scripts/perfbench_pins.sh
step "audited figure smoke (CCSIM_AUDIT=ON, fig03/04 diff)" \
  scripts/audit_smoke.sh
step "ccsim-lint self-test" python3 tools/ccsim_lint/ccsim_lint.py --self-test
step "ccsim-lint" python3 tools/ccsim_lint/ccsim_lint.py

if [[ "${FAST}" -eq 0 ]]; then
  step "deep schedule-space verification (CCSIM_VERIFY_DEPTH=8)" \
    env CCSIM_VERIFY_DEPTH=8 ctest --test-dir build-plain \
    --output-on-failure --no-tests=error \
    -R '(MatrixTest|ExplorerTest|MutationTest)'
fi

if command -v clang-tidy >/dev/null 2>&1; then
  step clang-tidy cmake --build build-plain --target tidy
else
  echo "=== clang-tidy not installed; skipped (CI runs it) ==="
fi

if ((${#FAILED[@]} > 0)); then
  echo "FAILED steps:"
  printf '  %s\n' "${FAILED[@]}"
  exit 1
fi
echo "All checks passed."
