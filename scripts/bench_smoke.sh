#!/usr/bin/env bash
# Microbenchmark + determinism smoke (CI release lane; scripts/check.sh).
#
#   1. Runs bench/micro_kernel and validates the emitted BENCH_sim.json:
#      parses as JSON, carries the expected schema tag, and every throughput
#      field is strictly positive (the binary also self-checks this — a zero
#      means a bench silently broke, not that the machine is slow), and the
#      churn's peak arena slots lie in (0, 64] (more means cancelled events
#      leak).
#   2. Runs every bench/micro_substrates microbenchmark briefly: a smoke
#      that each one still runs to completion (one whose setup breaks a cc
#      invariant aborts on a CCSIM_CHECK), not a measurement.
#   3. Regenerates the fig03/fig04 CSVs with the pinned short-batch
#      configuration and requires them byte-identical to the committed
#      references (bench/reference/). Simulated results depend only on the
#      seed and run lengths, never on the host or job count, so any diff is
#      a real behavior change in the engine — see docs/PERFORMANCE.md. This
#      deterministic check runs before the wall-clock gate so that a gate
#      failure cannot hide it.
#   4. Gates the run with the noise-aware perf-regression gate
#      (tools/ccsim_perf/ccsim_perf.py) against a scratch copy of the
#      committed trajectory (bench/BENCH_trajectory.jsonl): the gate's
#      self-test must catch a planted slowdown, the fresh run must not
#      regress vs the history under the Student-t noise model, and the
#      committed trajectory itself must validate. The scratch copy keeps
#      CI machines from polluting the committed history — wall-clock
#      rates are only comparable within one machine class
#      (docs/PERFORMANCE.md).
#
# Usage: scripts/bench_smoke.sh <build-dir>   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT

echo "--- micro_kernel -> BENCH_sim.json ---"
CCSIM_BENCH_JSON="${TMP}/BENCH_sim.json" "${BUILD}/bench/micro_kernel"
python3 - "${TMP}/BENCH_sim.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "ccsim-bench-v1", doc.get("schema")
assert doc["event_churn"]["events_per_sec"] > 0
assert 0 < doc["event_churn"]["peak_arena_slots"] <= 64
assert doc["lock_grant_release"]["requests_per_sec"] > 0
algos = ["blocking", "immediate_restart", "optimistic", "optimistic_forward",
         "wound_wait", "wait_die", "basic_to", "mvto", "static_locking"]
cc = doc["cc_decision"]
entries = [k for k in cc if k != "budget"]
assert sorted(entries) == sorted(algos), entries
for algo in algos:
    assert cc[algo]["decisions_per_sec"] > 0, algo
    assert cc[algo]["commits"] > 0, algo
assert doc["end_to_end_fig03"]["throughput_txn_per_sim_sec"] > 0
assert doc["end_to_end_fig03"]["commits"] > 0
assert int(doc["end_to_end_fig03"]["replay_digest"], 16) != 0
print("BENCH_sim.json OK: %.1fM events/sec churn, 9-algorithm cc_decision, "
      "%.1f txn/s end-to-end"
      % (doc["event_churn"]["events_per_sec"] / 1e6,
         doc["end_to_end_fig03"]["throughput_txn_per_sim_sec"]))
EOF

echo "--- micro_substrates smoke ---"
"${BUILD}/bench/micro_substrates" --benchmark_min_time=0.01 >/dev/null
echo "micro_substrates: every benchmark ran"

echo "--- fig03/fig04 determinism vs committed references ---"
CCSIM_CSV_DIR="${TMP}" CCSIM_BATCHES=2 CCSIM_BATCH_SECONDS=1 \
  CCSIM_WARMUP_SECONDS=1 "${BUILD}/bench/fig03_04_low_conflict" >/dev/null
diff "${TMP}/fig03.csv" bench/reference/fig03.csv
diff "${TMP}/fig04.csv" bench/reference/fig04.csv
echo "fig03/fig04 CSVs byte-identical to bench/reference/"

echo "--- perf-regression gate (ccsim-perf, Student-t noise model) ---"
python3 tools/ccsim_perf/ccsim_perf.py --self-test
# Gate against a scratch copy of the committed history: CI hardware differs
# from the machine that recorded it, so the comparison is advisory there but
# the tooling path (parse, judge, append) is exercised end to end. The
# committed file itself must always validate.
cp bench/BENCH_trajectory.jsonl "${TMP}/BENCH_trajectory.jsonl"
python3 tools/ccsim_perf/ccsim_perf.py \
  --bench "${TMP}/BENCH_sim.json" \
  --trajectory "${TMP}/BENCH_trajectory.jsonl" --append
python3 tools/ccsim_perf/ccsim_perf.py --validate bench/BENCH_trajectory.jsonl
