#!/usr/bin/env bash
# Pinned-output check of the benchmark's workloads (perfbench/README.md).
#
# Runs each perfbench workload briefly at the pinned seed (42) and requires
# its result line to report "correct": true and "failed": 0. At that seed
# run.py compares every point's commits, events, throughput and replay
# digest with perfbench/pins.json. It exits 0 on a mismatch too (the
# mismatch is reported in the JSON), so this script reads the JSON rather
# than the exit code.
#
# Usage: scripts/perfbench_pins.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for workload in lowconflict_inf thrash_finite sweep_audited; do
  echo "--- perfbench ${workload} (seed 42, pinned outputs) ---"
  result="$(python3 perfbench/run.py --workload "${workload}" --seed 42 \
    --seconds 1 --trace 0 | tail -n 1)"
  python3 - "${workload}" "${result}" <<'EOF'
import json, sys
workload, line = sys.argv[1], sys.argv[2]
result = json.loads(line)
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("FAIL: %s: correct=%s failed=%s" % (
        workload, result.get("correct"), result.get("failed")))
print("%s: correct, %d point runs" % (workload, result["attempted"]))
EOF
done
