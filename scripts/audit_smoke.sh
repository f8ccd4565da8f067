#!/usr/bin/env bash
# Audited figure smoke (CI release lane; scripts/check.sh).
#
# Configures build-audit/ with the runtime invariant auditor on by default
# (-DCCSIM_AUDIT=ON, docs/AUDIT.md), builds only fig03_04_low_conflict, runs
# it with bench_smoke's short batches at CCSIM_JOBS=4, and requires:
#   * exit 0: an audit violation fails its point, and a failed point fails
#     the run;
#   * fig03/fig04 CSVs byte-identical to bench/reference/. The auditor only
#     observes, so turning it on cannot move a simulated result.
#
# Usage: scripts/audit_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-audit
TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT

cmake -B "${BUILD}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCCSIM_AUDIT=ON \
  >/dev/null
cmake --build "${BUILD}" -j "$(nproc)" --target fig03_04_low_conflict

CCSIM_JOBS=4 CCSIM_CSV_DIR="${TMP}" CCSIM_BATCHES=2 CCSIM_BATCH_SECONDS=1 \
  CCSIM_WARMUP_SECONDS=1 "${BUILD}/bench/fig03_04_low_conflict" >/dev/null
diff "${TMP}/fig03.csv" bench/reference/fig03.csv
diff "${TMP}/fig04.csv" bench/reference/fig04.csv
echo "audited fig03/fig04: no violations, CSVs byte-identical to bench/reference/"
