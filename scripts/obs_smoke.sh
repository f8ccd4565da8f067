#!/usr/bin/env bash
# Observability smoke test (docs/OBSERVABILITY.md).
#
# Runs one bench point with the full observability stack on — phase
# breakdown, time-series sampler, Perfetto trace export — and validates
# the artifacts:
#   * the report table header names every column group, and the fig03/fig04
#     CSVs carry the 30 historical columns plus the 10 blame_* columns on
#     every row,
#   * every trace_*.json parses as JSON (structural check if python3 is
#     absent) and is non-trivial,
#   * every ts_*.csv is non-empty, rectangular, and time-monotone, with a
#     companion .gp script.
#
# Usage: scripts/obs_smoke.sh <bench-binary>
#   e.g.  scripts/obs_smoke.sh ./build/bench/fig03_04_low_conflict
set -euo pipefail

BENCH="${1:?usage: scripts/obs_smoke.sh <bench-binary>}"
OUT="$(mktemp -d "${TMPDIR:-/tmp}/ccsim_obs_smoke.XXXXXX")"
trap 'rm -rf "${OUT}"' EXIT

echo "obs smoke: ${BENCH} -> ${OUT}"
CCSIM_JOBS=2 CCSIM_BATCHES=2 CCSIM_BATCH_SECONDS=1 CCSIM_WARMUP_SECONDS=1 \
CCSIM_MPLS=25 CCSIM_CSV_DIR="${OUT}" CCSIM_SAMPLE_SECONDS=0.25 \
CCSIM_TRACE="${OUT}" CCSIM_REPORT_COLUMNS=all \
  "${BENCH}" > "${OUT}/table.txt"

# 1. The `all` table header names every column group.
for column in 'resp(s)' p50 blk_ratio d_util c_util avg_mpl ph_rdy wst_attr; do
  grep -qF -- "${column}" "${OUT}/table.txt" || {
    echo "FAIL: report table has no ${column} column"; cat "${OUT}/table.txt"
    exit 1; }
done

# 2. The figure CSVs carry blame: the 30 historical columns, then the 10
#    blame_* columns, on every row.
HEADER='algorithm,mpl,throughput,throughput_hw,response_mean,response_sd,'
HEADER+='response_p50,response_p90,response_p99,response_max,block_ratio,'
HEADER+='restart_ratio,disk_util_total,disk_util_useful,cpu_util_total,'
HEADER+='cpu_util_useful,avg_active_mpl,commits,restarts,blocks,'
HEADER+='measured_seconds,phase_ready,phase_cc_block,phase_cpu,phase_disk,'
HEADER+='phase_res_wait,phase_think,phase_restart_delay,phase_wasted,'
HEADER+='phase_other,blame_wasted_us,blame_wasted_attr_us,blame_blocked_us,'
HEADER+='blame_blocked_attr_us,blame_restarts_charged,blame_blocks_charged,'
HEADER+='blame_genealogy_mean,blame_genealogy_max,blame_top_aborter_us,'
HEADER+='blame_top_holder_us'
for fig in fig03 fig04; do
  csv="${OUT}/${fig}.csv"
  [[ "$(head -n 1 "${csv}")" == "${HEADER}" ]] || {
    echo "FAIL: ${csv} header is not the 30 + 10 blame columns"
    head -n 1 "${csv}"; exit 1; }
  awk -F, 'NF != 40 { print FILENAME ": row " NR " has " NF " fields"; exit 1 }
           END { if (NR < 2) { print FILENAME ": no rows"; exit 1 } }' "${csv}"
  echo "ok: ${csv}"
done

# 3. Perfetto traces parse.
TRACES=("${OUT}"/trace_*.json)
[[ -e "${TRACES[0]}" ]] || { echo "FAIL: no trace_*.json produced"; exit 1; }
for trace in "${TRACES[@]}"; do
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${trace}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert len(events) > 100, f"only {len(events)} trace events"
assert any(e.get("ph") == "X" for e in events), "no slice events"
assert any(e.get("ph") == "C" for e in events), "no counter events"
EOF
  else
    # Structural fallback: object form, array present, balanced braces.
    head -c 16 "${trace}" | grep -q '{"traceEvents":' || {
      echo "FAIL: ${trace} is not trace-event JSON"; exit 1; }
    tail -c 4 "${trace}" | grep -q ']}' || {
      echo "FAIL: ${trace} is not closed"; exit 1; }
  fi
  echo "ok: ${trace}"
done

# 4. Time-series CSVs: non-empty, rectangular, strictly increasing time.
SERIES=("${OUT}"/ts_*.csv)
[[ -e "${SERIES[0]}" ]] || { echo "FAIL: no ts_*.csv produced"; exit 1; }
for csv in "${SERIES[@]}"; do
  awk -F, '
    NR == 1 { cols = NF; if ($1 != "time_s") { print FILENAME ": bad header"; exit 1 } next }
    NF != cols { print FILENAME ": ragged row " NR; exit 1 }
    NR > 2 && $1 + 0 <= prev { print FILENAME ": time not monotone at row " NR; exit 1 }
    { prev = $1 + 0; rows++ }
    END { if (rows < 2) { print FILENAME ": too few samples (" rows ")"; exit 1 } }
  ' "${csv}"
  [[ -s "${csv%.csv}.gp" ]] || { echo "FAIL: missing ${csv%.csv}.gp"; exit 1; }
  echo "ok: ${csv}"
done

echo "obs smoke passed."
