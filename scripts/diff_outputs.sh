#!/usr/bin/env bash
# Compares every simulated output of two builds of this repository.
#
# For each build, runs every figure, ablation and validation binary in
# <build>/bench (all but micro_kernel and micro_substrates, which report
# wall-clock rates) at 2 batches of 1 s after 1 s of warmup on one job, then
# run_config over all nine algorithms at mpl 10 and 50 on 1 CPU / 2 disks
# with every report column, observability, the time-series sampler, Perfetto
# traces and the audit on. Each run writes into its own directory.
#
# Then compares the two builds' stdout, stderr, exit codes and every CSV,
# gnuplot script and trace JSON, after replacing each run's output directory
# with "<out>" in printed paths. Exits 0 when everything is identical;
# otherwise lists the files that differ and exits 1.
#
# It needs two builds (a parent commit's and a change's, say), so it is not a
# CI step.
#
# Usage: scripts/diff_outputs.sh <parent-build> <change-build>
#   e.g.  scripts/diff_outputs.sh ../parent/build build
set -euo pipefail

USAGE="usage: scripts/diff_outputs.sh <parent-build> <change-build>"
PARENT="${1:?${USAGE}}"
CHANGE="${2:?${USAGE}}"
OUT="$(mktemp -d "${TMPDIR:-/tmp}/ccsim_diff_outputs.XXXXXX")"
trap 'rm -rf "${OUT}"' EXIT

# Only the knobs set below may reach the runs.
while read -r knob; do
  unset "${knob}"
done < <(compgen -e | grep '^CCSIM_' || true)

ALGORITHMS=blocking,immediate_restart,optimistic,optimistic_forward
ALGORITHMS+=,wound_wait,wait_die,basic_to,mvto,static_locking

# run <side> <name> <command...>: runs the command with CCSIM_CSV_DIR set to
# its own directory, ${OUT}/<side>/<name>, records its stdout, stderr and
# exit code there, and normalises that directory in every file there (the
# gnuplot scripts name their CSVs by path).
run() {
  local side="$1" name="$2"
  shift 2
  local dir="${OUT}/${side}/${name}"
  mkdir -p "${dir}"
  local code=0
  CCSIM_CSV_DIR="${dir}" "$@" > "${dir}/stdout.txt" 2> "${dir}/stderr.txt" ||
    code=$?
  echo "${code}" > "${dir}/exit_code.txt"
  find "${dir}" -type f -exec sed -i "s|${dir}|<out>|g" {} +
}

BENCHES="$(for build in "${PARENT}" "${CHANGE}"; do
  for exe in "${build}"/bench/*; do
    [[ -f "${exe}" && -x "${exe}" ]] && basename "${exe}"
  done
done | grep -vx 'micro_kernel\|micro_substrates' | sort -u)"

for side in parent change; do
  build="${PARENT}"
  [[ "${side}" == change ]] && build="${CHANGE}"
  echo "diff outputs: running ${build} (${side})"
  for name in ${BENCHES}; do
    run "${side}" "${name}" env CCSIM_JOBS=1 CCSIM_BATCHES=2 \
      CCSIM_BATCH_SECONDS=1 CCSIM_WARMUP_SECONDS=1 "${build}/bench/${name}"
  done
  rc_dir="${OUT}/${side}/run_config"
  run "${side}" run_config env CCSIM_JOBS=1 CCSIM_SAMPLE_SECONDS=1 \
    CCSIM_TRACE="${rc_dir}" "${build}/examples/run_config" \
    algorithms="${ALGORITHMS}" mpls=10,50 num_cpus=1 num_disks=2 batches=2 \
    batch_seconds=1 warmup_seconds=1 seed=42 columns=all obs=true \
    csv="${rc_dir}/run_config.csv" --audit
done

FILES="$(cd "${OUT}/parent" && find . -type f | wc -l)"
if DIFFS="$(diff -rq "${OUT}/parent" "${OUT}/change")"; then
  echo "diff outputs: all ${FILES} files identical"
  exit 0
fi
echo "diff outputs: differing files (of ${FILES}):"
sed "s|${OUT}/||g" <<< "${DIFFS}"
exit 1
