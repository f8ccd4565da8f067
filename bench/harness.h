// Shared scaffolding for the figure-reproduction benches. Each bench binary
// reproduces one or more figures from the paper: it sweeps the three
// algorithms over the paper's multiprogramming levels, prints one table per
// figure, and optionally dumps CSV (set CCSIM_CSV_DIR).
//
// Environment knobs (see core/experiment.h and docs/EXECUTION.md):
// CCSIM_BATCHES, CCSIM_BATCH_SECONDS, CCSIM_WARMUP_SECONDS, CCSIM_MPLS,
// CCSIM_SEED, CCSIM_JOBS (worker threads for the sweep; results are
// identical at any job count), CCSIM_MAX_EVENTS (per-point event budget),
// CCSIM_OBS / CCSIM_SAMPLE_SECONDS / CCSIM_TRACE (observability: phase
// breakdown, time-series sampler, Perfetto trace export),
// CCSIM_HEARTBEAT_SECONDS (wall-clock progress lines),
// CCSIM_REPORT_COLUMNS (table column selection) — docs/OBSERVABILITY.md.
#ifndef CCSIM_BENCH_HARNESS_H_
#define CCSIM_BENCH_HARNESS_H_

#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"

namespace ccsim {
namespace bench {

/// Default statistical effort for bench runs: the paper's 20 batches.
/// Override with CCSIM_BATCHES / CCSIM_BATCH_SECONDS for quick looks.
RunLengths BenchLengths(double batch_seconds = 20.0, double warmup_seconds = 40.0);

/// The paper's Table 2 base configuration (db_size 1000, 200 terminals,
/// 1 s external think, 35 ms obj_io, 15 ms obj_cpu), with the master seed
/// taken from CCSIM_SEED (default 42; must be non-negative).
EngineConfig PaperBaseConfig();

/// Runs one sweep of `algorithms` (default: the paper's three) over the
/// paper's mpl levels with progress lines on stderr. Points run across
/// CCSIM_JOBS worker threads; progress lines arrive in completion order but
/// the returned reports are always in sweep order.
///
/// Runs through the checked runner: a failed point (check trip, event
/// budget, audit violation) prints a FAILED line plus its diagnostics, is
/// dropped from the returned reports, and makes BenchExitCode() nonzero —
/// the sweep's healthy points still complete and print.
std::vector<MetricsReport> RunPaperSweep(
    const EngineConfig& base, const RunLengths& lengths,
    const std::vector<std::string>& algorithms = PaperAlgorithms());

/// An ad-hoc parameter point for the ablation benches: `label` replaces
/// report.algorithm in tables, CSVs, and progress lines.
struct LabeledPoint {
  std::string label;
  EngineConfig config;
};

/// Runs the points through the parallel runner (CCSIM_JOBS workers, one
/// private Simulator per point, progress lines on stderr) and stamps each
/// report with its label. Results are in input order at any job count.
/// Failure semantics as in RunPaperSweep: failed points are reported,
/// dropped, and reflected in BenchExitCode().
std::vector<MetricsReport> RunLabeledPoints(
    const std::vector<LabeledPoint>& points, const RunLengths& lengths);

/// Exit code for a bench main(): 0 when every point of every sweep run by
/// this process succeeded and every requested output file was written, 1
/// otherwise. Each bench ends with `return ccsim::bench::BenchExitCode();`
/// so scripted reproductions (scripts/, CI) notice partial figures.
int BenchExitCode();

/// Prints the table and, when CCSIM_CSV_DIR is set, writes `csv_name`.csv
/// plus a companion gnuplot script (the script is only written when the CSV
/// itself succeeded, so a `.gp` never points at a missing CSV).
void EmitFigure(const std::string& title, const std::string& csv_name,
                const std::vector<MetricsReport>& reports,
                const ReportColumns& columns);

/// Prints the standard bench banner: what is being reproduced, with what
/// statistical effort, and across how many worker threads.
void PrintBanner(const std::string& what, const RunLengths& lengths);

}  // namespace bench
}  // namespace ccsim

#endif  // CCSIM_BENCH_HARNESS_H_
