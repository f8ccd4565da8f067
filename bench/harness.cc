#include "bench/harness.h"

#include <cstdio>
#include <iostream>

#include "exec/jobs.h"
#include "obs/obs_config.h"
#include "util/check.h"
#include "util/env.h"

namespace ccsim {
namespace bench {
namespace {

/// Failed points and failed output writes accumulated by this process
/// (progress callbacks are serialized, and benches are single-threaded
/// outside the runner, so a plain counter suffices).
int g_failures = 0;

void PrintPointProgress(const PointResult& point, const std::string& label) {
  if (point.ok()) {
    std::fprintf(stderr, "  %-18s mpl=%-4d thruput=%7.2f (%lld commits)\n",
                 label.c_str(), point.config.workload.mpl,
                 point.report.throughput.mean,
                 static_cast<long long>(point.report.commits));
  } else {
    std::fprintf(stderr, "  %-18s mpl=%-4d FAILED: %s\n", label.c_str(),
                 point.config.workload.mpl, point.status.ToString().c_str());
  }
}

}  // namespace

RunLengths BenchLengths(double batch_seconds, double warmup_seconds) {
  RunLengths defaults;
  defaults.batches = 20;
  defaults.batch_length = FromSeconds(batch_seconds);
  defaults.warmup = FromSeconds(warmup_seconds);
  return RunLengths::FromEnv(defaults);
}

EngineConfig PaperBaseConfig() {
  EngineConfig config;           // WorkloadParams defaults are Table 2.
  config.resources = ResourceConfig::Finite(1, 2);
  int64_t seed = GetEnvInt("CCSIM_SEED", 42);
  CCSIM_CHECK_GE(seed, 0)
      << "CCSIM_SEED must be non-negative (a negative value would wrap to a "
         "huge unsigned seed), got " << seed;
  config.seed = static_cast<uint64_t>(seed);
  return config;
}

std::vector<MetricsReport> RunPaperSweep(
    const EngineConfig& base, const RunLengths& lengths,
    const std::vector<std::string>& algorithms) {
  SweepConfig sweep;
  sweep.base = base;
  sweep.algorithms = algorithms;
  sweep.mpls = PaperMplLevels();
  sweep.lengths = lengths;
  SweepOutcome outcome = RunSweepChecked(sweep, [](const PointResult& point) {
    PrintPointProgress(point, point.config.algorithm);
  });
  if (!outcome.ok()) {
    g_failures += static_cast<int>(outcome.failures().size());
    std::fprintf(stderr, "sweep completed with failures:\n%s",
                 outcome.FailureSummary().c_str());
  }
  return outcome.SuccessfulReports();
}

std::vector<MetricsReport> RunLabeledPoints(
    const std::vector<LabeledPoint>& points, const RunLengths& lengths) {
  std::vector<EngineConfig> configs;
  configs.reserve(points.size());
  for (const LabeledPoint& point : points) configs.push_back(point.config);
  SweepOutcome outcome = RunPointsChecked(
      configs, lengths, /*jobs=*/0, [&points](const PointResult& point) {
        PrintPointProgress(point, points[point.index].label);
      });
  if (!outcome.ok()) {
    g_failures += static_cast<int>(outcome.failures().size());
    std::fprintf(stderr, "labeled points completed with failures:\n%s",
                 outcome.FailureSummary().c_str());
  }
  std::vector<MetricsReport> reports;
  reports.reserve(outcome.points.size());
  for (const PointResult& point : outcome.points) {
    if (!point.ok()) continue;
    MetricsReport report = point.report;
    report.algorithm = points[point.index].label;
    reports.push_back(std::move(report));
  }
  return reports;
}

int BenchExitCode() {
  if (g_failures > 0) {
    std::fprintf(stderr, "bench finished with %d failure(s)\n", g_failures);
    return 1;
  }
  return 0;
}

void EmitFigure(const std::string& title, const std::string& csv_name,
                const std::vector<MetricsReport>& reports,
                const ReportColumns& columns) {
  PrintReportTable(std::cout, title, reports, columns);
  std::string path = CsvPathFor(csv_name);
  if (path.empty()) return;
  if (!WriteReportCsv(path, reports)) {
    std::cerr << "failed to write " << path
              << " (disk full, or CCSIM_CSV_DIR missing/unwritable?)\n";
    ++g_failures;
    return;  // No companion script for a CSV that does not exist.
  }
  std::cout << "(csv: " << path << ")\n";
  // A companion gnuplot script: run `gnuplot <name>.gp` inside the output
  // directory to render <name>.csv.png.
  std::string stem = path;
  const std::string kCsvSuffix = ".csv";
  if (stem.size() >= kCsvSuffix.size() &&
      stem.compare(stem.size() - kCsvSuffix.size(), kCsvSuffix.size(),
                   kCsvSuffix) == 0) {
    stem.resize(stem.size() - kCsvSuffix.size());
  }
  if (!WriteThroughputGnuplot(stem + ".gp", csv_name + ".csv", title,
                              reports)) {
    std::cerr << "failed to write " << stem << ".gp\n";
    ++g_failures;
  }
}

void PrintBanner(const std::string& what, const RunLengths& lengths) {
  std::cout << "ccsim bench: " << what << "\n"
            << "  methodology: " << lengths.batches << " batches x "
            << ToSeconds(lengths.batch_length) << "s after "
            << ToSeconds(lengths.warmup)
            << "s warmup, 90% confidence intervals (batch means)\n"
            << "  execution: " << ExperimentJobs()
            << " worker thread(s) (CCSIM_JOBS; results are job-count "
               "independent)\n";
  ObsConfig obs = ObsConfig::FromEnv(ObsConfig{});
  if (obs.enabled) {
    std::cout << "  observability: on (phase breakdown";
    if (obs.SamplingOn()) {
      std::cout << "; time-series every " << ToSeconds(obs.sample_interval)
                << "s -> " << obs.sample_dir;
    }
    if (obs.TracingOn()) std::cout << "; perfetto traces -> " << obs.trace_dir;
    std::cout << ")\n";
  }
}

}  // namespace bench
}  // namespace ccsim
