// Tests for the experiment runner, environment overrides, report tables,
// CSV output, and the adaptive-mpl controller.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/adaptive_mpl.h"
#include "core/experiment.h"
#include "core/report.h"
#include "util/check.h"

namespace ccsim {
namespace {

EngineConfig FastBase() {
  EngineConfig config;
  config.workload.db_size = 200;
  config.workload.tran_size = 4;
  config.workload.min_size = 2;
  config.workload.max_size = 6;
  config.workload.num_terms = 10;
  config.workload.obj_io = FromMillis(5);
  config.workload.obj_cpu = FromMillis(2);
  config.resources = ResourceConfig::Finite(1, 2);
  config.seed = 3;
  return config;
}

RunLengths FastLengths() {
  RunLengths lengths;
  lengths.batches = 3;
  lengths.batch_length = 4 * kSecond;
  lengths.warmup = 2 * kSecond;
  return lengths;
}

TEST(RunLengthsTest, EnvOverrides) {
  setenv("CCSIM_BATCHES", "7", 1);
  setenv("CCSIM_BATCH_SECONDS", "2.5", 1);
  setenv("CCSIM_WARMUP_SECONDS", "1.25", 1);
  RunLengths lengths = RunLengths::FromEnv(RunLengths{});
  EXPECT_EQ(lengths.batches, 7);
  EXPECT_EQ(lengths.batch_length, FromSeconds(2.5));
  EXPECT_EQ(lengths.warmup, FromSeconds(1.25));
  unsetenv("CCSIM_BATCHES");
  unsetenv("CCSIM_BATCH_SECONDS");
  unsetenv("CCSIM_WARMUP_SECONDS");
}

TEST(RunLengthsTest, NonFiniteLengthsAreHardErrors) {
  for (const char* name : {"CCSIM_BATCH_SECONDS", "CCSIM_WARMUP_SECONDS"}) {
    for (const char* value : {"nan", "inf", "1e300"}) {
      SCOPED_TRACE(std::string(name) + "=" + value);
      setenv(name, value, 1);
      {
        ScopedCheckTrap trap;
        EXPECT_THROW(RunLengths::FromEnv(RunLengths{}), CheckFailure);
      }
      unsetenv(name);
    }
  }
}

TEST(RunLengthsTest, DefaultsMatchPaperMethodology) {
  unsetenv("CCSIM_BATCHES");
  unsetenv("CCSIM_BATCH_SECONDS");
  unsetenv("CCSIM_WARMUP_SECONDS");
  RunLengths lengths = RunLengths::FromEnv(RunLengths{});
  EXPECT_EQ(lengths.batches, 20);  // The paper's 20 batches.
}

TEST(PaperMplLevelsTest, DefaultLevels) {
  unsetenv("CCSIM_MPLS");
  auto mpls = PaperMplLevels();
  EXPECT_EQ(mpls, (std::vector<int>{5, 10, 25, 50, 75, 100, 200}));
}

TEST(PaperMplLevelsTest, EnvOverride) {
  setenv("CCSIM_MPLS", "2,4,8", 1);
  auto mpls = PaperMplLevels();
  EXPECT_EQ(mpls, (std::vector<int>{2, 4, 8}));
  unsetenv("CCSIM_MPLS");
}

TEST(PaperMplLevelsDeathTest, RejectsNonPositiveLevels) {
  // Regression: zero/negative CCSIM_MPLS entries used to flow straight into
  // the engine and misconfigure it downstream.
  setenv("CCSIM_MPLS", "5,0,25", 1);
  EXPECT_DEATH(PaperMplLevels(), "must be a positive multiprogramming level");
  setenv("CCSIM_MPLS", "-10", 1);
  EXPECT_DEATH(PaperMplLevels(), "must be a positive multiprogramming level");
  unsetenv("CCSIM_MPLS");
}

TEST(RunSweepTest, OrderingAndOverrides) {
  SweepConfig sweep;
  sweep.base = FastBase();
  sweep.algorithms = {"blocking", "optimistic"};
  sweep.mpls = {2, 5};
  sweep.lengths = FastLengths();
  int progress_calls = 0;
  auto reports = RunSweep(sweep, [&](const MetricsReport&) { ++progress_calls; });
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(progress_calls, 4);
  EXPECT_EQ(reports[0].algorithm, "blocking");
  EXPECT_EQ(reports[0].mpl, 2);
  EXPECT_EQ(reports[1].algorithm, "blocking");
  EXPECT_EQ(reports[1].mpl, 5);
  EXPECT_EQ(reports[2].algorithm, "optimistic");
  EXPECT_EQ(reports[3].mpl, 5);
  for (const auto& r : reports) EXPECT_GT(r.commits, 0);
}

TEST(RunOnePointTest, MatchesDirectEngineRun) {
  EngineConfig config = FastBase();
  config.algorithm = "blocking";
  RunLengths lengths = FastLengths();
  MetricsReport a = RunOnePoint(config, lengths);

  Simulator sim;
  ClosedSystem system(&sim, config);
  MetricsReport b = system.RunExperiment(lengths.batches, lengths.batch_length,
                                         lengths.warmup);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_DOUBLE_EQ(a.throughput.mean, b.throughput.mean);
}

TEST(ReplicationTest, CombinesIndependentRuns) {
  EngineConfig config = FastBase();
  config.algorithm = "blocking";
  ReplicatedEstimate estimate = RunReplications(config, FastLengths(), 5);
  ASSERT_EQ(estimate.replications.size(), 5u);
  EXPECT_EQ(estimate.throughput.batches, 5);
  EXPECT_GT(estimate.throughput.mean, 0.0);
  EXPECT_GT(estimate.throughput.half_width, 0.0);
  // Replications must actually differ (distinct derived seeds).
  bool any_difference = false;
  for (size_t i = 1; i < estimate.replications.size(); ++i) {
    if (estimate.replications[i].commits != estimate.replications[0].commits) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
  // Every replication mean lies inside a few half-widths of the combined
  // mean (coarse coherence check).
  for (const MetricsReport& r : estimate.replications) {
    EXPECT_NEAR(r.throughput.mean, estimate.throughput.mean,
                5 * estimate.throughput.half_width + 1e-9);
  }
}

TEST(ReplicationTest, DeterministicGivenBaseSeed) {
  EngineConfig config = FastBase();
  ReplicatedEstimate a = RunReplications(config, FastLengths(), 3);
  ReplicatedEstimate b = RunReplications(config, FastLengths(), 3);
  EXPECT_DOUBLE_EQ(a.throughput.mean, b.throughput.mean);
  EXPECT_DOUBLE_EQ(a.throughput.half_width, b.throughput.half_width);
}

TEST(ReplicationTest, AgreesWithBatchMeansInterval) {
  // The methodology cross-check: batch means (one long run) and independent
  // replications (several short runs) must estimate the same quantity —
  // their intervals should overlap comfortably on a well-behaved workload.
  EngineConfig config = FastBase();
  config.algorithm = "blocking";
  RunLengths lengths = FastLengths();
  lengths.batches = 8;
  MetricsReport batch_means = RunOnePoint(config, lengths);
  ReplicatedEstimate replications = RunReplications(config, lengths, 6);
  double gap = std::abs(batch_means.throughput.mean -
                        replications.throughput.mean);
  EXPECT_LT(gap, batch_means.throughput.half_width +
                     replications.throughput.half_width + 1e-9);
}

TEST(ReportTest, TableContainsAllRows) {
  SweepConfig sweep;
  sweep.base = FastBase();
  sweep.algorithms = {"blocking"};
  sweep.mpls = {2, 5};
  sweep.lengths = FastLengths();
  auto reports = RunSweep(sweep);

  std::ostringstream out;
  PrintReportTable(out, "unit test table", reports);
  std::string text = out.str();
  EXPECT_NE(text.find("unit test table"), std::string::npos);
  EXPECT_NE(text.find("blocking"), std::string::npos);
  EXPECT_NE(text.find("thruput"), std::string::npos);
  EXPECT_NE(text.find("blk_ratio"), std::string::npos);
}

TEST(ReportTest, ThroughputOnlyColumnsOmitOthers) {
  std::vector<MetricsReport> reports(1);
  reports[0].algorithm = "blocking";
  reports[0].mpl = 5;
  std::ostringstream out;
  PrintReportTable(out, "t", reports, ReportColumns::ThroughputOnly());
  EXPECT_EQ(out.str().find("blk_ratio"), std::string::npos);
  EXPECT_EQ(out.str().find("d_util"), std::string::npos);
}

TEST(ReportTest, CsvRoundTrip) {
  std::vector<MetricsReport> reports(2);
  reports[0].algorithm = "blocking";
  reports[0].mpl = 5;
  reports[0].throughput.mean = 12.5;
  reports[1].algorithm = "optimistic";
  reports[1].mpl = 10;
  std::string path = testing::TempDir() + "/ccsim_report_test.csv";
  ASSERT_TRUE(WriteReportCsv(path, reports));

  std::ifstream in(path);
  std::string header, row1, row2;
  std::getline(in, header);
  std::getline(in, row1);
  std::getline(in, row2);
  EXPECT_NE(header.find("throughput"), std::string::npos);
  EXPECT_NE(row1.find("blocking,5,12.5"), std::string::npos);
  EXPECT_NE(row2.find("optimistic,10"), std::string::npos);
}

TEST(ReportTest, CsvWriteFailureIsReported) {
  // A directory squatting on the path makes the CSV unopenable:
  // WriteReportCsv must say so instead of pretending the file landed.
  std::vector<MetricsReport> reports(1);
  reports[0].algorithm = "blocking";
  reports[0].mpl = 5;
  const std::string path = testing::TempDir() + "/ccsim_squatted.csv";
  std::filesystem::remove_all(path);
  std::filesystem::create_directory(path);
  EXPECT_FALSE(WriteReportCsv(path, reports));
  std::filesystem::remove(path);
  EXPECT_TRUE(WriteReportCsv(path, reports));
  std::filesystem::remove(path);
}

TEST(ReportTest, GnuplotScriptReferencesEverySeries) {
  std::vector<MetricsReport> reports(3);
  reports[0].algorithm = "blocking";
  reports[0].mpl = 5;
  reports[1].algorithm = "blocking";
  reports[1].mpl = 10;
  reports[2].algorithm = "optimistic";
  reports[2].mpl = 5;
  std::string path = testing::TempDir() + "/ccsim_plot_test.gp";
  ASSERT_TRUE(WriteThroughputGnuplot(path, "fig.csv", "my title", reports));

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::string script = text.str();
  EXPECT_NE(script.find("my title"), std::string::npos);
  EXPECT_NE(script.find("'fig.csv'"), std::string::npos);
  // One series per unique algorithm (blocking appears once despite 2 rows).
  EXPECT_EQ(script.find("strcol(1) eq \"blocking\""),
            script.rfind("strcol(1) eq \"blocking\""));
  EXPECT_NE(script.find("strcol(1) eq \"optimistic\""), std::string::npos);
}

TEST(ReportTest, CsvPathForRespectsEnv) {
  unsetenv("CCSIM_CSV_DIR");
  EXPECT_TRUE(CsvPathFor("fig5").empty());
  setenv("CCSIM_CSV_DIR", "/tmp/results", 1);
  EXPECT_EQ(CsvPathFor("fig5"), "/tmp/results/fig5.csv");
  unsetenv("CCSIM_CSV_DIR");
}

TEST(AdaptiveMplTest, ControllerAdjustsMpl) {
  Simulator sim;
  EngineConfig config = FastBase();
  config.algorithm = "blocking";
  config.workload.num_terms = 30;
  config.workload.mpl = 30;  // Start high.
  config.workload.db_size = 50;  // Contended: lower mpl should help.
  ClosedSystem system(&sim, config);
  AdaptiveMplController::Options options;
  options.interval = 3 * kSecond;
  options.min_mpl = 2;
  options.max_mpl = 30;
  options.step = 4;
  AdaptiveMplController controller(&sim, &system, options);
  system.Prime();
  controller.Start();
  sim.RunUntil(60 * kSecond);
  EXPECT_GT(controller.adjustments_made(), 0);
  EXPECT_GE(system.mpl(), options.min_mpl);
  EXPECT_LE(system.mpl(), options.max_mpl);
  EXPECT_GT(system.total_commits(), 0);
}

TEST(AdaptiveMplTest, RespectsBounds) {
  Simulator sim;
  EngineConfig config = FastBase();
  config.workload.mpl = 4;
  ClosedSystem system(&sim, config);
  AdaptiveMplController::Options options;
  options.interval = kSecond;
  options.min_mpl = 3;
  options.max_mpl = 6;
  options.step = 10;  // Oversized step must clamp, not escape.
  AdaptiveMplController controller(&sim, &system, options);
  system.Prime();
  controller.Start();
  for (int i = 1; i <= 30; ++i) {
    sim.RunUntil(static_cast<SimTime>(i) * kSecond);
    EXPECT_GE(system.mpl(), 3);
    EXPECT_LE(system.mpl(), 6);
  }
}

}  // namespace
}  // namespace ccsim
