// Tests for the causal contention profiler (src/obs/blame.h,
// src/obs/contention.h): the integer-µs conservation law across all nine
// algorithms, hot-granule CSV emission, blocking-chain and genealogy
// histograms, and Perfetto waits-for flow events.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cc/factory.h"
#include "core/closed_system.h"
#include "core/report.h"
#include "obs/blame.h"
#include "sim/simulator.h"
#include "util/str.h"

namespace ccsim {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// The obs_test contended configuration: blocks, deadlocks, wounds,
// validation failures, and timestamp rejections all occur here depending on
// the algorithm plugged in.
EngineConfig ContendedConfig() {
  EngineConfig config;
  config.workload.db_size = 100;
  config.workload.tran_size = 5;
  config.workload.min_size = 2;
  config.workload.max_size = 8;
  config.workload.write_prob = 0.4;
  config.workload.num_terms = 20;
  config.workload.mpl = 10;
  config.workload.obj_io = FromMillis(10);
  config.workload.obj_cpu = FromMillis(3);
  config.resources = ResourceConfig::Finite(1, 2);
  config.algorithm = "blocking";
  config.seed = 71;
  return config;
}

// With `version_reads`, the run also records its history and reports how
// many version reads it holds.
MetricsReport RunContended(const std::string& algorithm,
                           size_t* version_reads = nullptr) {
  EngineConfig config = ContendedConfig();
  config.algorithm = algorithm;
  config.obs.enabled = true;
  config.record_history = version_reads != nullptr;
  Simulator sim;
  ClosedSystem system(&sim, config);
  MetricsReport report = system.RunExperiment(
      /*batches=*/2, /*batch_length=*/5 * kSecond, /*warmup=*/0);
  if (version_reads != nullptr) {
    *version_reads = system.history().version_reads().size();
  }
  return report;
}

// --- The conservation law ------------------------------------------------

// The acceptance criterion of the profiler: for every algorithm, attributed
// plus unattributed blame reconciles *exactly* (integer µs) with the phase
// sums the engine booked — blame never invents or loses a microsecond.
TEST(BlameConservationTest, IdentityHoldsExactlyForAllNineAlgorithms) {
  ASSERT_EQ(AllAlgorithms().size(), 9u);
  for (const std::string& algorithm : AllAlgorithms()) {
    MetricsReport report = RunContended(algorithm);
    const BlameBreakdown& b = report.blame;
    ASSERT_TRUE(b.collected) << algorithm;
    ASSERT_GT(report.commits, 0) << algorithm;

    EXPECT_EQ(b.wasted_attributed_us + b.wasted_unattributed_us, b.wasted_us)
        << algorithm;
    EXPECT_EQ(b.blocked_attributed_us + b.blocked_unattributed_us,
              b.blocked_us)
        << algorithm;
    // Every charge must also have been booked as phase time.
    EXPECT_GE(b.wasted_unattributed_us, 0) << algorithm;
    EXPECT_GE(b.blocked_unattributed_us, 0) << algorithm;

    // The integer totals are the same numbers the phase breakdown reports
    // as per-commit means (wasted / cc_block), just un-normalized.
    double n = static_cast<double>(report.commits);
    EXPECT_NEAR(ToSeconds(b.wasted_us), report.phases.wasted * n, 1e-6)
        << algorithm;
    EXPECT_NEAR(ToSeconds(b.blocked_us), report.phases.cc_block * n, 1e-6)
        << algorithm;

    // Under this contended configuration every algorithm resolves *some*
    // conflict, and each resolution names an opponent.
    EXPECT_GT(b.restarts_charged + b.blocks_charged, 0) << algorithm;
    EXPECT_GT(b.wasted_attributed_us + b.blocked_attributed_us, 0)
        << algorithm;

    // Genealogy: every measured commit burned at least one incarnation.
    EXPECT_GE(b.genealogy_mean, 1.0) << algorithm;
    EXPECT_GE(static_cast<double>(b.genealogy_max), b.genealogy_mean)
        << algorithm;

    // Worst-offender consistency.
    if (b.restarts_charged > 0) {
      EXPECT_NE(b.top_aborter, kInvalidTxn) << algorithm;
      EXPECT_GT(b.top_aborter_wasted_us, 0) << algorithm;
      EXPECT_LE(b.top_aborter_wasted_us, b.wasted_attributed_us) << algorithm;
    }
    if (b.blocks_charged > 0) {
      EXPECT_NE(b.top_holder, kInvalidTxn) << algorithm;
      EXPECT_GT(b.top_holder_blocked_us, 0) << algorithm;
      EXPECT_LE(b.top_holder_blocked_us, b.blocked_attributed_us) << algorithm;
    }
  }
}

// Pins who each algorithm charges, and for how long, at the contended
// point, with the history recorded too: every blame site and every version
// read must keep reporting the same opponents however they reach the
// engine. Conservation alone would let a charge move between victims.
TEST(BlamePinTest, ChargesAndVersionReadsMatchForAllNineAlgorithms) {
  struct Pin {
    const char* algorithm;
    int64_t restarts_charged;
    int64_t blocks_charged;
    int64_t wasted_attributed_us;
    int64_t blocked_attributed_us;
    TxnId top_aborter;
    TxnId top_holder;
    size_t version_reads;
  };
  const Pin kPins[] = {
      {"blocking", 12, 43, 1590264, 2649453, 88, 141, 0},
      {"immediate_restart", 54, 0, 5287865, 0, 90, kInvalidTxn, 0},
      {"optimistic", 50, 0, 8088997, 0, 88, kInvalidTxn, 0},
      {"optimistic_forward", 18, 18, 2114158, 905982, 88, 127, 0},
      {"wound_wait", 23, 51, 2038813, 1689934, 143, 139, 0},
      {"wait_die", 36, 18, 2800172, 1202804, 88, 141, 0},
      {"basic_to", 52, 12, 10752722, 445000, 90, 85, 0},
      {"mvto", 52, 12, 10752722, 445000, 90, 85, 1150},
      {"static_locking", 0, 43, 0, 5090244, kInvalidTxn, 31, 0},
  };
  ASSERT_EQ(std::size(kPins), AllAlgorithms().size());
  for (size_t i = 0; i < std::size(kPins); ++i) {
    const Pin& pin = kPins[i];
    ASSERT_EQ(pin.algorithm, AllAlgorithms()[i]);
    size_t version_reads = 0;
    MetricsReport report = RunContended(pin.algorithm, &version_reads);
    const BlameBreakdown& b = report.blame;
    EXPECT_EQ(b.restarts_charged, pin.restarts_charged) << pin.algorithm;
    EXPECT_EQ(b.blocks_charged, pin.blocks_charged) << pin.algorithm;
    EXPECT_EQ(b.wasted_attributed_us, pin.wasted_attributed_us)
        << pin.algorithm;
    EXPECT_EQ(b.blocked_attributed_us, pin.blocked_attributed_us)
        << pin.algorithm;
    EXPECT_EQ(b.top_aborter, pin.top_aborter) << pin.algorithm;
    EXPECT_EQ(b.top_holder, pin.top_holder) << pin.algorithm;
    EXPECT_EQ(version_reads, pin.version_reads) << pin.algorithm;
  }
}

TEST(BlameConservationTest, ObsOffCollectsNothing) {
  EngineConfig config = ContendedConfig();
  Simulator sim;
  ClosedSystem system(&sim, config);
  MetricsReport report = system.RunExperiment(
      /*batches=*/1, /*batch_length=*/3 * kSecond, /*warmup=*/0);
  EXPECT_FALSE(report.blame.collected);
  EXPECT_EQ(report.blame.wasted_us, 0);
  EXPECT_EQ(report.blame.blocked_us, 0);
  EXPECT_EQ(report.blame.restarts_charged, 0);
  EXPECT_EQ(report.blame.blocks_charged, 0);
  EXPECT_EQ(report.blame.top_aborter, kInvalidTxn);
  EXPECT_EQ(report.blame.top_holder, kInvalidTxn);
}

// --- Report rendering gates on collection --------------------------------

TEST(BlameReportTest, CsvGrowsBlameColumnsOnlyWhenCollected) {
  MetricsReport off;
  off.algorithm = "blocking";
  off.mpl = 5;
  std::string path_off = testing::TempDir() + "blame_csv_off.csv";
  ASSERT_TRUE(WriteReportCsv(path_off, {off}));
  EXPECT_EQ(ReadFile(path_off).find("blame_"), std::string::npos)
      << "an obs-off sweep must keep the historical CSV layout byte-for-byte";

  MetricsReport on = off;
  on.blame.collected = true;
  on.blame.wasted_us = 1234;
  on.blame.wasted_attributed_us = 1000;
  on.blame.wasted_unattributed_us = 234;
  std::string path_on = testing::TempDir() + "blame_csv_on.csv";
  ASSERT_TRUE(WriteReportCsv(path_on, {on}));
  std::string text = ReadFile(path_on);
  EXPECT_NE(text.find("blame_wasted_us"), std::string::npos);
  EXPECT_NE(text.find("blame_wasted_attr_us"), std::string::npos);
  EXPECT_NE(text.find("blame_genealogy_mean"), std::string::npos);
  EXPECT_NE(text.find("1234"), std::string::npos);
  std::remove(path_off.c_str());
  std::remove(path_on.c_str());
}

TEST(BlameReportTest, TableRendersBlameColumns) {
  MetricsReport report;
  report.algorithm = "blocking";
  report.mpl = 5;
  report.blame.collected = true;
  report.blame.wasted_us = 100;
  report.blame.wasted_attributed_us = 75;
  report.blame.genealogy_mean = 1.5;
  report.blame.genealogy_max = 4;
  ReportColumns columns = ReportColumns::Parse("blame");
  std::ostringstream out;
  PrintReportTable(out, "test", {report}, columns);
  EXPECT_NE(out.str().find("wst_attr"), std::string::npos);
  EXPECT_NE(out.str().find("gen_max"), std::string::npos);
}

// --- Hot-granule accounting ----------------------------------------------

TEST(HotGranuleTest, CsvNamesTheContendedObjects) {
  EngineConfig config = ContendedConfig();
  config.obs.enabled = true;
  config.obs.hot_path = testing::TempDir() + "blame_hot_test.csv";
  Simulator sim;
  ClosedSystem system(&sim, config);
  system.RunExperiment(/*batches=*/2, /*batch_length=*/5 * kSecond,
                       /*warmup=*/0);

  std::istringstream csv(ReadFile(config.obs.hot_path));
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, "object,conflicts,blocks,restarts");
  int rows = 0;
  int64_t last_conflicts = -1;
  int64_t total_blocks = 0;
  while (std::getline(csv, line)) {
    std::vector<std::string> fields = Split(line, ',');
    ASSERT_EQ(fields.size(), 4u) << line;
    int64_t object = std::stoll(fields[0]);
    int64_t conflicts = std::stoll(fields[1]);
    EXPECT_GE(object, 0);
    EXPECT_LT(object, config.workload.db_size);
    EXPECT_GT(conflicts, 0);
    // Rows come hottest-first.
    if (last_conflicts >= 0) {
      EXPECT_LE(conflicts, last_conflicts);
    }
    last_conflicts = conflicts;
    total_blocks += std::stoll(fields[2]);
    ++rows;
  }
  // db_size 100 at mpl 10: many granules contend, and blocking blocks.
  EXPECT_GT(rows, 1);
  EXPECT_GT(total_blocks, 0);
  std::remove(config.obs.hot_path.c_str());
}

// --- Blocking-chain telemetry --------------------------------------------

TEST(BlockingChainTest, DepthAndGenealogyHistogramsPopulate) {
  EngineConfig config = ContendedConfig();
  config.obs.enabled = true;
  Simulator sim;
  ClosedSystem system(&sim, config);
  system.RunExperiment(/*batches=*/2, /*batch_length=*/5 * kSecond,
                       /*warmup=*/0);
  const StatsRegistry* registry = system.stats_registry();
  ASSERT_NE(registry, nullptr);
  std::vector<std::string> names = registry->ColumnNames();
  auto has = [&names](const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has("block_chain_depth_count"));
  EXPECT_TRUE(has("block_chain_depth_p50"));
  EXPECT_TRUE(has("restart_genealogy_count"));
  EXPECT_TRUE(has("restart_genealogy_p50"));
  // Blocking at mpl 10 on 100 granules forms real waits-for chains.
  EXPECT_GT(registry->ValueOf("block_chain_depth_count"), 0.0);
  EXPECT_GE(registry->ValueOf("block_chain_depth_p50"), 1.0);
  EXPECT_GT(registry->ValueOf("restart_genealogy_count"), 0.0);
}

TEST(BlockingChainTest, TraceCarriesWaitsForFlowArrows) {
  EngineConfig config = ContendedConfig();
  config.obs.enabled = true;
  config.obs.trace_path = testing::TempDir() + "blame_flow_test.json";
  Simulator sim;
  ClosedSystem system(&sim, config);
  system.RunExperiment(/*batches=*/1, /*batch_length=*/4 * kSecond,
                       /*warmup=*/0);
  std::string trace = ReadFile(config.obs.trace_path);
  // One s/f pair per block event, both named "waits-for" and sharing an id.
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"waits-for\""), std::string::npos);
  EXPECT_NE(trace.find("\"bp\":\"e\""), std::string::npos);
  std::remove(config.obs.trace_path.c_str());
}

}  // namespace
}  // namespace ccsim
