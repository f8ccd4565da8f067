// The parallel runner's contract (docs/EXECUTION.md): a sweep or
// replication set produces bit-identical metrics AND replay digests at any
// job count, because every point's seed is derived up front and every point
// owns a private Simulator. These tests run the same sweep at CCSIM_JOBS
// 1, 2, and 8 and compare everything the determinism suite compares.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"

namespace ccsim {
namespace {

EngineConfig SmallBase() {
  EngineConfig config;
  config.workload.db_size = 200;
  config.workload.tran_size = 4;
  config.workload.min_size = 2;
  config.workload.max_size = 6;
  config.workload.num_terms = 10;
  config.workload.obj_io = FromMillis(5);
  config.workload.obj_cpu = FromMillis(2);
  config.resources = ResourceConfig::Finite(1, 2);
  config.seed = 7;
  config.audit = true;  // Replay digests catch hidden nondeterminism.
  return config;
}

RunLengths SmallLengths() {
  RunLengths lengths;
  lengths.batches = 3;
  lengths.batch_length = 3 * kSecond;
  lengths.warmup = 2 * kSecond;
  return lengths;
}

SweepConfig SmallSweep(int jobs) {
  SweepConfig sweep;
  sweep.base = SmallBase();
  sweep.algorithms = {"blocking", "immediate_restart", "optimistic"};
  sweep.mpls = {2, 4, 8};
  sweep.lengths = SmallLengths();
  sweep.jobs = jobs;
  return sweep;
}

void ExpectBitIdentical(const std::vector<MetricsReport>& a,
                        const std::vector<MetricsReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(a[i].algorithm, b[i].algorithm);
    EXPECT_EQ(a[i].mpl, b[i].mpl);
    EXPECT_EQ(a[i].commits, b[i].commits);
    EXPECT_EQ(a[i].restarts, b[i].restarts);
    EXPECT_EQ(a[i].blocks, b[i].blocks);
    EXPECT_EQ(a[i].throughput.mean, b[i].throughput.mean);
    EXPECT_EQ(a[i].throughput.half_width, b[i].throughput.half_width);
    EXPECT_EQ(a[i].response_mean.mean, b[i].response_mean.mean);
    EXPECT_EQ(a[i].response_max, b[i].response_max);
    EXPECT_EQ(a[i].disk_util_total.mean, b[i].disk_util_total.mean);
    EXPECT_EQ(a[i].cpu_util_total.mean, b[i].cpu_util_total.mean);
    ASSERT_TRUE(a[i].audited);
    ASSERT_TRUE(b[i].audited);
    EXPECT_EQ(a[i].audit_violations, 0);
    EXPECT_EQ(a[i].replay_digest, b[i].replay_digest);
    EXPECT_EQ(a[i].audit_checks, b[i].audit_checks);
  }
}

TEST(ParallelSweepTest, JobCountsProduceBitIdenticalResults) {
  std::vector<MetricsReport> serial = RunSweep(SmallSweep(1));
  std::vector<MetricsReport> two = RunSweep(SmallSweep(2));
  std::vector<MetricsReport> eight = RunSweep(SmallSweep(8));
  ExpectBitIdentical(serial, two);
  ExpectBitIdentical(serial, eight);
}

TEST(ParallelSweepTest, EnvJobsMatchesExplicitJobs) {
  std::vector<MetricsReport> explicit_jobs = RunSweep(SmallSweep(4));
  setenv("CCSIM_JOBS", "4", 1);
  std::vector<MetricsReport> env_jobs = RunSweep(SmallSweep(0));
  unsetenv("CCSIM_JOBS");
  ExpectBitIdentical(explicit_jobs, env_jobs);
}

TEST(ParallelSweepTest, ReportsStayInSweepOrder) {
  SweepConfig sweep = SmallSweep(8);
  auto reports = RunSweep(sweep);
  ASSERT_EQ(reports.size(), sweep.algorithms.size() * sweep.mpls.size());
  size_t i = 0;
  for (const std::string& algorithm : sweep.algorithms) {
    for (int mpl : sweep.mpls) {
      EXPECT_EQ(reports[i].algorithm, algorithm);
      EXPECT_EQ(reports[i].mpl, mpl);
      ++i;
    }
  }
}

TEST(ParallelSweepTest, ProgressFiresOncePerPointAndIsSerialized) {
  SweepConfig sweep = SmallSweep(8);
  std::set<std::pair<std::string, int>> seen;
  int calls = 0;
  auto reports = RunSweep(sweep, [&](const MetricsReport& r) {
    // RunSweep serializes progress calls, so no extra locking is needed —
    // TSan on the CI matrix enforces that this claim holds.
    ++calls;
    seen.insert({r.algorithm, r.mpl});
  });
  EXPECT_EQ(calls, static_cast<int>(reports.size()));
  EXPECT_EQ(seen.size(), reports.size());
}

TEST(ParallelSweepTest, PointSeedsAreDistinctAndUpFront) {
  // Distinct seeds per point: the sweep's points are independent samples.
  auto seeds = DeriveSeeds(42, 21);
  std::set<uint64_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), seeds.size());
  // Derivation is a pure function of (master, count prefix).
  auto again = DeriveSeeds(42, 21);
  EXPECT_EQ(seeds, again);
  auto prefix = DeriveSeeds(42, 5);
  for (size_t i = 0; i < prefix.size(); ++i) EXPECT_EQ(prefix[i], seeds[i]);
  // And actually different points diverge in their op streams.
  SweepConfig sweep = SmallSweep(2);
  SweepOutcome outcome = RunSweepChecked(sweep);
  ASSERT_TRUE(outcome.ok()) << outcome.FailureSummary();
  EXPECT_NE(outcome.points[0].report.replay_digest,
            outcome.points[1].report.replay_digest);
  // Any point re-run alone with its derived seed reproduces the sweep's
  // report bit for bit, so resuming an interrupted sweep means re-running it.
  const std::vector<uint64_t> point_seeds =
      DeriveSeeds(sweep.base.seed, outcome.points.size());
  for (const PointResult& point : outcome.points) {
    SCOPED_TRACE("point " + std::to_string(point.index));
    EXPECT_EQ(point.config.seed, point_seeds[point.index]);
    MetricsReport rerun = RunOnePoint(point.config, sweep.lengths);
    EXPECT_EQ(rerun.commits, point.report.commits);
    EXPECT_EQ(rerun.throughput.mean, point.report.throughput.mean);
    EXPECT_EQ(rerun.replay_digest, point.report.replay_digest);
  }
}

TEST(ParallelSweepTest, InterruptedSweepResumesByRerun) {
  // The resume property: a sweep cut short part way through is resumed by
  // running the same sweep again, and the re-run matches the uninterrupted
  // reference bit for bit. The cut is one point whose config fails the
  // engine's check (immediate_restart needs a restart delay).
  SweepConfig sweep = SmallSweep(2);
  SweepOutcome reference = RunSweepChecked(sweep);
  ASSERT_TRUE(reference.ok()) << reference.FailureSummary();
  std::vector<EngineConfig> configs;
  for (const PointResult& point : reference.points) {
    configs.push_back(point.config);
  }

  std::vector<EngineConfig> broken = configs;
  broken[4].algorithm = "immediate_restart";
  broken[4].restart_delay_mode = RestartDelayMode::kNone;
  SweepOutcome interrupted =
      RunPointsChecked(broken, sweep.lengths, sweep.jobs);
  ASSERT_EQ(interrupted.points.size(), reference.points.size());
  ASSERT_EQ(interrupted.failures().size(), 1u);
  EXPECT_EQ(interrupted.failures()[0]->index, 4u);
  // The points that did complete already equal the reference.
  for (const PointResult& point : interrupted.points) {
    if (!point.ok()) continue;
    SCOPED_TRACE("interrupted point " + std::to_string(point.index));
    const MetricsReport& expected = reference.points[point.index].report;
    EXPECT_EQ(point.report.commits, expected.commits);
    EXPECT_EQ(point.report.replay_digest, expected.replay_digest);
  }

  SweepOutcome resumed = RunPointsChecked(configs, sweep.lengths, sweep.jobs);
  ASSERT_TRUE(resumed.ok()) << resumed.FailureSummary();
  ExpectBitIdentical(reference.SuccessfulReports(),
                     resumed.SuccessfulReports());
}

TEST(RunPointsTest, TakesConfigsVerbatimInInputOrder) {
  std::vector<EngineConfig> configs;
  for (int mpl : {2, 4}) {
    EngineConfig config = SmallBase();
    config.algorithm = "blocking";
    config.workload.mpl = mpl;
    configs.push_back(config);
  }
  auto parallel = RunPoints(configs, SmallLengths(), /*jobs=*/8);
  ASSERT_EQ(parallel.size(), 2u);
  // Each point must equal a direct serial RunOnePoint of the same config:
  // RunPoints adds scheduling, never seed or config changes.
  for (size_t i = 0; i < configs.size(); ++i) {
    MetricsReport direct = RunOnePoint(configs[i], SmallLengths());
    EXPECT_EQ(parallel[i].commits, direct.commits);
    EXPECT_EQ(parallel[i].replay_digest, direct.replay_digest);
    EXPECT_EQ(parallel[i].mpl, configs[i].workload.mpl);
  }
}

/// The contents of every time-series CSV (ts_*.csv) in `dir`, by name.
std::map<std::string, std::string> TimeSeriesFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ts_", 0) != 0 || entry.path().extension() != ".csv") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    files[name] = contents.str();
  }
  return files;
}

TEST(RunPointsTest, PointsSharingANameWriteTheirOwnArtifacts) {
  // Three points that differ only in lock granularity share (algorithm,
  // mpl, seed), the triple artifact names are made of. Each must still get
  // its own time series, the same at any job count.
  std::vector<EngineConfig> configs;
  for (int granule : {1, 4, 16}) {
    EngineConfig config = SmallBase();
    config.algorithm = "blocking";
    config.workload.mpl = 4;
    config.lock_granule_size = granule;
    config.obs.sample_interval = kSecond;
    configs.push_back(config);
  }
  const std::string root = testing::TempDir() + "/shared_point_names";
  std::filesystem::remove_all(root);
  std::map<std::string, std::string> by_jobs[2];
  const int jobs[2] = {1, 4};
  for (int j = 0; j < 2; ++j) {
    const std::string dir = root + "/jobs" + std::to_string(jobs[j]);
    std::filesystem::create_directories(dir);
    for (EngineConfig& config : configs) config.obs.sample_dir = dir;
    RunPoints(configs, SmallLengths(), jobs[j]);
    by_jobs[j] = TimeSeriesFiles(dir);
  }
  EXPECT_EQ(by_jobs[0].size(), configs.size());
  EXPECT_TRUE(by_jobs[0] == by_jobs[1])
      << "the time series differ between 1 and 4 jobs";
  std::filesystem::remove_all(root);
}

TEST(ParallelReplicationTest, JobCountsProduceIdenticalEstimates) {
  EngineConfig config = SmallBase();
  config.algorithm = "blocking";
  ReplicatedEstimate serial =
      RunReplications(config, SmallLengths(), 6, /*jobs=*/1);
  ReplicatedEstimate parallel =
      RunReplications(config, SmallLengths(), 6, /*jobs=*/8);
  EXPECT_EQ(serial.throughput.mean, parallel.throughput.mean);
  EXPECT_EQ(serial.throughput.half_width, parallel.throughput.half_width);
  EXPECT_EQ(serial.response_mean.mean, parallel.response_mean.mean);
  ExpectBitIdentical(serial.replications, parallel.replications);
}

}  // namespace
}  // namespace ccsim
