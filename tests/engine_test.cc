// Integration tests for the closed-system engine: lifecycle, admission
// control, metrics plumbing, determinism, and queueing-theory sanity checks.
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "closure_events.h"
#include "core/closed_system.h"
#include "core/experiment.h"
#include "sim/simulator.h"

namespace ccsim {
namespace {

/// A small, fast workload with meaningful contention.
WorkloadParams SmallWorkload() {
  WorkloadParams w;
  w.db_size = 100;
  w.tran_size = 4;
  w.min_size = 2;
  w.max_size = 6;
  w.write_prob = 0.25;
  w.num_terms = 20;
  w.mpl = 5;
  w.ext_think_time = kSecond;
  w.obj_io = FromMillis(5);
  w.obj_cpu = FromMillis(2);
  return w;
}

EngineConfig SmallConfig(const std::string& algorithm) {
  EngineConfig config;
  config.workload = SmallWorkload();
  config.resources = ResourceConfig::Finite(1, 2);
  config.algorithm = algorithm;
  config.seed = 7;
  return config;
}

TEST(EngineConfigTest, ApplyConfigReadsWorkloadResourcesAndSeed) {
  EngineConfig engine;
  Config config;
  std::string error;
  ASSERT_TRUE(config.ParseArgs({"mpl=7", "num_cpus=3", "seed=9"}, &error));
  engine.ApplyConfig(config);
  EXPECT_EQ(engine.workload.mpl, 7);
  EXPECT_EQ(engine.resources.num_cpus, 3);
  EXPECT_EQ(engine.resources.num_disks, 2);  // Absent keys keep their values.
  EXPECT_FALSE(engine.resources.infinite);
  EXPECT_EQ(engine.seed, 9u);
  std::ostringstream unread;
  EXPECT_TRUE(config.CheckAllRead(unread)) << unread.str();
}

TEST(EngineTest, EveryAlgorithmCommits) {
  for (const std::string& algorithm : AllAlgorithms()) {
    Simulator sim;
    ClosedSystem system(&sim, SmallConfig(algorithm));
    MetricsReport report =
        system.RunExperiment(4, 5 * kSecond, 2 * kSecond);
    EXPECT_GT(report.commits, 0) << algorithm;
    EXPECT_GT(report.throughput.mean, 0.0) << algorithm;
    EXPECT_EQ(report.algorithm, algorithm);
  }
}

TEST(EngineTest, MplIsNeverExceeded) {
  Simulator sim;
  ClosureEvents events(&sim);
  EngineConfig config = SmallConfig("blocking");
  config.workload.mpl = 3;
  ClosedSystem system(&sim, config);
  system.Prime();
  // Probe the active count at 10 ms granularity for 20 simulated seconds.
  int violations = 0;
  for (int i = 1; i <= 2000; ++i) {
    events.Schedule(i * 10 * kMillisecond, [&] {
      if (system.active_count() > 3) ++violations;
    });
  }
  sim.RunUntil(21 * kSecond);
  EXPECT_EQ(violations, 0);
  EXPECT_GT(system.total_commits(), 0);
}

TEST(EngineTest, PopulationIsConserved) {
  Simulator sim;
  ClosureEvents events(&sim);
  EngineConfig config = SmallConfig("immediate_restart");
  ClosedSystem system(&sim, config);
  system.Prime();
  int violations = 0;
  for (int i = 1; i <= 1000; ++i) {
    events.Schedule(i * 20 * kMillisecond, [&] {
      // Active + ready can never exceed the closed population.
      if (system.active_count() +
              static_cast<int>(system.ready_queue_length()) >
          config.workload.num_terms) {
        ++violations;
      }
      if (system.active_count() < 0) ++violations;
    });
  }
  sim.RunUntil(21 * kSecond);
  EXPECT_EQ(violations, 0);
}

TEST(EngineTest, SameSeedSameResults) {
  auto run = [] {
    Simulator sim;
    ClosedSystem system(&sim, SmallConfig("blocking"));
    return system.RunExperiment(4, 5 * kSecond, 2 * kSecond);
  };
  MetricsReport a = run();
  MetricsReport b = run();
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_DOUBLE_EQ(a.throughput.mean, b.throughput.mean);
  EXPECT_DOUBLE_EQ(a.response_mean.mean, b.response_mean.mean);
  EXPECT_DOUBLE_EQ(a.disk_util_total.mean, b.disk_util_total.mean);
}

TEST(EngineTest, DifferentSeedsDifferentSamplePaths) {
  EngineConfig c1 = SmallConfig("blocking");
  EngineConfig c2 = SmallConfig("blocking");
  c2.seed = 8;
  Simulator s1, s2;
  ClosedSystem sys1(&s1, c1), sys2(&s2, c2);
  MetricsReport a = sys1.RunExperiment(4, 5 * kSecond, 2 * kSecond);
  MetricsReport b = sys2.RunExperiment(4, 5 * kSecond, 2 * kSecond);
  EXPECT_NE(a.commits, b.commits);  // Equality would be a one-in-many fluke.
}

TEST(EngineTest, LittlesLawRoughlyHolds) {
  // Closed system: population = X * (R + Z). With low conflict and ample
  // mpl, the identity should hold to within statistical noise.
  Simulator sim;
  EngineConfig config = SmallConfig("blocking");
  config.workload.db_size = 10000;  // Nearly conflict-free.
  config.workload.mpl = 20;
  config.resources = ResourceConfig::Infinite();
  ClosedSystem system(&sim, config);
  MetricsReport r = system.RunExperiment(10, 10 * kSecond, 5 * kSecond);
  double x = r.throughput.mean;
  double resp = r.response_mean.mean;
  double population = x * (resp + ToSeconds(config.workload.ext_think_time));
  EXPECT_NEAR(population, config.workload.num_terms,
              0.15 * config.workload.num_terms);
}

TEST(EngineTest, InfiniteResourcesResponseNearServiceSum) {
  // With infinite resources and no conflicts, response time should approach
  // the raw service demand of a mean transaction.
  Simulator sim;
  EngineConfig config = SmallConfig("optimistic");
  config.workload.db_size = 100000;
  config.resources = ResourceConfig::Infinite();
  ClosedSystem system(&sim, config);
  MetricsReport r = system.RunExperiment(5, 10 * kSecond, 5 * kSecond);
  double reads = config.workload.tran_size;
  double writes = reads * config.workload.write_prob;
  double service = reads * ToSeconds(config.workload.obj_io +
                                     config.workload.obj_cpu) +
                   writes * ToSeconds(config.workload.obj_cpu +
                                      config.workload.obj_io);
  EXPECT_NEAR(r.response_mean.mean, service, 0.25 * service);
}

TEST(EngineTest, LockFreeAlgorithmsNeverBlock) {
  for (const char* algorithm : {"immediate_restart", "optimistic"}) {
    Simulator sim;
    ClosedSystem system(&sim, SmallConfig(algorithm));
    MetricsReport r = system.RunExperiment(4, 5 * kSecond, 2 * kSecond);
    EXPECT_EQ(r.blocks, 0) << algorithm;
    EXPECT_DOUBLE_EQ(r.block_ratio.mean, 0.0) << algorithm;
  }
}

TEST(EngineTest, ContendedBlockingBlocksAndRestartsOnDeadlock) {
  Simulator sim;
  EngineConfig config = SmallConfig("blocking");
  config.workload.db_size = 20;  // Very high contention.
  config.workload.write_prob = 0.5;
  ClosedSystem system(&sim, config);
  MetricsReport r = system.RunExperiment(4, 10 * kSecond, 5 * kSecond);
  EXPECT_GT(r.blocks, 0);
  // Deadlock victims are the only restarts blocking can have.
  EXPECT_EQ(r.cc_stats.deadlock_victims > 0, r.restarts > 0);
}

TEST(EngineTest, UtilizationWithinBounds) {
  for (const std::string& algorithm : PaperAlgorithms()) {
    Simulator sim;
    ClosedSystem system(&sim, SmallConfig(algorithm));
    MetricsReport r = system.RunExperiment(4, 5 * kSecond, 2 * kSecond);
    EXPECT_GE(r.disk_util_total.mean, 0.0) << algorithm;
    EXPECT_LE(r.disk_util_total.mean, 1.0 + 1e-9) << algorithm;
    EXPECT_GE(r.cpu_util_total.mean, 0.0) << algorithm;
    EXPECT_LE(r.cpu_util_total.mean, 1.0 + 1e-9) << algorithm;
    // Useful <= total, modulo small cross-batch attribution skew.
    EXPECT_LE(r.disk_util_useful.mean, r.disk_util_total.mean + 0.05)
        << algorithm;
    EXPECT_LE(r.cpu_util_useful.mean, r.cpu_util_total.mean + 0.05)
        << algorithm;
  }
}

TEST(EngineTest, BlockingUsefulEqualsTotalWhenNoRestarts) {
  Simulator sim;
  EngineConfig config = SmallConfig("blocking");
  config.workload.db_size = 100000;  // No conflicts => no restarts.
  ClosedSystem system(&sim, config);
  MetricsReport r = system.RunExperiment(5, 10 * kSecond, 5 * kSecond);
  EXPECT_EQ(r.restarts, 0);
  // All consumed resources were useful (small skew from in-flight work at
  // batch boundaries).
  EXPECT_NEAR(r.disk_util_useful.mean, r.disk_util_total.mean, 0.03);
}

TEST(EngineTest, ResponseTimeExceedsBareServiceTime) {
  Simulator sim;
  ClosedSystem system(&sim, SmallConfig("blocking"));
  MetricsReport r = system.RunExperiment(4, 5 * kSecond, 2 * kSecond);
  // Minimum possible: min_size reads with no queueing or writes.
  double floor = SmallWorkload().min_size *
                 ToSeconds(SmallWorkload().obj_io + SmallWorkload().obj_cpu);
  EXPECT_GT(r.response_mean.mean, floor);
}

TEST(EngineTest, AdaptiveResponseAverageTracksCommits) {
  Simulator sim;
  ClosedSystem system(&sim, SmallConfig("immediate_restart"));
  MetricsReport r = system.RunExperiment(4, 5 * kSecond, 2 * kSecond);
  ASSERT_GT(r.commits, 0);
  EXPECT_GT(system.MeanResponseSeconds(), 0.0);
  EXPECT_LT(system.MeanResponseSeconds(), 30.0);
}

TEST(EngineTest, SetMplAdmitsImmediately) {
  Simulator sim;
  EngineConfig config = SmallConfig("blocking");
  config.workload.mpl = 1;
  ClosedSystem system(&sim, config);
  system.Prime();
  sim.RunUntil(3 * kSecond);
  ASSERT_GT(system.ready_queue_length(), 0u) << "expected a backlog at mpl=1";
  int before = system.active_count();
  system.SetMpl(10);
  EXPECT_GT(system.active_count(), before);
  EXPECT_EQ(system.mpl(), 10);
}

TEST(EngineTest, LoweringMplDrainsGradually) {
  Simulator sim;
  EngineConfig config = SmallConfig("blocking");
  config.workload.mpl = 10;
  ClosedSystem system(&sim, config);
  system.Prime();
  sim.RunUntil(3 * kSecond);
  system.SetMpl(2);
  // No new admissions; active transactions finish on their own.
  sim.RunUntil(13 * kSecond);
  EXPECT_LE(system.active_count(), 2);
}

TEST(EngineTest, RestartRatioCountsValidationFailures) {
  Simulator sim;
  EngineConfig config = SmallConfig("optimistic");
  config.workload.db_size = 20;
  config.workload.write_prob = 0.75;
  ClosedSystem system(&sim, config);
  MetricsReport r = system.RunExperiment(4, 10 * kSecond, 5 * kSecond);
  EXPECT_GT(r.restarts, 0);
  EXPECT_GT(r.cc_stats.validation_failures, 0);
  EXPECT_GT(r.restart_ratio.mean, 0.0);
}

TEST(EngineTest, ReportBookkeepingConsistent) {
  Simulator sim;
  ClosedSystem system(&sim, SmallConfig("blocking"));
  MetricsReport r = system.RunExperiment(4, 5 * kSecond, 2 * kSecond);
  EXPECT_EQ(r.batches, 4);
  EXPECT_DOUBLE_EQ(r.measured_seconds, 20.0);
  // Throughput mean × measured time == total commits (same data, two views).
  EXPECT_NEAR(r.throughput.mean * r.measured_seconds,
              static_cast<double>(r.commits), 1e-6);
  EXPECT_GE(r.avg_active_mpl, 0.0);
  EXPECT_LE(r.avg_active_mpl, static_cast<double>(r.mpl) + 1e-9);
}

TEST(EngineTest, InternalThinkLengthensResponses) {
  EngineConfig fast = SmallConfig("blocking");
  EngineConfig slow = SmallConfig("blocking");
  slow.workload.int_think_time = 2 * kSecond;
  Simulator s1, s2;
  ClosedSystem sys_fast(&s1, fast), sys_slow(&s2, slow);
  MetricsReport a = sys_fast.RunExperiment(4, 10 * kSecond, 5 * kSecond);
  MetricsReport b = sys_slow.RunExperiment(4, 10 * kSecond, 5 * kSecond);
  EXPECT_GT(b.response_mean.mean, a.response_mean.mean + 1.0);
}

TEST(EngineTest, ReadOnlyWorkloadHasNoConflicts) {
  for (const std::string& algorithm : PaperAlgorithms()) {
    Simulator sim;
    EngineConfig config = SmallConfig(algorithm);
    config.workload.write_prob = 0.0;
    config.workload.db_size = 30;  // Hot, but read-only.
    ClosedSystem system(&sim, config);
    MetricsReport r = system.RunExperiment(4, 5 * kSecond, 2 * kSecond);
    EXPECT_EQ(r.restarts, 0) << algorithm;
    EXPECT_EQ(r.blocks, 0) << algorithm;
  }
}

// Both algorithms whose default delay is not kNone livelock without one.
TEST(EngineDeathTest, ImmediateRestartWithNoDelayIsRejected) {
  for (const char* algorithm : {"immediate_restart", "wait_die"}) {
    SCOPED_TRACE(algorithm);
    Simulator sim;
    EngineConfig config = SmallConfig(algorithm);
    config.restart_delay_mode = RestartDelayMode::kNone;
    EXPECT_DEATH(ClosedSystem(&sim, config), "requires a restart delay");
  }
}

TEST(EngineDeathTest, XLockOnReadIntentIsRejectedForTimestampOrdering) {
  for (const char* algorithm : {"basic_to", "mvto"}) {
    SCOPED_TRACE(algorithm);
    Simulator sim;
    EngineConfig config = SmallConfig(algorithm);
    config.x_lock_on_read_intent = true;
    EXPECT_DEATH(ClosedSystem(&sim, config),
                 "x_lock_on_read_intent is not supported");
  }
}

TEST(EngineDeathTest, PrimeTwiceAborts) {
  Simulator sim;
  ClosedSystem system(&sim, SmallConfig("blocking"));
  system.Prime();
  EXPECT_DEATH(system.Prime(), "twice");
}

}  // namespace
}  // namespace ccsim
