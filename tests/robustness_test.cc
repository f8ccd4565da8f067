// Failure-path tests for the fault-tolerance layer (docs/EXECUTION.md,
// "Failure semantics"): the checked point runner, the event budget, the run
// guard, and the thread pool's exception capture. Every error path is
// reached by a natural trigger — a poisoned config, a livelocked model, a
// throwing callback — never by a planted fault.
#include <atomic>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "closure_events.h"
#include "core/experiment.h"
#include "exec/thread_pool.h"
#include "exec/watchdog.h"
#include "sim/simulator.h"
#include "util/status.h"

namespace ccsim {
namespace {

EngineConfig FastBase() {
  EngineConfig config;
  config.workload.db_size = 200;
  config.workload.tran_size = 4;
  config.workload.min_size = 2;
  config.workload.max_size = 6;
  config.workload.num_terms = 10;
  config.workload.mpl = 5;
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

/// immediate_restart requires a restart delay; kNone trips the engine's
/// configuration check in the ClosedSystem constructor.
EngineConfig PoisonedConfig() {
  EngineConfig config = FastBase();
  config.algorithm = "immediate_restart";
  config.restart_delay_mode = RestartDelayMode::kNone;
  return config;
}

/// A genuine livelock: immediate restart with a *zero* fixed delay replays
/// the same (exclusively locked, via x_lock_on_read_intent) read set at the
/// same simulated instant forever — restart, re-activate, re-conflict, all
/// at one clock value, so the event loop generates events without ever
/// advancing time. The tiny database and full write sets make the first
/// conflict certain within the warmup.
EngineConfig LivelockedConfig() {
  EngineConfig config = FastBase();
  config.algorithm = "immediate_restart";
  config.restart_delay_mode = RestartDelayMode::kFixed;
  config.fixed_restart_delay = 0;
  config.x_lock_on_read_intent = true;
  config.workload.db_size = 10;
  config.workload.tran_size = 6;
  config.workload.min_size = 6;
  config.workload.max_size = 6;
  config.workload.write_prob = 1.0;
  config.workload.mpl = 8;
  return config;
}

bool ReportsIdentical(const MetricsReport& a, const MetricsReport& b) {
  return a.algorithm == b.algorithm && a.mpl == b.mpl &&
         a.throughput.mean == b.throughput.mean &&
         a.throughput.half_width == b.throughput.half_width &&
         a.response_mean.mean == b.response_mean.mean &&
         a.commits == b.commits && a.restarts == b.restarts &&
         a.blocks == b.blocks && a.replay_digest == b.replay_digest;
}

TEST(TryRunOnePointTest, HealthyPointMatchesUncheckedRunner) {
  EngineConfig config = FastBase();
  RunLengths lengths = FastLengths();
  StatusOr<MetricsReport> checked = TryRunOnePoint(config, lengths);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  MetricsReport unchecked = RunOnePoint(config, lengths);
  EXPECT_TRUE(ReportsIdentical(*checked, unchecked))
      << "the check trap and inert budget must not perturb the simulation";
}

TEST(TryRunOnePointTest, PoisonedConfigBecomesInternalStatus) {
  StatusOr<MetricsReport> result =
      TryRunOnePoint(PoisonedConfig(), FastLengths());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("restart delay"),
            std::string::npos)
      << result.status().ToString();
}

TEST(TryRunOnePointTest, LivelockTripsEventBudget) {
  PointBudget budget;
  budget.max_events = 200000;
  StatusOr<MetricsReport> result =
      TryRunOnePoint(LivelockedConfig(), FastLengths(), budget);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // The diagnostics carry the stuck point's vital signs.
  EXPECT_NE(result.status().message().find("event budget"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("simulated time"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("census:"), std::string::npos);
}

TEST(TryRunOnePointTest, TraceWriteFailureFailsThePoint) {
  // A full device accepts the open and fails the writes: the point must fail
  // with diagnostics instead of reporting results whose trace never landed.
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  EngineConfig config = FastBase();
  config.obs.enabled = true;
  config.obs.trace_path = "/dev/full";
  StatusOr<MetricsReport> result = TryRunOnePoint(config, FastLengths());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("failed writing trace file"),
            std::string::npos)
      << result.status().ToString();
}

TEST(TryRunOnePointTest, GenerousBudgetDoesNotPerturbResults) {
  PointBudget budget;
  budget.max_events = 50'000'000;
  StatusOr<MetricsReport> budgeted =
      TryRunOnePoint(FastBase(), FastLengths(), budget);
  ASSERT_TRUE(budgeted.ok());
  StatusOr<MetricsReport> unbudgeted = TryRunOnePoint(FastBase(), FastLengths());
  ASSERT_TRUE(unbudgeted.ok());
  EXPECT_TRUE(ReportsIdentical(*budgeted, *unbudgeted))
      << "a budget that never trips must be invisible to the results";
}

TEST(RunPointsCheckedTest, PoisonedPointDoesNotSinkTheSweep) {
  std::vector<EngineConfig> configs;
  configs.push_back(FastBase());
  configs.push_back(PoisonedConfig());
  EngineConfig third = FastBase();
  third.algorithm = "optimistic";
  configs.push_back(third);

  SweepOutcome outcome = RunPointsChecked(configs, FastLengths(), /*jobs=*/2);
  ASSERT_EQ(outcome.points.size(), 3u);
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.points[0].ok());
  EXPECT_FALSE(outcome.points[1].ok());
  EXPECT_TRUE(outcome.points[2].ok());
  EXPECT_EQ(outcome.failures().size(), 1u);
  EXPECT_EQ(outcome.failures()[0]->index, 1u);
  EXPECT_EQ(outcome.SuccessfulReports().size(), 2u);
  // The healthy points match standalone runs — the neighbor's failure left
  // no trace on them.
  EXPECT_TRUE(ReportsIdentical(outcome.points[0].report,
                               RunOnePoint(configs[0], FastLengths())));
  EXPECT_TRUE(ReportsIdentical(outcome.points[2].report,
                               RunOnePoint(configs[2], FastLengths())));
  // The summary names the failed point.
  EXPECT_NE(outcome.FailureSummary().find("point 1"), std::string::npos);
  EXPECT_NE(outcome.FailureSummary().find("immediate_restart"),
            std::string::npos);
}

TEST(RunPointsCheckedTest, ProgressSeesFailuresToo) {
  std::vector<EngineConfig> configs = {FastBase(), PoisonedConfig()};
  std::atomic<int> ok_count{0}, failed_count{0};
  RunPointsChecked(configs, FastLengths(), /*jobs=*/1,
                   [&](const PointResult& point) {
                     (point.ok() ? ok_count : failed_count)++;
                   });
  EXPECT_EQ(ok_count.load(), 1);
  EXPECT_EQ(failed_count.load(), 1);
}

TEST(RunPointsCheckedTest, ThrowingProgressFailsThePointsItCutOff) {
  // On the serial path an exception that escapes a point's task — here the
  // progress callback — ends the loop: point 1 never runs. It must fail
  // with the cause instead of passing as an all-zero report, and point 0,
  // which completed before the throw, keeps its result.
  std::vector<EngineConfig> configs = {FastBase(), FastBase()};
  configs[1].seed = 4;
  SweepOutcome outcome =
      RunPointsChecked(configs, FastLengths(), /*jobs=*/1,
                       [](const PointResult& point) {
                         if (point.index == 0) {
                           throw std::runtime_error("progress sink closed");
                         }
                       });
  ASSERT_EQ(outcome.points.size(), 2u);
  EXPECT_TRUE(outcome.points[0].ok()) << outcome.points[0].status.ToString();
  EXPECT_GT(outcome.points[0].report.commits, 0);
  const Status& cut = outcome.points[1].status;
  EXPECT_EQ(cut.code(), StatusCode::kInternal);
  EXPECT_NE(cut.message().find("point never ran"), std::string::npos)
      << cut.ToString();
  EXPECT_NE(cut.message().find("progress sink closed"), std::string::npos)
      << cut.ToString();
}

TEST(RunPointsCheckedDeathTest, UncheckedRunnerStaysFailStop) {
  std::vector<EngineConfig> configs = {PoisonedConfig()};
  EXPECT_DEATH(RunPoints(configs, FastLengths(), /*jobs=*/1),
               "point failure in an unchecked run");
}

TEST(PointBudgetTest, FromEnvReadsKnobs) {
  setenv("CCSIM_MAX_EVENTS", "12345", 1);
  PointBudget budget = PointBudget::FromEnv();
  EXPECT_EQ(budget.max_events, 12345u);
  EXPECT_FALSE(budget.unlimited());
  unsetenv("CCSIM_MAX_EVENTS");
  EXPECT_TRUE(PointBudget::FromEnv().unlimited());
}

TEST(PointBudgetDeathTest, NegativeBudgetIsRejected) {
  setenv("CCSIM_MAX_EVENTS", "-5", 1);
  EXPECT_DEATH(PointBudget::FromEnv(), "CCSIM_MAX_EVENTS");
  unsetenv("CCSIM_MAX_EVENTS");
}

TEST(RunGuardTest, EventBudgetStopsSelfReschedulingChain) {
  Simulator sim;
  ClosureEvents events(&sim);
  std::function<void()> reschedule = [&] { events.Schedule(0, reschedule); };
  events.Schedule(0, reschedule);
  RunGuard guard;
  guard.max_events = 100;
  guard.on_violation = [](const char* reason) {
    throw std::runtime_error(reason);
  };
  sim.SetRunGuard(std::move(guard));
  EXPECT_THROW(sim.Run(), std::runtime_error);
  EXPECT_LE(sim.events_fired(), 101u);
}

TEST(RunGuardTest, ClearGuardLiftsLimits) {
  Simulator sim;
  ClosureEvents events(&sim);
  int fired = 0;
  for (int i = 0; i < 50; ++i) events.Schedule(i, [&fired] { ++fired; });
  RunGuard guard;
  guard.max_events = 10;
  guard.on_violation = [](const char* reason) {
    throw std::runtime_error(reason);
  };
  sim.SetRunGuard(std::move(guard));
  EXPECT_THROW(sim.Run(), std::runtime_error);
  sim.ClearRunGuard();
  sim.Run();
  EXPECT_EQ(fired, 50);
}

TEST(ThreadPoolTest, TaskExceptionRethrownFromWait) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.Submit([] { throw std::runtime_error("task blew up"); });
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&completed] { ++completed; });
  }
  try {
    pool.Wait();
    FAIL() << "Wait() must rethrow the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task blew up");
  }
  // All sibling tasks still ran, and the pool stays usable.
  EXPECT_EQ(completed.load(), 8);
  pool.Submit([&completed] { ++completed; });
  pool.Wait();  // No stale exception resurfaces.
  EXPECT_EQ(completed.load(), 9);
}

TEST(ParallelForTest, IterationExceptionPropagates) {
  std::atomic<int> ran{0};
  EXPECT_THROW(ParallelFor(8, 2,
                           [&ran](int64_t i) {
                             ++ran;
                             if (i == 3) throw std::runtime_error("iteration 3");
                           }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 8) << "every iteration still runs";
}

}  // namespace
}  // namespace ccsim
