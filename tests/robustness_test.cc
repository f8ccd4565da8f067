// Failure-path tests for the fault-tolerance layer (docs/EXECUTION.md,
// "Failure semantics"): the checked point runner, the watchdog budgets, the
// run guard, and the thread pool's exception capture.
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
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

TEST(TryRunOnePointTest, LivelockTripsWallClockWatchdog) {
  PointBudget budget;
  budget.wall_timeout_seconds = 0.2;
  StatusOr<MetricsReport> result =
      TryRunOnePoint(LivelockedConfig(), FastLengths(), budget);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("watchdog"), std::string::npos)
      << result.status().ToString();
}

TEST(TryRunOnePointTest, GenerousBudgetDoesNotPerturbResults) {
  PointBudget budget;
  budget.max_events = 50'000'000;
  budget.wall_timeout_seconds = 300.0;
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

TEST(RunPointsCheckedDeathTest, UncheckedRunnerStaysFailStop) {
  std::vector<EngineConfig> configs = {PoisonedConfig()};
  EXPECT_DEATH(RunPoints(configs, FastLengths(), /*jobs=*/1),
               "point failure in an unchecked run");
}

TEST(PointBudgetTest, FromEnvReadsKnobs) {
  setenv("CCSIM_MAX_EVENTS", "12345", 1);
  setenv("CCSIM_POINT_TIMEOUT_SECONDS", "1.5", 1);
  PointBudget budget = PointBudget::FromEnv();
  EXPECT_EQ(budget.max_events, 12345u);
  EXPECT_DOUBLE_EQ(budget.wall_timeout_seconds, 1.5);
  EXPECT_FALSE(budget.unlimited());
  unsetenv("CCSIM_MAX_EVENTS");
  unsetenv("CCSIM_POINT_TIMEOUT_SECONDS");
  EXPECT_TRUE(PointBudget::FromEnv().unlimited());
}

TEST(PointBudgetDeathTest, NegativeBudgetIsRejected) {
  setenv("CCSIM_MAX_EVENTS", "-5", 1);
  EXPECT_DEATH(PointBudget::FromEnv(), "CCSIM_MAX_EVENTS");
  unsetenv("CCSIM_MAX_EVENTS");
}

TEST(WatchdogTimerTest, ExpiresAfterDeadline) {
  WatchdogTimer timer(0.05);
  ASSERT_NE(timer.expired_flag(), nullptr);
  EXPECT_FALSE(timer.expired());
  // Poll rather than sleep-once: CI machines stall arbitrarily.
  for (int i = 0; i < 200 && !timer.expired(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(timer.expired());
}

TEST(WatchdogTimerTest, DestructionCancelsWithoutFiring) {
  // A long deadline destroyed immediately: the destructor must join the
  // thread promptly instead of waiting out the hour.
  auto start = std::chrono::steady_clock::now();
  { WatchdogTimer timer(3600.0); }
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            10);
}

TEST(WatchdogTimerTest, InertWhenDisabled) {
  WatchdogTimer timer(0.0);
  EXPECT_EQ(timer.expired_flag(), nullptr);
  EXPECT_FALSE(timer.expired());
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

TEST(RunGuardTest, InterruptFlagStopsTheLoop) {
  Simulator sim;
  ClosureEvents events(&sim);
  std::function<void()> reschedule = [&] { events.Schedule(0, reschedule); };
  events.Schedule(0, reschedule);
  std::atomic<bool> interrupt{false};
  RunGuard guard;
  guard.interrupt = &interrupt;
  guard.on_violation = [](const char* reason) {
    throw std::runtime_error(reason);
  };
  sim.SetRunGuard(std::move(guard));
  // Fire some events, then flip the flag from "another thread".
  std::thread flipper([&interrupt] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    interrupt.store(true);
  });
  EXPECT_THROW(sim.Run(), std::runtime_error);
  flipper.join();
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
