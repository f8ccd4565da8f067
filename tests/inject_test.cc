// Tests for the deterministic fault-injection subsystem (docs/FAULTS.md):
// plan grammar, trigger semantics, and — the part that keeps the subsystem
// honest — a site-coverage registry that fires every registered fault site
// through its real error path and asserts the documented failure surfaces.
// A site added to inject/sites.h without an exerciser here fails
// SiteCoverage.EverySiteHasAnExerciserAndFires.
#include "inject/fault.h"

#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/report.h"
#include "exec/thread_pool.h"
#include "exec/watchdog.h"
#include "inject/sites.h"

namespace ccsim {
namespace {

// ---------------------------------------------------------------------------
// Grammar.

TEST(FaultPlanParse, SeedAndSites) {
  auto plan = FaultPlan::Parse("seed=7; pool.task@hit:3; csv.write@always");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed(), 7u);
  EXPECT_EQ(plan->trigger(FaultSite::kPoolTask).kind, FaultTrigger::kHit);
  EXPECT_EQ(plan->trigger(FaultSite::kPoolTask).n, 3u);
  EXPECT_EQ(plan->trigger(FaultSite::kCsvWrite).kind, FaultTrigger::kAlways);
  EXPECT_EQ(plan->trigger(FaultSite::kAllocFail).kind, FaultTrigger::kNever);
}

TEST(FaultPlanParse, AllTriggerKinds) {
  auto plan = FaultPlan::Parse(
      "alloc.fail@always;csv.write@hit:2;trace.write@after:0;"
      "watchdog.misfire@every:5;pool.task@prob:0.25");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->trigger(FaultSite::kAllocFail).kind, FaultTrigger::kAlways);
  EXPECT_EQ(plan->trigger(FaultSite::kCsvWrite).kind, FaultTrigger::kHit);
  EXPECT_EQ(plan->trigger(FaultSite::kTraceWrite).kind, FaultTrigger::kAfter);
  EXPECT_EQ(plan->trigger(FaultSite::kTraceWrite).n, 0u);
  EXPECT_EQ(plan->trigger(FaultSite::kWatchdogMisfire).kind,
            FaultTrigger::kEvery);
  EXPECT_EQ(plan->trigger(FaultSite::kPoolTask).kind, FaultTrigger::kProb);
  // p = 0.25 maps onto the top quarter boundary of the u64 range.
  EXPECT_EQ(plan->trigger(FaultSite::kPoolTask).threshold, 1ull << 62);
}

TEST(FaultPlanParse, ProbOneCollapsesToAlways) {
  auto plan = FaultPlan::Parse("pool.task@prob:1");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->trigger(FaultSite::kPoolTask).kind, FaultTrigger::kAlways);
}

TEST(FaultPlanParse, EmptySpecIsAnEmptyPlan) {
  auto plan = FaultPlan::Parse("");
  ASSERT_TRUE(plan.ok());
  for (FaultSite site : AllFaultSites()) {
    EXPECT_EQ(plan->trigger(site).kind, FaultTrigger::kNever);
  }
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  // A silently dropped fault field would invalidate the run that asked for
  // it, so every malformation must be loud.
  const char* bad[] = {
      "pool.tsk@hit:2",          // unknown site
      "pool.task@hits:2",        // unknown trigger
      "pool.task@hit:0",         // hit is 1-based
      "pool.task@every:0",       // every:0 would divide by zero
      "pool.task@hit:x",         // non-numeric parameter
      "pool.task",               // no trigger at all
      "pool.task@prob:1.5",      // not a probability
      "pool.task@prob:-0.1",     // not a probability
      "seed=-4;csv.write@always",          // negative seed
      "csv.write@always;csv.write@hit:1",  // duplicate site
      "seed=9",                            // names no site: nothing fires
  };
  for (const char* spec : bad) {
    auto plan = FaultPlan::Parse(spec);
    EXPECT_FALSE(plan.ok()) << "accepted: " << spec;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

// ---------------------------------------------------------------------------
// Trigger semantics under an installed plan.

std::vector<int> FiringHits(const std::string& spec, FaultSite site,
                            int queries) {
  auto plan = FaultPlan::Parse(spec);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  ScopedFaultPlan scoped(*plan);
  std::vector<int> fired;
  for (int hit = 1; hit <= queries; ++hit) {
    if (FaultPoint(site)) fired.push_back(hit);
  }
  return fired;
}

TEST(FaultTriggerTest, HitFiresExactlyOnce) {
  EXPECT_EQ(FiringHits("trace.write@hit:3", FaultSite::kTraceWrite, 6),
            (std::vector<int>{3}));
}

TEST(FaultTriggerTest, AfterFiresEveryLaterHit) {
  EXPECT_EQ(FiringHits("trace.write@after:2", FaultSite::kTraceWrite, 5),
            (std::vector<int>{3, 4, 5}));
}

TEST(FaultTriggerTest, EveryFiresOnMultiples) {
  EXPECT_EQ(FiringHits("trace.write@every:2", FaultSite::kTraceWrite, 6),
            (std::vector<int>{2, 4, 6}));
}

TEST(FaultTriggerTest, AlwaysFiresEveryHit) {
  EXPECT_EQ(FiringHits("trace.write@always", FaultSite::kTraceWrite, 3),
            (std::vector<int>{1, 2, 3}));
}

TEST(FaultTriggerTest, UnlistedSiteNeverFiresButCountsHits) {
  auto plan = FaultPlan::Parse("csv.write@always");
  ASSERT_TRUE(plan.ok());
  ScopedFaultPlan scoped(*plan);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(FaultPoint(FaultSite::kPoolTask));
  EXPECT_EQ(scoped.hits(FaultSite::kPoolTask), 4u);
  EXPECT_EQ(scoped.fires(FaultSite::kPoolTask), 0u);
}

TEST(FaultTriggerTest, ProbIsDeterministicInSeedAndHitIndex) {
  // The probabilistic trigger is a pure hash of (seed, site, hit), not a
  // stateful RNG: the same plan replays the same firing pattern, and the
  // empirical rate lands near p.
  auto pattern = [](const std::string& spec) {
    return FiringHits(spec, FaultSite::kTraceWrite, 2000);
  };
  std::vector<int> a = pattern("seed=11;trace.write@prob:0.3");
  std::vector<int> b = pattern("seed=11;trace.write@prob:0.3");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, pattern("seed=12;trace.write@prob:0.3"));
  EXPECT_NEAR(static_cast<double>(a.size()) / 2000.0, 0.3, 0.05);
}

TEST(FaultTriggerTest, NoPlanMeansNoFiresAndNoCounters) {
  EXPECT_FALSE(FaultPoint(FaultSite::kCsvWrite));
  EXPECT_EQ(FaultHits(FaultSite::kCsvWrite), 0u);
  EXPECT_EQ(FaultFires(FaultSite::kCsvWrite), 0u);
}

TEST(FaultTriggerTest, ScopedPlanNestsAndRestores) {
  auto outer = FaultPlan::Parse("csv.write@always");
  auto inner = FaultPlan::Parse("trace.write@always");
  ASSERT_TRUE(outer.ok() && inner.ok());
  ScopedFaultPlan outer_scope(*outer);
  EXPECT_TRUE(FaultPoint(FaultSite::kCsvWrite));
  {
    ScopedFaultPlan inner_scope(*inner);
    EXPECT_FALSE(FaultPoint(FaultSite::kCsvWrite));
    EXPECT_TRUE(FaultPoint(FaultSite::kTraceWrite));
  }
  EXPECT_TRUE(FaultPoint(FaultSite::kCsvWrite));
  EXPECT_EQ(outer_scope.fires(FaultSite::kCsvWrite), 2u);
}

TEST(FaultSiteNames, RoundTrip) {
  for (FaultSite site : AllFaultSites()) {
    auto back = FaultSiteFromName(FaultSiteName(site));
    ASSERT_TRUE(back.has_value()) << FaultSiteName(site);
    EXPECT_EQ(*back, site);
  }
  EXPECT_FALSE(FaultSiteFromName("no.such.site").has_value());
}

// ---------------------------------------------------------------------------
// Site-coverage registry: every registered site, fired through its real
// error path, asserting the documented failure mode.

EngineConfig TinyConfig() {
  EngineConfig config;
  config.algorithm = "blocking";
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

RunLengths TinyLengths() {
  RunLengths lengths;
  lengths.batches = 2;
  lengths.batch_length = 2 * kSecond;
  lengths.warmup = kSecond;
  return lengths;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

ScopedFaultPlan PlanAlways(FaultSite site) {
  auto plan = FaultPlan::Parse(std::string(FaultSiteName(site)) + "@always");
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return ScopedFaultPlan(*plan);
}

// alloc.fail: the trigger mechanics, exercised here through FaultPoint the
// way the counting allocator consults it. The end-to-end path — a replaced
// operator new throwing std::bad_alloc into a checked point — needs a
// process-global allocator hook and therefore lives in its own binary,
// tests/inject_alloc_test.cc.
void ExerciseAllocFail() {
  ScopedFaultPlan scoped = PlanAlways(FaultSite::kAllocFail);
  EXPECT_TRUE(FaultPoint(FaultSite::kAllocFail));
  EXPECT_GE(scoped.fires(FaultSite::kAllocFail), 1u);
}

// csv.write: WriteReportCsv reports failure instead of pretending the file
// landed on disk.
void ExerciseCsvWrite() {
  std::vector<MetricsReport> reports(1);
  reports[0].algorithm = "blocking";
  reports[0].mpl = 5;
  const std::string path = TempPath("inject_csv_site.csv");
  {
    ScopedFaultPlan scoped = PlanAlways(FaultSite::kCsvWrite);
    EXPECT_FALSE(WriteReportCsv(path, reports));
    EXPECT_GE(scoped.fires(FaultSite::kCsvWrite), 1u);
  }
  EXPECT_TRUE(WriteReportCsv(path, reports));  // Plan gone: real path works.
}

// trace.write: the trace writer's stream fails at Finish; the point dies
// with kInternal diagnostics instead of reporting results whose trace
// artifact silently never landed.
void ExerciseTraceWrite() {
  EngineConfig config = TinyConfig();
  config.obs.enabled = true;
  config.obs.trace_path = TempPath("inject_trace_site.json");
  ScopedFaultPlan scoped = PlanAlways(FaultSite::kTraceWrite);
  StatusOr<MetricsReport> result = TryRunOnePoint(config, TinyLengths());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("failed writing trace file"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_GE(scoped.fires(FaultSite::kTraceWrite), 1u);
}

// watchdog.misfire: the wall-clock watchdog trips the moment it arms, hours
// early. The point must fail kDeadlineExceeded with diagnostics — the
// misfire is indistinguishable from a real deadline to everything above it.
void ExerciseWatchdogMisfire() {
  PointBudget budget;
  budget.wall_timeout_seconds = 3600.0;  // Would never trip for real.
  ScopedFaultPlan scoped = PlanAlways(FaultSite::kWatchdogMisfire);
  StatusOr<MetricsReport> result =
      TryRunOnePoint(TinyConfig(), TinyLengths(), budget);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_GE(scoped.fires(FaultSite::kWatchdogMisfire), 1u);
}

// pool.task: a worker's task evaporates into FaultInjected; Wait() rethrows
// it to the caller and the pool stays usable.
void ExercisePoolTask() {
  ThreadPool pool(2);
  {
    ScopedFaultPlan scoped = PlanAlways(FaultSite::kPoolTask);
    std::atomic<int> ran{0};
    for (int i = 0; i < 4; ++i) pool.Submit([&] { ++ran; });
    EXPECT_THROW(pool.Wait(), FaultInjected);
    EXPECT_EQ(ran.load(), 0);  // always: every task body was consumed.
    EXPECT_GE(scoped.fires(FaultSite::kPoolTask), 4u);
  }
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) pool.Submit([&] { ++ran; });
  EXPECT_NO_THROW(pool.Wait());
  EXPECT_EQ(ran.load(), 4);
}

TEST(SiteCoverage, EverySiteHasAnExerciserAndFires) {
  // The registry: FaultSite -> a function that fires the site through its
  // real error path. Adding a site to inject/sites.h without adding its
  // exerciser here fails the completeness assertion below — the acceptance
  // bar for the subsystem is that no site is dead weight.
  const std::map<FaultSite, std::function<void()>> exercisers = {
      {FaultSite::kAllocFail, ExerciseAllocFail},
      {FaultSite::kCsvWrite, ExerciseCsvWrite},
      {FaultSite::kTraceWrite, ExerciseTraceWrite},
      {FaultSite::kWatchdogMisfire, ExerciseWatchdogMisfire},
      {FaultSite::kPoolTask, ExercisePoolTask},
  };
  for (FaultSite site : AllFaultSites()) {
    auto it = exercisers.find(site);
    ASSERT_NE(it, exercisers.end())
        << "fault site " << FaultSiteName(site)
        << " has no coverage exerciser (tests/inject_test.cc)";
    SCOPED_TRACE(FaultSiteName(site));
    it->second();
  }
  EXPECT_EQ(exercisers.size(), AllFaultSites().size());
}

// ---------------------------------------------------------------------------
// The checked sweep under injected faults: one consumed point fails with a
// cause, every other point still completes.

TEST(CheckedSweepUnderFaults, ConsumedPointFailsOthersComplete) {
  auto plan = FaultPlan::Parse("pool.task@hit:1");
  ASSERT_TRUE(plan.ok());
  ScopedFaultPlan scoped(*plan);
  std::vector<EngineConfig> configs(3, TinyConfig());
  configs[1].seed = 4;
  configs[2].seed = 5;
  SweepOutcome outcome = RunPointsChecked(configs, TinyLengths(), /*jobs=*/2);
  ASSERT_EQ(outcome.points.size(), 3u);
  int failed = 0;
  for (const PointResult& point : outcome.points) {
    if (point.ok()) {
      EXPECT_GT(point.report.commits, 0);
      continue;
    }
    ++failed;
    EXPECT_EQ(point.status.code(), StatusCode::kInternal);
    EXPECT_NE(point.status.message().find("point never ran"),
              std::string::npos)
        << point.status.ToString();
    EXPECT_NE(point.status.message().find("pool.task"), std::string::npos)
        << point.status.ToString();
  }
  // hit:1 consumes exactly the first task a worker picks up; which point
  // that is depends on dispatch order, but it is exactly one point.
  EXPECT_EQ(failed, 1);
  EXPECT_FALSE(outcome.ok());
  EXPECT_NE(outcome.FailureSummary().find("pool.task"), std::string::npos);
}

TEST(CheckedSweepUnderFaults, DisabledPlanLeavesResultsBitIdentical) {
  // The zero-cost claim, functionally: a sweep with no plan installed and a
  // sweep with a plan whose sites never fire produce identical reports.
  std::vector<EngineConfig> configs(2, TinyConfig());
  configs[1].seed = 4;
  SweepOutcome baseline = RunPointsChecked(configs, TinyLengths(), 1);
  auto plan = FaultPlan::Parse("csv.write@hit:1000000");
  ASSERT_TRUE(plan.ok());
  ScopedFaultPlan scoped(*plan);
  SweepOutcome faulted = RunPointsChecked(configs, TinyLengths(), 1);
  ASSERT_TRUE(baseline.ok() && faulted.ok());
  for (size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(baseline.points[i].report.commits,
              faulted.points[i].report.commits);
    EXPECT_EQ(baseline.points[i].report.throughput.mean,
              faulted.points[i].report.throughput.mean);
  }
}

}  // namespace
}  // namespace ccsim
