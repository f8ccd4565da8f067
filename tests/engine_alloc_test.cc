// Pins "steady state allocates nothing" on the real engine: a ClosedSystem
// running paper workloads, past warmup, must not call the global operator
// new at all — not per event, per service, per cc decision, nor per commit
// (docs/PERFORMANCE.md "Typed service completions"). The test replaces the
// global allocation functions with counting wrappers, runs each config
// through a warmup window, then asserts a zero delta over a further
// steady-state window.
//
// Warmup matters because some growth is legitimately bounded by the
// configuration, not paid per commit: the event arena, the lock manager's
// holder and waiter pools, the server-pool and ready queues grow to their
// peak depth; recycled per-transaction buffers grow to the largest
// transaction their slot has carried; and each new peak of the live
// transaction population (terminals alternate thinking and running) fills
// one more recycled slot. These are high-water marks, so they arrive ever
// more rarely. Each warmup below runs past the last such growth observed for
// seed 42, and each window then spans thousands of commits — any per-commit
// (or per-service, per-event, per-decision) allocation would show up
// thousands of times.
//
// This binary must stay single-purpose: the counting operator new is
// process-global, so it lives in its own test executable.
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "core/closed_system.h"
#include "sim/simulator.h"

namespace {

// Plain (non-atomic) counter: the engine and the test run on one thread.
std::size_t g_news = 0;

}  // namespace

// The replacements below intentionally route operator new through
// malloc/free; the compiler's pairing analysis flags that as a mismatch
// even though replacing the global allocation functions this way is
// well-defined.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ccsim {
namespace {

/// The paper's Table 2 workload at db_size 1000.
EngineConfig PaperConfig(const std::string& algorithm, ResourceConfig res,
                         int mpl, bool audit = false) {
  EngineConfig config;
  config.workload.db_size = 1000;
  config.workload.mpl = mpl;
  config.resources = res;
  config.algorithm = algorithm;
  config.seed = 42;
  config.audit = audit;
  return config;
}

struct WindowCounts {
  std::size_t news = 0;
  int64_t commits = 0;
  int64_t restarts = 0;
};

/// Runs `warmup` simulated seconds, then counts operator new calls, commits
/// and restarts over the following `window` simulated seconds.
WindowCounts MeasureSteadyState(const EngineConfig& config, double warmup,
                                double window) {
  Simulator sim;
  ClosedSystem system(&sim, config);
  system.Prime();
  sim.RunUntil(FromSeconds(warmup));
  WindowCounts counts;
  const int64_t commits_before = system.total_commits();
  const int64_t restarts_before = system.total_restarts();
  const std::size_t news_before = g_news;
  sim.RunUntil(FromSeconds(warmup + window));
  counts.news = g_news - news_before;
  counts.commits = system.total_commits() - commits_before;
  counts.restarts = system.total_restarts() - restarts_before;
  return counts;
}

TEST(EngineAllocTest, BlockingInfiniteResources) {
  WindowCounts counts = MeasureSteadyState(
      PaperConfig("blocking", ResourceConfig::Infinite(), 50), 2000, 2000);
  EXPECT_GT(counts.commits, 50000);
  EXPECT_EQ(counts.news, 0u)
      << "operator new calls over " << counts.commits << " commits";
}

TEST(EngineAllocTest, BlockingFiniteResourcesFullQueues) {
  // 1 CPU / 2 disks at mpl 200: the pools' queues stay deep and the
  // blocking algorithm deadlocks about once per commit.
  WindowCounts counts = MeasureSteadyState(
      PaperConfig("blocking", ResourceConfig::Finite(1, 2), 200), 8500, 4500);
  EXPECT_GT(counts.commits, 5000);
  EXPECT_GT(counts.restarts, 5000);
  EXPECT_EQ(counts.news, 0u)
      << "operator new calls over " << counts.commits << " commits";
}

TEST(EngineAllocTest, ImmediateRestartCancelsWithoutAllocating) {
  // Restarts cancel the victim's pending event and re-enter through a
  // restart delay: the Cancel path and the ready-queue requeue.
  WindowCounts counts = MeasureSteadyState(
      PaperConfig("immediate_restart", ResourceConfig::Infinite(), 50), 1500,
      3000);
  EXPECT_GT(counts.commits, 50000);
  EXPECT_GT(counts.restarts, 1000);
  EXPECT_EQ(counts.news, 0u)
      << "operator new calls over " << counts.commits << " commits";
}

TEST(EngineAllocTest, OptimisticValidationRestarts) {
  WindowCounts counts = MeasureSteadyState(
      PaperConfig("optimistic", ResourceConfig::Infinite(), 50), 500, 3000);
  EXPECT_GT(counts.commits, 50000);
  EXPECT_GT(counts.restarts, 1000);
  EXPECT_EQ(counts.news, 0u)
      << "operator new calls over " << counts.commits << " commits";
}

// Audited runs: the auditor's census, lock-phase table, deep checks (every
// 64th transition) and their waits-for snapshots reuse their storage too.

TEST(EngineAllocTest, AuditedBlockingInfiniteResources) {
  // LockManager::Reserve sizes the deep checks' waits-for snapshot for the
  // transaction population, so the last growth is the engine's own: for
  // seed 42 a recycled transaction buffer last grows between 1800 s and
  // 1850 s.
  WindowCounts counts = MeasureSteadyState(
      PaperConfig("blocking", ResourceConfig::Infinite(), 50, /*audit=*/true),
      2500, 2000);
  EXPECT_GT(counts.commits, 50000);
  EXPECT_EQ(counts.news, 0u)
      << "operator new calls over " << counts.commits << " commits";
}

TEST(EngineAllocTest, AuditedBlockingFiniteResourcesFullQueues) {
  WindowCounts counts = MeasureSteadyState(
      PaperConfig("blocking", ResourceConfig::Finite(1, 2), 200,
                  /*audit=*/true),
      8500, 4500);
  EXPECT_GT(counts.commits, 5000);
  EXPECT_GT(counts.restarts, 5000);
  EXPECT_EQ(counts.news, 0u)
      << "operator new calls over " << counts.commits << " commits";
}

TEST(EngineAllocTest, AuditedImmediateRestart) {
  WindowCounts counts = MeasureSteadyState(
      PaperConfig("immediate_restart", ResourceConfig::Infinite(), 50,
                  /*audit=*/true),
      1500, 3000);
  EXPECT_GT(counts.commits, 50000);
  EXPECT_GT(counts.restarts, 1000);
  EXPECT_EQ(counts.news, 0u)
      << "operator new calls over " << counts.commits << " commits";
}

TEST(EngineAllocTest, AuditedOptimistic) {
  WindowCounts counts = MeasureSteadyState(
      PaperConfig("optimistic", ResourceConfig::Infinite(), 50,
                  /*audit=*/true),
      500, 3000);
  EXPECT_GT(counts.commits, 50000);
  EXPECT_GT(counts.restarts, 1000);
  EXPECT_EQ(counts.news, 0u)
      << "operator new calls over " << counts.commits << " commits";
}

TEST(EngineAllocTest, StaticLockingInfiniteResources) {
  // Every block parks the transaction among static locking's waiters, and
  // every release rescans them. For seed 42 the lock manager's pools and
  // the engine's transaction buffers last grow before 11000 s.
  WindowCounts counts = MeasureSteadyState(
      PaperConfig("static_locking", ResourceConfig::Infinite(), 50), 11000,
      5000);
  EXPECT_GT(counts.commits, 200000);
  EXPECT_EQ(counts.news, 0u)
      << "operator new calls over " << counts.commits << " commits";
}

TEST(EngineAllocTest, StaticLockingFiniteResourcesFullQueues) {
  WindowCounts counts = MeasureSteadyState(
      PaperConfig("static_locking", ResourceConfig::Finite(1, 2), 200), 12000,
      4000);
  EXPECT_GT(counts.commits, 20000);
  EXPECT_EQ(counts.news, 0u)
      << "operator new calls over " << counts.commits << " commits";
}

TEST(EngineAllocTest, AuditedOptimisticForwardAllocatesAsUnaudited) {
  // The forward validator's own buffers still reach new high-water marks
  // here; its deep check must add no allocation of its own.
  const EngineConfig plain =
      PaperConfig("optimistic_forward", ResourceConfig::Infinite(), 50);
  EngineConfig audited = plain;
  audited.audit = true;
  WindowCounts plain_counts = MeasureSteadyState(plain, 1500, 3000);
  WindowCounts audited_counts = MeasureSteadyState(audited, 1500, 3000);
  EXPECT_GT(plain_counts.commits, 50000);
  EXPECT_EQ(audited_counts.commits, plain_counts.commits);
  EXPECT_EQ(audited_counts.news, plain_counts.news)
      << "operator new calls over " << audited_counts.commits
      << " audited commits";
}

TEST(EngineAllocTest, GroupCommitLogBatches) {
  // Commit log records batched by a group-commit window: the flushed
  // batches travel as recycled slots, not captured vectors.
  EngineConfig config =
      PaperConfig("blocking", ResourceConfig::Finite(1, 2), 25);
  config.workload.log_io = FromMillis(10);
  config.group_commit_window = FromMillis(20);
  WindowCounts counts = MeasureSteadyState(config, 9000, 5000);
  EXPECT_GT(counts.commits, 10000);
  EXPECT_EQ(counts.news, 0u)
      << "operator new calls over " << counts.commits << " commits";
}

}  // namespace
}  // namespace ccsim
