// End-to-end coverage for an allocation failure inside a checked point: the
// global operator new below throws std::bad_alloc from the next allocation
// once a test arms it. The checked point runner must turn that into a failed
// point with diagnostics, not a crash, and the process must stay healthy for
// the next point.
//
// This binary must stay single-purpose: the replaced operator new is
// process-global, so it lives in its own test executable (the same
// discipline as tests/sim_alloc_test.cc).
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "core/experiment.h"

// The replacements below intentionally route operator new through
// malloc/free; the compiler's pairing analysis flags that as a mismatch
// (seen under the TSan build's inlining) even though replacing the global
// allocation functions this way is well-defined.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

/// One-shot: the next allocation clears it and throws.
std::atomic<bool> fail_next_allocation{false};

void* Allocate(std::size_t size) {
  if (fail_next_allocation.load(std::memory_order_relaxed) &&
      fail_next_allocation.exchange(false)) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ccsim {
namespace {

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

TEST(AllocFailureTest, CheckedPointFailsWithDiagnosticsNotCrash) {
  EngineConfig config = TinyConfig();
  RunLengths lengths = TinyLengths();
  // The first allocation after arming is inside TryRunOnePoint's try block
  // (building the engine): the bad_alloc surfaces as the point's Status,
  // not as a process abort.
  fail_next_allocation = true;
  StatusOr<MetricsReport> result = TryRunOnePoint(config, lengths);
  EXPECT_FALSE(fail_next_allocation) << "no allocation happened";
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("unexpected exception"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("bad_alloc"), std::string::npos)
      << result.status().ToString();

  // The failure was contained: the same point runs clean afterwards.
  StatusOr<MetricsReport> retry = TryRunOnePoint(config, lengths);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_GT(retry->commits, 0);
}

}  // namespace
}  // namespace ccsim
