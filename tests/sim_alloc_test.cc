// Unit-level allocation pins for two building blocks, in isolation:
//  * the event kernel (sim/simulator.h "Hot-path design"): once the arena,
//    free list, and heap have grown to their working size, scheduling /
//    cancelling / firing events whose captures fit EventCallback's inline
//    storage never touches the global heap;
//  * the concurrency-control decision path: post-warmup, a blocking-CC
//    request/block/grant/commit cycle does not allocate (the dense tables,
//    pooled lock-manager nodes, and recycled per-transaction buffers of
//    docs/PERFORMANCE.md "Dense CC state").
// Neither proves the engine allocation-free on its own — a synthetic capture
// says nothing about the captures the engine actually schedules. That
// property is pinned on a real ClosedSystem by tests/engine_alloc_test.cc.
//
// The test replaces the global allocation functions with counting wrappers
// and asserts a zero delta across measured loops. This binary must stay
// single-purpose: the counting operator new is process-global, so it lives
// in its own test executable rather than in sim_test.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cc/concurrency_control.h"
#include "cc/factory.h"
#include "sim/simulator.h"

namespace {

// Plain (non-atomic) counters: the simulator and the test run on one thread,
// and gtest does not allocate concurrently with the measured loop.
std::size_t g_news = 0;

}  // namespace

// The replacements below intentionally route operator new through
// malloc/free; the compiler's pairing analysis flags that as a mismatch
// (seen under the TSan build's inlining) even though replacing the global
// allocation functions this way is well-defined.
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

/// A completion plus a cancelled far-future timeout, with a capture close to
/// EventCallback's inline capacity.
void ChurnOnce(Simulator& sim, uint64_t* sink) {
  // 7 x 8 bytes = 56 of the 64 inline bytes.
  uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
  sim.Schedule(1, [sink, a, b, c, d, e, f] { *sink += a + b + c + d + e + f; });
  EventId guard = sim.Schedule(1000, [sink] { *sink += 1; });
  ASSERT_TRUE(sim.Step());
  ASSERT_TRUE(sim.Cancel(guard));
}

TEST(SimAllocTest, SteadyStateChurnIsAllocationFree) {
  Simulator sim;
  uint64_t sink = 0;
  // Warmup: grow the arena chunks and the heap vector to working size.
  for (int i = 0; i < 10000; ++i) ChurnOnce(sim, &sink);
  while (sim.Step()) {
  }

  const std::size_t before = g_news;
  for (int i = 0; i < 10000; ++i) ChurnOnce(sim, &sink);
  const std::size_t after = g_news;
  EXPECT_EQ(after - before, 0u)
      << "steady-state scheduling allocated; an event capture probably "
         "outgrew EventCallback's inline capacity (util/small_fn.h)";

  while (sim.Step()) {
  }
  EXPECT_EQ(sink, 10000u * 2u * 21u);
}

TEST(SimAllocTest, BlockingDecisionPathIsAllocationFree) {
  // One full contention cycle of the blocking algorithm: transaction `a`
  // acquires six read locks and upgrades two, `b` blocks behind the upgrade
  // (running the deadlock detector), a's commit grants b, b re-issues and
  // finishes. Fresh ids every cycle, like the real engine (commit -> new
  // transaction), so this also pins the TxnSlotMap recycle path.
  std::unique_ptr<ConcurrencyControl> cc = MakeConcurrencyControl("blocking");
  cc->ReserveCapacity(/*num_objects=*/64, /*num_txns=*/8);
  std::vector<TxnId> granted;
  granted.reserve(16);
  SimTime clock = 0;
  CCCallbacks callbacks;
  callbacks.on_granted = [&granted](TxnId id) { granted.push_back(id); };
  callbacks.on_wound = [](TxnId) {};
  callbacks.now = [&clock] { return clock; };
  cc->SetCallbacks(std::move(callbacks));

  auto cycle = [&](TxnId a) {
    const TxnId b = a + 1;
    ++clock;
    cc->OnBegin(a, clock, clock);
    ++clock;
    cc->OnBegin(b, clock, clock);
    for (ObjectId obj = 0; obj < 6; ++obj) {
      ASSERT_EQ(cc->ReadRequest(a, obj), CCDecision::kGranted);
    }
    ASSERT_EQ(cc->WriteRequest(a, 0), CCDecision::kGranted);
    ASSERT_EQ(cc->WriteRequest(a, 1), CCDecision::kGranted);
    ASSERT_EQ(cc->ReadRequest(b, 0), CCDecision::kBlocked);
    ASSERT_TRUE(cc->Validate(a));
    cc->Commit(a);  // Grants b.
    ASSERT_EQ(granted.size(), 1u);
    granted.clear();
    ASSERT_EQ(cc->ReadRequest(b, 0), CCDecision::kGranted);  // Re-issue.
    ASSERT_TRUE(cc->Validate(b));
    cc->Commit(b);
  };

  // Warmup: grow the lock table, waiter pool, detector scratch, and the
  // transaction slot index to working size.
  for (TxnId id = 1; id < 2000; id += 2) cycle(id);

  const std::size_t before = g_news;
  for (TxnId id = 2001; id < 4000; id += 2) cycle(id);
  EXPECT_EQ(g_news - before, 0u)
      << "steady-state cc decisions allocated; a dense table, waiter pool, "
         "or per-transaction buffer is growing instead of recycling";
}

TEST(SimAllocTest, OversizedCaptureFallsBackToHeapBox) {
  // Sanity check that the counter actually sees kernel allocations: a
  // capture past the inline capacity must take exactly the documented
  // one-heap-box fallback path.
  Simulator sim;
  uint64_t sink = 0;
  struct Big {
    uint64_t vals[16];  // 128 bytes > 64-byte inline capacity.
  };
  Big big{};
  big.vals[0] = 42;
  const std::size_t before = g_news;
  sim.Schedule(1, [&sink, big] { sink += big.vals[0]; });
  const std::size_t after = g_news;
  EXPECT_GE(after - before, 1u);
  sim.Run();
  EXPECT_EQ(sink, 42u);
}

}  // namespace
}  // namespace ccsim
