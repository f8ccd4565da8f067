// Unit-level allocation pins for two building blocks, in isolation:
//  * the event kernel (sim/simulator.h "Hot-path design"): once the arena,
//    free list, and heap have grown to their working size, scheduling /
//    cancelling / firing event records never touches the global heap;
//  * the concurrency-control decision path: post-warmup, a blocking-CC
//    request/block/grant/commit cycle does not allocate (the dense tables,
//    pooled lock-manager nodes, and recycled per-transaction buffers of
//    docs/PERFORMANCE.md "Dense CC state").
// Neither proves the engine allocation-free on its own — a synthetic handler
// says nothing about what the engine's handlers do when their events fire.
// That property is pinned on a real ClosedSystem by
// tests/engine_alloc_test.cc.
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
#include "fake_cc_engine.h"
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

/// Sums every payload field of the events it receives.
class SummingHandler : public EventHandler {
 public:
  void OnEvent(const Event& event) override {
    sum += event.byte + static_cast<uint64_t>(event.word) +
           static_cast<uint64_t>(event.arg0 + event.arg1 + event.arg2);
  }
  uint64_t sum = 0;
};

/// A completion with every payload field set, plus a cancelled far-future
/// timeout.
void ChurnOnce(Simulator& sim, SummingHandler* handler) {
  sim.Schedule(1, {.handler = handler,
                   .kind = 1,
                   .byte = 1,
                   .word = 2,
                   .arg0 = 3,
                   .arg1 = 4,
                   .arg2 = 5});
  EventId guard =
      sim.Schedule(1000, {.handler = handler, .kind = 2, .arg0 = 1});
  ASSERT_TRUE(sim.Step());
  ASSERT_TRUE(sim.Cancel(guard));
}

TEST(SimAllocTest, SteadyStateChurnIsAllocationFree) {
  Simulator sim;
  SummingHandler handler;
  // Warmup: grow the slot arena and the heap vector to working size.
  for (int i = 0; i < 10000; ++i) ChurnOnce(sim, &handler);
  while (sim.Step()) {
  }

  const std::size_t before = g_news;
  for (int i = 0; i < 10000; ++i) ChurnOnce(sim, &handler);
  const std::size_t after = g_news;
  EXPECT_EQ(after - before, 0u)
      << "steady-state scheduling allocated; the slot arena or the heap "
         "is growing instead of recycling";

  while (sim.Step()) {
  }
  EXPECT_EQ(handler.sum, 10000u * 2u * 15u);
}

TEST(SimAllocTest, BlockingDecisionPathIsAllocationFree) {
  // One full contention cycle of the blocking algorithm: transaction `a`
  // acquires six read locks and upgrades two, `b` blocks behind the upgrade
  // (running the deadlock detector), a's commit grants b, b re-issues and
  // finishes. Fresh ids every cycle, like the real engine (commit -> new
  // transaction), so this also pins the TxnSlotMap recycle path.
  FakeCCEngine engine;
  std::unique_ptr<ConcurrencyControl> cc = MakeConcurrencyControl("blocking");
  cc->ReserveCapacity(/*num_objects=*/64, /*num_txns=*/8);
  std::vector<TxnId>& granted = engine.granted;
  granted.reserve(16);
  SimTime& clock = engine.now;
  cc->SetCallbacks(engine.Callbacks());

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

TEST(SimAllocTest, FirstScheduleGrowsTheArena) {
  // Positive control for the zero-delta pins above: the counting operator
  // new must see the kernel's own storage. An empty simulator owns no slots
  // and no heap, so its first Schedule has to allocate.
  Simulator sim;
  SummingHandler handler;
  const std::size_t before = g_news;
  sim.Schedule(1, {.handler = &handler, .arg0 = 42});
  const std::size_t after = g_news;
  EXPECT_GE(after - before, 1u);
  sim.Run();
  EXPECT_EQ(handler.sum, 42u);
}

}  // namespace
}  // namespace ccsim
