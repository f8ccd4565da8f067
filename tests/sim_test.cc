// Unit tests for the discrete-event simulation kernel.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "sim/time.h"

namespace ccsim {
namespace {

/// The arena slot an EventId refers to (documented low-32-bit encoding);
/// used to assert that slots really are reused.
uint32_t SlotOfForTest(EventId id) { return static_cast<uint32_t>(id); }

TEST(TimeTest, Conversions) {
  EXPECT_EQ(FromSeconds(1.0), kSecond);
  EXPECT_EQ(FromSeconds(0.5), 500 * kMillisecond);
  EXPECT_EQ(FromMillis(35), 35 * kMillisecond);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToSeconds(1500 * kMillisecond), 1.5);
  EXPECT_EQ(FromMillis(0.0015), 2);  // Rounds to nearest µs.
}

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, TiesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.Schedule(42, [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, 42);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.Schedule(10, [&] {
    times.push_back(sim.Now());
    sim.Schedule(5, [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, ZeroDelayEventFiresAtSameTime) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(10, [&] {
    order.push_back(1);
    sim.Schedule(0, [&] { order.push_back(2); });
  });
  sim.Schedule(10, [&] { order.push_back(3); });
  sim.Run();
  // The zero-delay event was scheduled after event 3, so it fires after it.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.Now(), 10);
}

TEST(SimulatorTest, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.Schedule(10, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelUnknownIdIsNoop) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(9999));
}

TEST(SimulatorTest, CancelFiredEventReturnsFalse) {
  Simulator sim;
  EventId id = sim.Schedule(1, [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, DoubleCancelReturnsFalse) {
  Simulator sim;
  EventId id = sim.Schedule(10, [] {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, StepFiresExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] { ++fired; });
  sim.Schedule(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.Schedule(10, [&] { fired.push_back(10); });
  sim.Schedule(20, [&] { fired.push_back(20); });
  sim.Schedule(30, [&] { fired.push_back(30); });
  sim.RunUntil(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.Now(), 20);
  sim.RunUntil(35);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 30}));
  EXPECT_EQ(sim.Now(), 35);
}

TEST(SimulatorTest, RunUntilWithNoEventsAdvancesClock) {
  Simulator sim;
  sim.RunUntil(100);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, RunUntilSkipsCancelledHead) {
  Simulator sim;
  bool fired_late = false;
  EventId id = sim.Schedule(5, [] { FAIL() << "cancelled event fired"; });
  sim.Schedule(10, [&] { fired_late = true; });
  sim.Cancel(id);
  sim.RunUntil(10);
  EXPECT_TRUE(fired_late);
}

TEST(SimulatorTest, RequestStopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] {
    ++fired;
    sim.RequestStop();
  });
  sim.Schedule(2, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Run();  // Resumes.
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsFiredCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.Schedule(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_fired(), 5u);
}

TEST(SimulatorTest, PendingEventsExcludesCancelled) {
  Simulator sim;
  EventId id = sim.Schedule(1, [] {});
  sim.Schedule(2, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
}

// --- Pooled-arena specifics: generation tags, tombstone compaction, and
// --- interrupt clock semantics (simulator.h "Hot-path design").

TEST(SimulatorTest, StaleIdAfterSlotReuseIsUnknown) {
  Simulator sim;
  bool second_fired = false;
  EventId first = sim.Schedule(10, [] { FAIL() << "cancelled event fired"; });
  EXPECT_TRUE(sim.Cancel(first));
  // The freed slot is reused immediately; the generation tag must make the
  // old id unknown rather than cancel the new occupant.
  EventId second = sim.Schedule(20, [&] { second_fired = true; });
  EXPECT_EQ(SlotOfForTest(first), SlotOfForTest(second));
  EXPECT_FALSE(sim.Cancel(first));
  sim.Run();
  EXPECT_TRUE(second_fired);
}

TEST(SimulatorTest, StaleIdAfterFireAndReuseIsUnknown) {
  Simulator sim;
  EventId first = sim.Schedule(1, [] {});
  sim.Run();
  bool second_fired = false;
  EventId second = sim.Schedule(5, [&] { second_fired = true; });
  EXPECT_EQ(SlotOfForTest(first), SlotOfForTest(second));
  EXPECT_FALSE(sim.Cancel(first));  // Must not hit the reused slot.
  sim.Run();
  EXPECT_TRUE(second_fired);
}

TEST(SimulatorTest, SelfCancelFromCallbackIsNoop) {
  Simulator sim;
  EventId id = kInvalidEventId;
  bool cancel_result = true;
  id = sim.Schedule(5, [&] {
    // The id is retired before the callback runs, so cancelling the very
    // event being fired is a stale no-op, not a use-after-free.
    cancel_result = sim.Cancel(id);
  });
  sim.Run();
  EXPECT_FALSE(cancel_result);
  EXPECT_EQ(sim.events_fired(), 1u);
}

TEST(SimulatorTest, CallbackMayScheduleWhileFiring) {
  // A firing callback runs in place in its arena slot; scheduling from
  // inside it grows the arena and must not invalidate the running callback
  // (chunked storage) nor hand its own slot to the new event.
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    sim.Schedule(1, [&sim, &fired] {
      ++fired;
      sim.Schedule(1, [&fired] { ++fired; });
    });
  }
  sim.Run();
  EXPECT_EQ(fired, 200);
}

TEST(SimulatorTest, CancelStormKeepsHeapBounded) {
  // A worst-case cancel pattern: every iteration schedules a completion plus
  // a far-future timeout, then cancels the timeout when the completion
  // fires. (The engine itself cancels only on restart — the restarted
  // transaction's pending think or restart-delay event — but the kernel
  // must stay bounded under any cancel rate.) A kernel with unbounded lazy
  // deletion accumulates one tombstone per iteration; compaction must keep
  // heap occupancy at 2 * pending_events() + a small constant.
  Simulator sim;
  size_t peak = 0;
  for (int i = 0; i < 100000; ++i) {
    sim.Schedule(1, [] {});
    EventId guard = sim.Schedule(1000, [] { FAIL() << "guard fired"; });
    ASSERT_TRUE(sim.Step());
    ASSERT_TRUE(sim.Cancel(guard));
    peak = std::max(peak, sim.heap_entries());
  }
  EXPECT_LE(peak, 2 * 1 + 64u);
  while (sim.Step()) {
  }
  EXPECT_EQ(sim.events_fired(), 100000u);
}

TEST(SimulatorTest, RunUntilStoppedMidWindow) {
  // Pinned semantics (see RunUntil's declaration): a RequestStop mid-window
  // leaves the clock at the last fired event, NOT at `until`, so the stop
  // handler observes a consistent "now"; resuming with the same bound
  // finishes the window.
  Simulator sim;
  std::vector<SimTime> fired;
  sim.Schedule(10, [&] {
    fired.push_back(sim.Now());
    sim.RequestStop();
  });
  sim.Schedule(50, [&] { fired.push_back(sim.Now()); });
  sim.RunUntil(100);
  EXPECT_EQ(fired, (std::vector<SimTime>{10}));
  EXPECT_EQ(sim.Now(), 10);  // Not 100.
  // A zero-delay event scheduled now fires at the interrupt time.
  sim.Schedule(0, [&] { fired.push_back(sim.Now()); });
  sim.RunUntil(100);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 10, 50}));
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  SimTime last = -1;
  int count = 0;
  for (int i = 0; i < 10000; ++i) {
    SimTime when = (i * 7919) % 1000;  // Scattered, with many ties.
    sim.Schedule(when, [&, when] {
      EXPECT_GE(when, last);
      last = when;
      ++count;
    });
  }
  sim.Run();
  EXPECT_EQ(count, 10000);
}

}  // namespace
}  // namespace ccsim
