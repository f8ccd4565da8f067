// Unit tests for the discrete-event simulation kernel.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "closure_events.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/check.h"

namespace ccsim {
namespace {

/// The arena slot an EventId refers to (documented low-32-bit encoding);
/// used to assert that slots really are reused.
uint32_t SlotOfForTest(EventId id) { return static_cast<uint32_t>(id); }

/// One event as a Recorder received it.
struct Delivery {
  char handler;  ///< The receiving Recorder's name.
  Event event;
  SimTime at;
};

/// Records every event it receives, tagged with its own `name`, into a log
/// that several recorders may share.
class Recorder : public EventHandler {
 public:
  Recorder(const Simulator* sim, char name, std::vector<Delivery>* log)
      : sim_(sim), name_(name), log_(log) {}

  void OnEvent(const Event& event) override {
    log_->push_back({name_, event, sim_->Now()});
  }

 private:
  const Simulator* sim_;
  char name_;
  std::vector<Delivery>* log_;
};

bool SameRecord(const Event& a, const Event& b) {
  return a.handler == b.handler && a.kind == b.kind && a.byte == b.byte &&
         a.word == b.word && a.arg0 == b.arg0 && a.arg1 == b.arg1 &&
         a.arg2 == b.arg2;
}

TEST(TimeTest, Conversions) {
  EXPECT_EQ(FromSeconds(1.0), kSecond);
  EXPECT_EQ(FromSeconds(0.5), 500 * kMillisecond);
  EXPECT_EQ(FromMillis(35), 35 * kMillisecond);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToSeconds(1500 * kMillisecond), 1.5);
  EXPECT_EQ(FromMillis(0.0015), 2);  // Rounds to nearest µs.
}

TEST(TimeTest, NonFiniteOrOutOfRangeDurationsAreRejected) {
  // Casting these to SimTime would be undefined behaviour; they come from
  // configs and environment variables, so the check must hold in every build.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ScopedCheckTrap trap;
  EXPECT_THROW(FromSeconds(kNan), CheckFailure);
  EXPECT_THROW(FromSeconds(kInf), CheckFailure);
  EXPECT_THROW(FromSeconds(-kInf), CheckFailure);
  EXPECT_THROW(FromSeconds(1e300), CheckFailure);
  EXPECT_THROW(FromSeconds(-1e300), CheckFailure);
  EXPECT_THROW(FromMillis(kNan), CheckFailure);
  EXPECT_THROW(FromMillis(1e300), CheckFailure);
  EXPECT_THROW(FromSeconds(9.3e12), CheckFailure);  // Just past 2^63 µs.
  EXPECT_EQ(FromSeconds(9.2e12), SimTime{9'200'000'000'000'000'000});
}

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  ClosureEvents events(&sim);
  std::vector<int> order;
  events.Schedule(30, [&] { order.push_back(3); });
  events.Schedule(10, [&] { order.push_back(1); });
  events.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, TiesFireInSchedulingOrder) {
  Simulator sim;
  ClosureEvents events(&sim);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    events.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  ClosureEvents events(&sim);
  SimTime seen = -1;
  events.Schedule(42, [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, 42);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  ClosureEvents events(&sim);
  std::vector<SimTime> times;
  events.Schedule(10, [&] {
    times.push_back(sim.Now());
    events.Schedule(5, [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, ZeroDelayEventFiresAtSameTime) {
  Simulator sim;
  ClosureEvents events(&sim);
  std::vector<int> order;
  events.Schedule(10, [&] {
    order.push_back(1);
    events.Schedule(0, [&] { order.push_back(2); });
  });
  events.Schedule(10, [&] { order.push_back(3); });
  sim.Run();
  // The zero-delay event was scheduled after event 3, so it fires after it.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.Now(), 10);
}

TEST(SimulatorTest, CancelPreventsFiring) {
  Simulator sim;
  ClosureEvents events(&sim);
  bool fired = false;
  EventId id = events.Schedule(10, [&] { fired = true; });
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
  ClosureEvents events(&sim);
  EventId id = events.Schedule(1, [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, DoubleCancelReturnsFalse) {
  Simulator sim;
  ClosureEvents events(&sim);
  EventId id = events.Schedule(10, [] {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, StepFiresExactlyOne) {
  Simulator sim;
  ClosureEvents events(&sim);
  int fired = 0;
  events.Schedule(1, [&] { ++fired; });
  events.Schedule(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  ClosureEvents events(&sim);
  std::vector<SimTime> fired;
  events.Schedule(10, [&] { fired.push_back(10); });
  events.Schedule(20, [&] { fired.push_back(20); });
  events.Schedule(30, [&] { fired.push_back(30); });
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
  ClosureEvents events(&sim);
  bool fired_late = false;
  EventId id = events.Schedule(5, [] { FAIL() << "cancelled event fired"; });
  events.Schedule(10, [&] { fired_late = true; });
  sim.Cancel(id);
  sim.RunUntil(10);
  EXPECT_TRUE(fired_late);
}

TEST(SimulatorTest, RequestStopHaltsRun) {
  Simulator sim;
  ClosureEvents events(&sim);
  int fired = 0;
  events.Schedule(1, [&] {
    ++fired;
    sim.RequestStop();
  });
  events.Schedule(2, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Run();  // Resumes.
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsFiredCounter) {
  Simulator sim;
  ClosureEvents events(&sim);
  for (int i = 0; i < 5; ++i) events.Schedule(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_fired(), 5u);
}

TEST(SimulatorTest, PendingEventsExcludesCancelled) {
  Simulator sim;
  ClosureEvents events(&sim);
  EventId id = events.Schedule(1, [] {});
  events.Schedule(2, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
}

// --- Pooled-arena specifics: generation tags, tombstone compaction, and
// --- interrupt clock semantics (simulator.h "Hot-path design").

TEST(SimulatorTest, StaleIdAfterSlotReuseIsUnknown) {
  Simulator sim;
  ClosureEvents events(&sim);
  bool second_fired = false;
  EventId first =
      events.Schedule(10, [] { FAIL() << "cancelled event fired"; });
  EXPECT_TRUE(sim.Cancel(first));
  // The freed slot is reused immediately; the generation tag must make the
  // old id unknown rather than cancel the new occupant.
  EventId second = events.Schedule(20, [&] { second_fired = true; });
  EXPECT_EQ(SlotOfForTest(first), SlotOfForTest(second));
  EXPECT_FALSE(sim.Cancel(first));
  sim.Run();
  EXPECT_TRUE(second_fired);
}

TEST(SimulatorTest, StaleIdAfterFireAndReuseIsUnknown) {
  Simulator sim;
  ClosureEvents events(&sim);
  EventId first = events.Schedule(1, [] {});
  sim.Run();
  bool second_fired = false;
  EventId second = events.Schedule(5, [&] { second_fired = true; });
  EXPECT_EQ(SlotOfForTest(first), SlotOfForTest(second));
  EXPECT_FALSE(sim.Cancel(first));  // Must not hit the reused slot.
  sim.Run();
  EXPECT_TRUE(second_fired);
}

TEST(SimulatorTest, SelfCancelFromCallbackIsNoop) {
  Simulator sim;
  ClosureEvents events(&sim);
  EventId id = kInvalidEventId;
  bool cancel_result = true;
  id = events.Schedule(5, [&] {
    // The id is retired before the handler runs, so cancelling the very
    // event being fired is a stale no-op.
    cancel_result = sim.Cancel(id);
  });
  sim.Run();
  EXPECT_FALSE(cancel_result);
  EXPECT_EQ(sim.events_fired(), 1u);
}

TEST(SimulatorTest, CallbackMayScheduleWhileFiring) {
  // Step() copies each record out of its slot before dispatch, so a handler
  // may schedule — reusing that slot or growing the arena — while it runs.
  Simulator sim;
  ClosureEvents events(&sim);
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    events.Schedule(1, [&events, &fired] {
      ++fired;
      events.Schedule(1, [&fired] { ++fired; });
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
  // must stay bounded under any cancel rate.) A cancel that failed to free
  // its slot would grow the arena by one per iteration; it must stay at
  // 2 * pending_events() + a small constant.
  Simulator sim;
  std::vector<Delivery> log;
  Recorder recorder(&sim, 'r', &log);
  constexpr uint8_t kCompletion = 0;
  constexpr uint8_t kTimeout = 1;
  size_t peak = 0;
  for (int i = 0; i < 100000; ++i) {
    sim.Schedule(1, {.handler = &recorder, .kind = kCompletion});
    EventId guard =
        sim.Schedule(1000, {.handler = &recorder, .kind = kTimeout});
    ASSERT_TRUE(sim.Step());
    ASSERT_TRUE(sim.Cancel(guard));
    peak = std::max(peak, sim.arena_slots());
  }
  EXPECT_LE(peak, 2 * 1 + 64u);
  while (sim.Step()) {
  }
  EXPECT_EQ(sim.events_fired(), 100000u);
  for (const Delivery& delivery : log) {
    ASSERT_EQ(delivery.event.kind, kCompletion) << "a cancelled timeout fired";
  }
}

TEST(SimulatorTest, ScheduleOverflowingSimTimeIsRejected) {
  Simulator sim;
  std::vector<Delivery> log;
  Recorder recorder(&sim, 'r', &log);
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  sim.RunUntil(10);
  ScopedCheckTrap trap;
  EXPECT_THROW(sim.Schedule(kMax, {.handler = &recorder}), CheckFailure);
  EXPECT_THROW(sim.Schedule(kMax - 9, {.handler = &recorder}), CheckFailure);
  EXPECT_THROW(sim.Schedule(-1, {.handler = &recorder}), CheckFailure);
  EXPECT_EQ(sim.pending_events(), 0u);
  // The last representable instant is still schedulable, and fires.
  sim.Schedule(kMax - 10, {.handler = &recorder, .kind = 1});
  sim.Schedule(5, {.handler = &recorder, .kind = 2});
  sim.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].at, 15);
  EXPECT_EQ(log[1].at, kMax);
}

TEST(SimulatorTest, RunUntilStoppedMidWindow) {
  // Pinned semantics (see RunUntil's declaration): a RequestStop mid-window
  // leaves the clock at the last fired event, NOT at `until`, so the stop
  // handler observes a consistent "now"; resuming with the same bound
  // finishes the window.
  Simulator sim;
  ClosureEvents events(&sim);
  std::vector<SimTime> fired;
  events.Schedule(10, [&] {
    fired.push_back(sim.Now());
    sim.RequestStop();
  });
  events.Schedule(50, [&] { fired.push_back(sim.Now()); });
  sim.RunUntil(100);
  EXPECT_EQ(fired, (std::vector<SimTime>{10}));
  EXPECT_EQ(sim.Now(), 10);  // Not 100.
  // A zero-delay event scheduled now fires at the interrupt time.
  events.Schedule(0, [&] { fired.push_back(sim.Now()); });
  sim.RunUntil(100);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 10, 50}));
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  ClosureEvents events(&sim);
  SimTime last = -1;
  int count = 0;
  for (int i = 0; i < 10000; ++i) {
    SimTime when = (i * 7919) % 1000;  // Scattered, with many ties.
    events.Schedule(when, [&, when] {
      EXPECT_GE(when, last);
      last = when;
      ++count;
    });
  }
  sim.Run();
  EXPECT_EQ(count, 10000);
}

// --- Typed records: what is scheduled is exactly what the handler gets.

TEST(SimulatorTest, HandlerReceivesKindAndPayloadUnchanged) {
  Simulator sim;
  std::vector<Delivery> log;
  Recorder recorder(&sim, 'r', &log);
  const std::vector<Event> sent = {
      {.handler = &recorder, .kind = 0},
      {.handler = &recorder,
       .kind = 255,
       .byte = 255,
       .word = std::numeric_limits<int32_t>::min(),
       .arg0 = std::numeric_limits<int64_t>::min(),
       .arg1 = std::numeric_limits<int64_t>::max(),
       .arg2 = -1},
      {.handler = &recorder,
       .kind = 7,
       .byte = 1,
       .word = std::numeric_limits<int32_t>::max(),
       .arg0 = 42,
       .arg1 = 0,
       .arg2 = 1234567890123},
  };
  for (size_t i = 0; i < sent.size(); ++i) {
    sim.Schedule(static_cast<SimTime>(10 * (i + 1)), sent[i]);
  }
  sim.Run();
  ASSERT_EQ(log.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_TRUE(SameRecord(log[i].event, sent[i]));
    EXPECT_EQ(log[i].at, static_cast<SimTime>(10 * (i + 1)));
  }
}

TEST(SimulatorTest, SameInstantRecordsForTwoHandlersFireInSchedulingOrder) {
  Simulator sim;
  std::vector<Delivery> log;
  Recorder a(&sim, 'a', &log);
  Recorder b(&sim, 'b', &log);
  const std::string order = "abbabaab";
  for (size_t i = 0; i < order.size(); ++i) {
    Recorder* to = order[i] == 'a' ? &a : &b;
    sim.Schedule(5, {.handler = to, .arg0 = static_cast<int64_t>(i)});
  }
  sim.Run();
  ASSERT_EQ(log.size(), order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(log[i].handler, order[i]);
    EXPECT_EQ(log[i].event.arg0, static_cast<int64_t>(i));
    EXPECT_EQ(log[i].at, 5);
  }
}

TEST(SimulatorTest, CancelledRecordNeverReachesItsHandler) {
  Simulator sim;
  std::vector<Delivery> log;
  Recorder recorder(&sim, 'r', &log);
  sim.Schedule(1, {.handler = &recorder, .kind = 1});
  EventId doomed = sim.Schedule(2, {.handler = &recorder, .kind = 2});
  sim.Schedule(3, {.handler = &recorder, .kind = 3});
  EXPECT_TRUE(sim.Cancel(doomed));
  sim.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].event.kind, 1);
  EXPECT_EQ(log[1].event.kind, 3);
  EXPECT_EQ(sim.events_fired(), 2u);
}

/// Checks every event it receives against the record it scheduled (arg0 is
/// a serial naming that record) and, below the last generation (kind),
/// schedules `fanout` children from inside OnEvent.
class Spawner : public EventHandler {
 public:
  Spawner(Simulator* sim, int fanout, int generations)
      : sim_(sim), fanout_(fanout), generations_(generations) {}

  EventId Spawn(SimTime delay, int generation) {
    const auto serial = static_cast<int64_t>(sent_.size());
    const Event event = {.handler = this,
                         .kind = static_cast<uint8_t>(generation),
                         .byte = static_cast<uint8_t>(serial * 37),
                         .word = static_cast<int32_t>(serial * -7919),
                         .arg0 = serial,
                         .arg1 = serial * 1000003,
                         .arg2 = ~serial};
    sent_.push_back(event);
    return sim_->Schedule(delay, event);
  }

  void OnEvent(const Event& event) override {
    ++received;
    const auto serial = static_cast<size_t>(event.arg0);
    if (serial >= sent_.size() || !SameRecord(event, sent_[serial])) {
      ++corrupted;
    }
    if (event.kind + 1 >= generations_) return;
    for (int i = 0; i < fanout_; ++i) {
      const EventId id = Spawn(1, event.kind + 1);
      if (i == 0) first_child_slots.push_back(SlotOfForTest(id));
    }
  }

  int received = 0;
  int corrupted = 0;
  std::vector<uint32_t> first_child_slots;

 private:
  Simulator* sim_;
  int fanout_;
  int generations_;
  std::vector<Event> sent_;
};

TEST(SimulatorTest, HandlerSchedulingFromOnEventSeesCorrectRecords) {
  // The firing event's slot is freed before dispatch, so its first child
  // reuses it; the other children grow the arena. Every record must still
  // arrive exactly as scheduled.
  Simulator sim;
  Spawner spawner(&sim, /*fanout=*/9, /*generations=*/4);
  const EventId root = spawner.Spawn(0, 0);
  ASSERT_TRUE(sim.Step());
  ASSERT_EQ(spawner.first_child_slots.size(), 1u);
  EXPECT_EQ(spawner.first_child_slots[0], SlotOfForTest(root));
  EXPECT_EQ(sim.pending_events(), 9u);  // From a one-slot arena.
  sim.Run();
  EXPECT_EQ(spawner.received, 1 + 9 + 81 + 729);
  EXPECT_EQ(spawner.corrupted, 0);
}

}  // namespace
}  // namespace ccsim
