// Deterministic discrete-event simulation kernel.
//
// Events scheduled for the same instant fire in scheduling order (stable
// sequence-number tie-breaking), so a simulation run is a pure function of
// its parameters and master seed.
//
// Hot-path design (docs/PERFORMANCE.md):
//  * An event is a plain record (Event) fired at its EventHandler, which
//    switches on a kind it defines. The kernel stores no closures, so once
//    the arena reaches its working size, scheduling performs zero heap
//    allocations (kernel: tests/sim_alloc_test.cc; the whole engine:
//    tests/engine_alloc_test.cc).
//  * Events live in a pooled arena: free-listed slots in one vector,
//    indexed by generation-tagged EventIds. Schedule, Cancel, and fire are
//    all O(1) slot operations with no hash lookups, and a stale EventId (its
//    slot already reused) is detected by its generation tag. Step() copies
//    the record out and frees its slot before dispatch, so a handler may
//    schedule events — and grow the arena — while it runs.
//  * The pending set is a monotone radix queue (Ahuja, Mehlhorn, Orlin and
//    Tarjan, JACM 1990) threaded through the slots. A pending event sits in
//    FIFO bucket bit_width(time ^ base) of 64, where base is the time of the
//    latest pop, so bucket 0 holds exactly the events due at base. A pop
//    takes bucket 0's head; when bucket 0 is empty it first moves base to
//    the minimum of the lowest non-empty bucket and re-links that bucket,
//    in list order, into the empty buckets below it. Equal times share a
//    bucket and no step reorders a list, so ties pop in scheduling order:
//    the same (time, seq) order a heap would give. Cancel is an O(1)
//    unlink, so cancelled events leave nothing behind.
#ifndef CCSIM_SIM_SIMULATOR_H_
#define CCSIM_SIM_SIMULATOR_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "sim/choice.h"
#include "sim/time.h"
#include "util/check.h"

namespace ccsim {

/// Handle for a scheduled event; usable to cancel it before it fires.
/// Encodes an arena slot (low 32 bits) and that slot's generation at
/// scheduling time (high 32 bits); a pending event's generation is odd, so
/// no valid id ever equals kInvalidEventId.
using EventId = uint64_t;

inline constexpr EventId kInvalidEventId = 0;

class EventHandler;

/// A scheduled event: a plain record the simulator hands back unchanged to
/// `handler` when it fires. `kind` and the payload mean whatever the handler
/// defines; the payload — a byte, a 32-bit word and three 64-bit words — is
/// wide enough to carry a res/ ServiceRequest.
struct Event {
  EventHandler* handler = nullptr;
  uint8_t kind = 0;
  uint8_t byte = 0;
  int32_t word = 0;
  // Named fields, not an array: GCC scalarises them, so a record built at a
  // call site costs plain stores (docs/PERFORMANCE.md).
  int64_t arg0 = 0;
  int64_t arg1 = 0;
  int64_t arg2 = 0;
};
static_assert(std::is_trivially_copyable_v<Event> && sizeof(Event) <= 40,
              "an event record must stay a small plain record");

/// Receives the events scheduled for it.
class EventHandler {
 public:
  /// Called when `event` fires, with the clock at its time. May schedule
  /// and cancel events.
  virtual void OnEvent(const Event& event) = 0;

 protected:
  ~EventHandler() = default;
};

/// The event budget checked inside the event loop (the per-point budget,
/// docs/EXECUTION.md). A livelocked model — e.g. a zero-delay restart chain
/// re-requesting the same lock at one simulated instant forever — never
/// leaves Step(), so the budget must be enforced between events, not by the
/// code driving RunUntil().
struct RunGuard {
  /// Ceiling on events_fired(); 0 = unlimited.
  uint64_t max_events = 0;
  /// Called once when the ceiling trips, with a short reason ("event budget
  /// exhausted"). Expected to throw a diagnostic exception; if it returns,
  /// the simulator falls back to a CCSIM_CHECK failure.
  /// std::function is fine here (ccsim-lint R5 allowlist): the guard is
  /// installed once per run and the callback fires at most once.
  std::function<void(const char* reason)> on_violation;
};

/// Progress snapshot shared with a reporter thread (the opt-in heartbeat,
/// exec/watchdog.h). The simulator and engine store into it with relaxed
/// atomics on their own thread; the heartbeat thread only reads. Purely
/// observational — it can never influence the simulation.
struct ProgressCell {
  std::atomic<int64_t> sim_time_us{0};
  std::atomic<uint64_t> events{0};
  std::atomic<int64_t> commits{0};
};

/// The event scheduler and simulation clock.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Schedules `event` to fire at its handler `delay` µs from now. Requires
  /// delay >= 0, a time that fits in SimTime, and a handler.
  EventId Schedule(SimTime delay, const Event& event) {
    CCSIM_CHECK_GE(delay, 0) << "cannot schedule into the past";
    CCSIM_CHECK_LE(delay, kEndOfTime - now_)
        << "event time " << now_ << " + " << delay << " overflows SimTime";
    CCSIM_CHECK(event.handler != nullptr) << "event without a handler";
    const uint32_t slot = AcquireSlot();
    Slot& s = slots_[slot];
    s.event = event;
    s.time = now_ + delay;
    s.seq = next_seq_++;
    Append(slot);
    ++live_events_;
    return (static_cast<EventId>(s.generation) << 32) | slot;
  }

  /// Cancels a pending event. Returns true if the event existed and had not
  /// yet fired; cancelling an already-fired, already-cancelled, or unknown
  /// id is a no-op (the generation tag makes a stale id — one whose slot has
  /// since been reused by a newer event — reliably unknown).
  bool Cancel(EventId id) {
    const uint32_t slot = static_cast<uint32_t>(id);
    const auto generation = static_cast<uint32_t>(id >> 32);
    if ((generation & 1) == 0 || slot >= slots_.size() ||
        slots_[slot].generation != generation) {
      return false;
    }
    Unlink(slot, BucketOf(slots_[slot].time));
    RetireSlot(slot);
    return true;
  }

  /// Fires the next pending event, advancing the clock to its time.
  /// Returns false when no events remain.
  bool Step() { return FireNext(kEndOfTime); }

  /// Runs until the event queue drains or `RequestStop` is called.
  void Run();

  /// Runs all events with time <= `until`, then sets the clock to `until`.
  ///
  /// Interrupt semantics (pinned by SimulatorTest.RunUntilStoppedMidWindow):
  /// if RequestStop() fires mid-window, the clock stays at the time of the
  /// last fired event — it does NOT jump to `until`. The stop handler and
  /// everything it schedules therefore observe a consistent "now"; a driver
  /// that wants the window completed resumes with RunUntil(until) again,
  /// which replays no events and only advances the clock. Consequently a
  /// Schedule(0, ...) issued after an interrupted window fires at the
  /// interrupt time, not at `until`, while Schedule(until - Now(), ...)
  /// always lands at `until`.
  void RunUntil(SimTime until);

  /// Makes Run()/RunUntil() return after the current event completes.
  void RequestStop() { stop_requested_ = true; }

  /// Number of events that have fired so far (for perf reporting and tests).
  uint64_t events_fired() const { return events_fired_; }

  /// Number of pending (non-cancelled) events.
  size_t pending_events() const { return live_events_; }

  /// Slots in the event arena: the peak number of events pending at once,
  /// since a freed slot is reused before the arena grows. Fire and cancel
  /// both free their slot; one that did not would grow this without bound
  /// (pinned by SimulatorTest.CancelStormKeepsHeapBounded).
  size_t arena_slots() const { return slots_.size(); }

  /// Installs an event budget checked before every event fires; replaces
  /// any previous guard. An inert guard (no ceiling) costs one branch per
  /// event.
  void SetRunGuard(RunGuard guard);

  /// Removes the guard.
  void ClearRunGuard();

  /// Attaches a heartbeat progress cell (nullptr detaches). When attached,
  /// every fired event stores the clock and event count into the cell;
  /// detached (the default) the cost is one branch per event.
  void SetProgressCell(ProgressCell* cell) { progress_ = cell; }

 private:
  /// Calls guard_.on_violation (which throws) with `reason`; never returns.
  [[noreturn]] void TripGuard(const char* reason);

  /// Fires the next pending event if its time is <= `until`; returns false
  /// (touching nothing) otherwise or when none is pending.
  bool FireNext(SimTime until);

  /// Event arena slot. While it holds a pending event, `time` and `seq` (the
  /// scheduling sequence number, offered to a ChoicePoint as the event's
  /// signature) key it and `prev`/`next` link it into its bucket; a free
  /// slot's `next` links the free list. `generation` is odd while the slot
  /// is pending and even while it is free, bumped at both transitions, so a
  /// stale id fails one compare.
  struct Slot {
    Event event;
    SimTime time = 0;
    uint64_t seq = 0;
    uint32_t generation = 0;
    uint32_t prev = kNullSlot;
    uint32_t next = kNullSlot;
  };

  static constexpr uint32_t kNullSlot = 0xffffffffu;
  static constexpr SimTime kEndOfTime = std::numeric_limits<SimTime>::max();
  /// Times are non-negative, so time ^ base < 2^63 and its bit width < 64.
  static constexpr int kBuckets = 64;

  /// The bucket of a pending event due at `time` (>= base_). It stays put
  /// when base_ moves to the minimum of a lower bucket: both agree with the
  /// old base on every bit above the lower bucket's.
  int BucketOf(SimTime time) const {
    return std::bit_width(static_cast<uint64_t>(time ^ base_));
  }

  /// Pops a slot off the free list, growing the arena if it is empty, and
  /// makes its generation odd.
  uint32_t AcquireSlot() {
    uint32_t slot;
    if (free_head_ != kNullSlot) {
      slot = free_head_;
      free_head_ = slots_[slot].next;
    } else {
      CCSIM_CHECK_LT(slots_.size(), kNullSlot) << "event arena exhausted";
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    ++slots_[slot].generation;
    return slot;
  }

  /// Retires a fired or cancelled event's unlinked slot: makes its
  /// generation even, invalidating every outstanding id, and pushes it on
  /// the free list.
  void RetireSlot(uint32_t slot) {
    Slot& s = slots_[slot];
    ++s.generation;
    s.next = free_head_;
    free_head_ = slot;
    --live_events_;
  }

  /// Appends `slot` to the tail of its bucket.
  void Append(uint32_t slot) {
    Slot& s = slots_[slot];
    const int bucket = BucketOf(s.time);
    const uint64_t bit = uint64_t{1} << bucket;
    s.next = kNullSlot;
    if ((nonempty_ & bit) != 0) {
      s.prev = tail_[bucket];
      slots_[s.prev].next = slot;
    } else {
      s.prev = kNullSlot;
      head_[bucket] = slot;
      nonempty_ |= bit;
    }
    tail_[bucket] = slot;
  }

  /// Removes `slot` from `bucket`'s list, keeping the rest in order.
  void Unlink(uint32_t slot, int bucket) {
    const Slot& s = slots_[slot];
    if (s.prev == kNullSlot) {
      head_[bucket] = s.next;
    } else {
      slots_[s.prev].next = s.next;
    }
    if (s.next == kNullSlot) {
      tail_[bucket] = s.prev;
    } else {
      slots_[s.next].prev = s.prev;
    }
    if (head_[bucket] == kNullSlot) nonempty_ &= ~(uint64_t{1} << bucket);
  }

  /// The earliest time in the lowest non-empty bucket, which is the
  /// earliest pending time when bucket 0 is empty. Requires a pending event.
  SimTime LowestBucketMin() const;

  /// Moves base_ to `min` (LowestBucketMin()) and re-links the lowest
  /// non-empty bucket, in list order, into the empty buckets below it.
  /// Requires an empty bucket 0.
  void Rebucket(SimTime min);

  /// Offers bucket 0's first (up to six) events — those due now, in
  /// scheduling order — to the active ChoicePoint and returns the slot it
  /// picked; the rest stay queued in order. Only called when a choice hook
  /// is installed.
  uint32_t ResolveTie() const;

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_fired_ = 0;
  size_t live_events_ = 0;
  bool stop_requested_ = false;
  RunGuard guard_;
  ProgressCell* progress_ = nullptr;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNullSlot;
  /// The radix queue: base_ <= now_ <= every pending time whenever control
  /// is outside FireNext, bit b of nonempty_ is set iff bucket b has an
  /// event, and head_/tail_ are read only for non-empty buckets.
  SimTime base_ = 0;
  uint64_t nonempty_ = 0;
  uint32_t head_[kBuckets] = {};
  uint32_t tail_[kBuckets] = {};
};

}  // namespace ccsim

#endif  // CCSIM_SIM_SIMULATOR_H_
