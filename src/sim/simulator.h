// Deterministic discrete-event simulation kernel.
//
// Events scheduled for the same instant fire in scheduling order (stable
// sequence-number tie-breaking), so a simulation run is a pure function of
// its parameters and master seed.
//
// Hot-path design (docs/PERFORMANCE.md):
//  * An event is a plain record (Event) fired at its EventHandler, which
//    switches on a kind it defines. The kernel stores no closures, so once
//    the arena and the heap reach their working size, scheduling performs
//    zero heap allocations (kernel: tests/sim_alloc_test.cc; the whole
//    engine: tests/engine_alloc_test.cc).
//  * Events live in a pooled arena: free-listed slots in one vector,
//    indexed by generation-tagged EventIds. Schedule, Cancel, and fire are
//    all O(1) slot operations with no hash lookups, and a stale EventId (its
//    slot already reused) is detected by its generation tag. Step() copies
//    the record out and frees its slot before dispatch, so a handler may
//    schedule events — and grow the arena — while it runs.
//  * The pending queue is a 4-ary min-heap on (time, seq). Cancellation is
//    lazy — the heap entry becomes a tombstone — but tombstones are
//    compacted away whenever they outnumber live entries, so cancel-heavy
//    workloads (every blocking algorithm cancels a pending event per
//    restart) keep the heap bounded by the live event population.
#ifndef CCSIM_SIM_SIMULATOR_H_
#define CCSIM_SIM_SIMULATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "sim/choice.h"
#include "sim/time.h"
#include "util/check.h"

namespace ccsim {

/// Handle for a scheduled event; usable to cancel it before it fires.
/// Encodes an arena slot (low 32 bits) and that slot's generation at
/// scheduling time (high 32 bits); generations start at 1, so no valid id
/// ever equals kInvalidEventId.
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

/// Execution limits checked inside the event loop (the per-point watchdog,
/// docs/EXECUTION.md). A livelocked model — e.g. a zero-delay restart chain
/// re-requesting the same lock at one simulated instant forever — never
/// leaves Step(), so budgets must be enforced between events, not by the
/// code driving RunUntil().
struct RunGuard {
  /// Ceiling on events_fired(); 0 = unlimited.
  uint64_t max_events = 0;
  /// External interrupt (set by a watchdog thread at a wall-clock deadline);
  /// polled with relaxed loads before each event. nullptr = none.
  const std::atomic<bool>* interrupt = nullptr;
  /// Called once when a limit trips, with a short reason ("event budget
  /// exhausted" / "interrupted"). Expected to throw a diagnostic exception;
  /// if it returns, the simulator falls back to a CCSIM_CHECK failure.
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
  /// delay >= 0 and a handler.
  EventId Schedule(SimTime delay, const Event& event) {
    CCSIM_CHECK_GE(delay, 0) << "cannot schedule into the past";
    CCSIM_CHECK(event.handler != nullptr) << "event without a handler";
    const uint32_t slot = AcquireSlot();
    Slot& s = slots_[slot];
    s.event = event;
    const EventId id = (static_cast<EventId>(s.generation) << 32) | slot;
    HeapPush(HeapEntry{now_ + delay, next_seq_++, id});
    ++live_events_;
    return id;
  }

  /// Cancels a pending event. Returns true if the event existed and had not
  /// yet fired; cancelling an already-fired, already-cancelled, or unknown
  /// id is a no-op (the generation tag makes a stale id — one whose slot has
  /// since been reused by a newer event — reliably unknown).
  bool Cancel(EventId id) {
    uint32_t slot = LiveSlotOf(id);
    if (slot == kNullSlot) return false;
    RetireSlot(slot);
    // Lazy deletion: the heap entry remains as a tombstone, skipped on pop —
    // but compact once tombstones outnumber live entries so cancel/reschedule
    // churn cannot grow the heap without bound.
    ++dead_entries_;
    if (heap_.size() >= kMinCompactEntries &&
        dead_entries_ * 2 > heap_.size()) {
      CompactHeap();
    }
    return true;
  }

  /// Fires the next pending event, advancing the clock to its time.
  /// Returns false when no events remain.
  bool Step() {
    if (!SkimTombstones()) return false;
    if (guard_armed_) EnforceGuard();
    HeapEntry entry = heap_.front();
    HeapPopTop();
    if (ActiveChoicePoint() != nullptr) entry = ResolveTie(entry);
    // Copy the record out and free its slot before dispatch: a self-Cancel
    // from the handler is then a stale no-op, and whatever the handler
    // schedules may reuse the slot or grow the arena.
    const uint32_t slot = SlotOf(entry.id);
    const Event event = slots_[slot].event;
    RetireSlot(slot);
    CCSIM_CHECK_GE(entry.time, now_);
    now_ = entry.time;
    ++events_fired_;
    if (progress_ != nullptr) {
      progress_->sim_time_us.store(now_, std::memory_order_relaxed);
      progress_->events.store(events_fired_, std::memory_order_relaxed);
    }
    event.handler->OnEvent(event);
    return true;
  }

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

  /// Current heap occupancy: pending events plus not-yet-compacted cancel
  /// tombstones. Compaction keeps this below 2 * pending_events() + a small
  /// constant (pinned by SimulatorTest.CancelStormKeepsHeapBounded).
  size_t heap_entries() const { return heap_.size(); }

  /// Installs execution limits checked before every event fires; replaces
  /// any previous guard. An inert guard (no limits) costs one branch per
  /// event.
  void SetRunGuard(RunGuard guard);

  /// Removes the guard.
  void ClearRunGuard();

  /// Attaches a heartbeat progress cell (nullptr detaches). When attached,
  /// every fired event stores the clock and event count into the cell;
  /// detached (the default) the cost is one branch per event.
  void SetProgressCell(ProgressCell* cell) { progress_ = cell; }

 private:
  /// Enforces the guard; calls guard_.on_violation (which throws) on a trip.
  void EnforceGuard();

  struct HeapEntry {
    SimTime time;
    /// Monotone scheduling sequence number: ties on `time` fire in
    /// scheduling order. (time, seq) is a strict total order, so the pop
    /// sequence is independent of the heap's internal layout — which is what
    /// makes tombstone compaction behavior-neutral.
    uint64_t seq;
    EventId id;
  };

  /// Event arena slot. `generation` tags the ids handed out for this slot;
  /// it is bumped on release so stale ids and heap tombstones are detected
  /// in O(1) without any lookup structure.
  struct Slot {
    Event event;
    uint32_t generation = 1;
    /// Next slot in the free list, kNullSlot at the tail, or kSlotLive while
    /// the slot holds a pending event.
    uint32_t next_free = kNullSlot;
  };

  static constexpr uint32_t kNullSlot = 0xffffffffu;
  static constexpr uint32_t kSlotLive = 0xfffffffeu;
  static constexpr size_t kHeapArity = 4;
  /// Compaction only kicks in above this heap size: tiny heaps are cheap to
  /// scan and compacting them would just churn.
  static constexpr size_t kMinCompactEntries = 64;

  static uint32_t SlotOf(EventId id) { return static_cast<uint32_t>(id); }
  static uint32_t GenerationOf(EventId id) {
    return static_cast<uint32_t>(id >> 32);
  }

  bool IsLive(const HeapEntry& entry) const {
    return LiveSlotOf(entry.id) != kNullSlot;
  }

  /// Returns the slot of a live pending event, or kNullSlot if `id` is
  /// stale, fired, cancelled, or invalid.
  uint32_t LiveSlotOf(EventId id) const {
    uint32_t slot = SlotOf(id);
    if (slot >= slots_.size()) return kNullSlot;
    const Slot& s = slots_[slot];
    if (s.next_free != kSlotLive || s.generation != GenerationOf(id)) {
      return kNullSlot;
    }
    return slot;
  }

  /// Pops a slot off the free list, growing the arena if it is empty. The
  /// returned slot's next_free is kSlotLive.
  uint32_t AcquireSlot() {
    uint32_t slot;
    if (free_head_ != kNullSlot) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
    } else {
      CCSIM_CHECK_LT(slots_.size(), kSlotLive) << "event arena exhausted";
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot].next_free = kSlotLive;
    return slot;
  }

  /// Retires a fired or cancelled event's slot: bumps its generation —
  /// invalidating every outstanding id, including the tombstone heap entry
  /// of a cancelled event — and pushes it on the free list.
  void RetireSlot(uint32_t slot) {
    Slot& s = slots_[slot];
    ++s.generation;
    s.next_free = free_head_;
    free_head_ = slot;
    --live_events_;
  }

  // 4-ary min-heap on (time, seq) over heap_.
  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  void HeapPush(HeapEntry entry) {
    heap_.push_back(entry);
    SiftUp(heap_.size() - 1);
  }
  void HeapPopTop() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
  }
  void SiftUp(size_t index) {
    HeapEntry entry = heap_[index];
    while (index > 0) {
      size_t parent = (index - 1) / kHeapArity;
      if (!Before(entry, heap_[parent])) break;
      heap_[index] = heap_[parent];
      index = parent;
    }
    heap_[index] = entry;
  }
  void SiftDown(size_t index) {
    HeapEntry entry = heap_[index];
    const size_t size = heap_.size();
    for (;;) {
      size_t first_child = index * kHeapArity + 1;
      if (first_child >= size) break;
      size_t last_child = first_child + kHeapArity;
      if (last_child > size) last_child = size;
      size_t best = first_child;
      for (size_t child = first_child + 1; child < last_child; ++child) {
        if (Before(heap_[child], heap_[best])) best = child;
      }
      if (!Before(heap_[best], entry)) break;
      heap_[index] = heap_[best];
      index = best;
    }
    heap_[index] = entry;
  }

  /// Drops tombstones from the top of the heap. Returns false if the heap is
  /// empty (no live entries remain).
  bool SkimTombstones() {
    while (!heap_.empty()) {
      if (IsLive(heap_.front())) return true;
      HeapPopTop();
      --dead_entries_;
    }
    return false;
  }

  /// Rebuilds the heap without tombstones. O(heap size), amortized O(1) per
  /// cancel by the dead > live trigger.
  void CompactHeap();

  /// Offers the set of live events scheduled for `first`'s instant to the
  /// active ChoicePoint and returns the one it picked; the rest go back on
  /// the heap with their seqs (and thus the default ordering) intact. Only
  /// called when a choice hook is installed.
  HeapEntry ResolveTie(HeapEntry first);

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_fired_ = 0;
  size_t live_events_ = 0;
  /// Cancelled entries still sitting in heap_.
  size_t dead_entries_ = 0;
  bool stop_requested_ = false;
  bool guard_armed_ = false;
  RunGuard guard_;
  ProgressCell* progress_ = nullptr;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNullSlot;
};

}  // namespace ccsim

#endif  // CCSIM_SIM_SIMULATOR_H_
