// Deterministic discrete-event simulation kernel.
//
// Events scheduled for the same instant fire in scheduling order (stable
// sequence-number tie-breaking), so a simulation run is a pure function of
// its parameters and master seed.
//
// Hot-path design (docs/PERFORMANCE.md):
//  * Events live in a pooled arena: free-listed slots in chunked storage,
//    indexed by generation-tagged EventIds. Schedule, Cancel, and fire are
//    all O(1) slot operations with no hash lookups, and a stale EventId (its
//    slot already reused) is detected by its generation tag. Chunks never
//    move, so a firing callback is invoked in place in its slot — one
//    dispatch, no move-out — even if it schedules and grows the arena.
//  * Callbacks are stored in SmallFn inline small-buffer storage sized for
//    the engine's largest capture, so steady-state scheduling performs zero
//    heap allocations (kernel: tests/sim_alloc_test.cc; the whole engine:
//    tests/engine_alloc_test.cc).
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
#include <memory>
#include <vector>

#include "sim/choice.h"
#include "sim/time.h"
#include "util/check.h"
#include "util/small_fn.h"

namespace ccsim {

/// Handle for a scheduled event; usable to cancel it before it fires.
/// Encodes an arena slot (low 32 bits) and that slot's generation at
/// scheduling time (high 32 bits); generations start at 1, so no valid id
/// ever equals kInvalidEventId.
using EventId = uint64_t;

inline constexpr EventId kInvalidEventId = 0;

/// Scheduled-event callback. The inline capacity covers every steady-state
/// capture in the engine; the most frequent, a ServerPool completion event
/// carrying [pool, ServiceRequest] (res/server_pool.h), is 40 bytes. Oversized
/// callables (cold paths, tests) fall back to one heap box.
using EventCallback = SmallFn<64>;

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

  /// Schedules `action` to fire `delay` µs from now. Requires delay >= 0.
  /// The callable is constructed directly into its arena slot (one
  /// construction, no relocation); callables within EventCallback's inline
  /// capacity never touch the heap.
  template <typename F>
  EventId Schedule(SimTime delay, F&& action) {
    CCSIM_CHECK_GE(delay, 0) << "cannot schedule into the past";
    return ScheduleAt(now_ + delay, std::forward<F>(action));
  }

  /// Schedules `action` at absolute time `when`. Requires when >= Now().
  template <typename F>
  EventId ScheduleAt(SimTime when, F&& action) {
    CCSIM_CHECK_GE(when, now_) << "cannot schedule into the past";
    uint32_t slot = AcquireSlot();
    Slot& s = SlotRef(slot);
    s.action = std::forward<F>(action);
    EventId id = (static_cast<EventId>(s.generation) << 32) | slot;
    HeapPush(HeapEntry{when, next_seq_++, id});
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
    Slot& s = SlotRef(slot);
    s.action.Reset();  // Destroy in place; nothing to move out.
    RetireSlot(s, slot);
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
    const uint32_t slot = SlotOf(entry.id);
    Slot& s = SlotRef(slot);
    // Retire the id before invoking so a self-Cancel from inside the
    // callback is a stale no-op; the slot joins the free list only after the
    // callback returns, so a Schedule from inside it can never reuse the
    // storage the callback itself lives in.
    ++s.generation;
    --live_events_;
    CCSIM_CHECK_GE(entry.time, now_);
    now_ = entry.time;
    ++events_fired_;
    if (progress_ != nullptr) {
      progress_->sim_time_us.store(now_, std::memory_order_relaxed);
      progress_->events.store(events_fired_, std::memory_order_relaxed);
    }
    // Slot chunks never move, so the callback runs in place in its slot: one
    // dispatch, no move-out. (On a throw the slot leaks off the free list,
    // which is fine — a run abandoned by exception discards the simulator.)
    s.action.InvokeConsume();
    s.next_free = free_head_;
    free_head_ = slot;
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
  /// interrupt time, not at `until`, while ScheduleAt(until, ...) is always
  /// legal.
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
    EventCallback action;
    uint32_t generation = 1;
    /// Next slot in the free list, kNullSlot at the tail, or kSlotLive while
    /// the slot holds a pending event.
    uint32_t next_free = kNullSlot;
  };

  static constexpr uint32_t kNullSlot = 0xffffffffu;
  static constexpr uint32_t kSlotLive = 0xfffffffeu;
  /// Slots live in fixed-size chunks that are never moved or freed while the
  /// simulator lives, so a Slot& stays valid across arena growth — the
  /// property that lets Step() invoke a callback in place while the callback
  /// schedules new events.
  static constexpr uint32_t kSlotChunkShift = 6;
  static constexpr uint32_t kSlotChunkSize = 1u << kSlotChunkShift;
  static constexpr uint32_t kSlotChunkMask = kSlotChunkSize - 1;
  static constexpr size_t kHeapArity = 4;
  /// Compaction only kicks in above this heap size: tiny heaps are cheap to
  /// scan and compacting them would just churn.
  static constexpr size_t kMinCompactEntries = 64;

  static uint32_t SlotOf(EventId id) { return static_cast<uint32_t>(id); }
  static uint32_t GenerationOf(EventId id) {
    return static_cast<uint32_t>(id >> 32);
  }

  Slot& SlotRef(uint32_t slot) {
    return slot_chunks_[slot >> kSlotChunkShift][slot & kSlotChunkMask];
  }
  const Slot& SlotRef(uint32_t slot) const {
    return slot_chunks_[slot >> kSlotChunkShift][slot & kSlotChunkMask];
  }

  bool IsLive(const HeapEntry& entry) const {
    const Slot& slot = SlotRef(SlotOf(entry.id));
    return slot.next_free == kSlotLive &&
           slot.generation == GenerationOf(entry.id);
  }

  /// Returns the slot of a live pending event, or kNullSlot if `id` is
  /// stale, fired, cancelled, or invalid.
  uint32_t LiveSlotOf(EventId id) const {
    uint32_t slot = SlotOf(id);
    if (slot >= slot_count_) return kNullSlot;
    const Slot& s = SlotRef(slot);
    if (s.next_free != kSlotLive || s.generation != GenerationOf(id)) {
      return kNullSlot;
    }
    return slot;
  }

  /// Pops a slot off the free list, growing the arena (a new chunk) if it is
  /// empty. The returned slot's action is empty and its next_free is
  /// kSlotLive.
  uint32_t AcquireSlot() {
    uint32_t slot;
    if (free_head_ != kNullSlot) {
      slot = free_head_;
      free_head_ = SlotRef(slot).next_free;
    } else {
      CCSIM_CHECK_LT(slot_count_, kSlotLive) << "event arena exhausted";
      if ((slot_count_ & kSlotChunkMask) == 0) {
        slot_chunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));
      }
      slot = slot_count_++;
    }
    SlotRef(slot).next_free = kSlotLive;
    return slot;
  }

  /// Retires an emptied slot: bumps its generation — invalidating every
  /// outstanding id, including the tombstone heap entry of a cancelled
  /// event — and pushes it on the free list.
  void RetireSlot(Slot& s, uint32_t slot) {
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
  /// Chunked slot arena; see kSlotChunkShift for why chunks, not one vector.
  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  uint32_t slot_count_ = 0;
  uint32_t free_head_ = kNullSlot;
};

}  // namespace ccsim

#endif  // CCSIM_SIM_SIMULATOR_H_
