// Two-mode (shared/exclusive) lock manager with upgrades.
//
// Grant policy:
//  * Shared locks are mutually compatible; exclusive conflicts with all.
//  * A new request is granted immediately iff it is compatible with every
//    holder AND the object's wait queue is empty (no queue jumping, which
//    prevents writer starvation).
//  * An *upgrade* (holder of S requesting X) is granted immediately iff the
//    requester is the sole holder. Otherwise it waits *ahead* of ordinary
//    waiters (after any earlier upgraders).
//  * On any release or cancellation, the longest compatible prefix of the
//    wait queue is granted ("prefix grant").
//
// Because grants are strictly prefix-ordered, a waiter is blocked by exactly
// (a) the holders its mode conflicts with, and (b) every waiter ahead of it.
// BlockersOf() reports precisely that set, which makes the waits-for graph
// used for deadlock detection exact rather than conservative.
//
// The deadlock detector's search (FindCycleThrough) runs here, beside that
// one definition of "blocker". Each DFS frame reads its blockers once into a
// shared scratch vector. A transaction is visited by the current search iff
// its record's stamp equals the search epoch, which rises by one per search
// and is 64 bits wide: it never wraps, so no stamp left by an earlier search
// (on a recycled record slot too) ever matches.
//
// Storage layout (docs/PERFORMANCE.md "Dense CC state"): the lock table is a
// GranuleTable directly indexed by ObjectId; per-transaction state lives in a
// TxnSlotMap of reusable slots; and both the holder lists and the wait queues
// are intrusive lists threaded through pooled, free-listed node vectors — no
// per-object vector or deque, no hashing, and no allocation in steady state
// once the pools cover the peak number of locks held and requests queued.
#ifndef CCSIM_CC_LOCK_MANAGER_H_
#define CCSIM_CC_LOCK_MANAGER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "audit/waits_for.h"
#include "cc/types.h"
#include "util/dense_table.h"

namespace ccsim {

class Auditor;

enum class LockMode { kShared, kExclusive };

/// Result of a lock request.
enum class LockRequestOutcome {
  kGranted,  ///< Lock held (or already held in a sufficient mode).
  kWaiting,  ///< Enqueued; granted later via release processing.
  kDenied,   ///< Conflict and enqueue_on_conflict was false.
};

/// Counters for reporting and tests.
struct LockManagerStats {
  int64_t requests = 0;
  int64_t immediate_grants = 0;
  int64_t waits = 0;
  int64_t denials = 0;
  int64_t upgrades_requested = 0;
  int64_t deferred_grants = 0;  ///< Grants that happened via queue processing.
};

/// The lock table. Transactions hold any number of locks but wait for at most
/// one at a time (the model's transactions are single-threaded).
class LockManager {
 public:
  LockManager() = default;

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Capacity hint (workload granule count and transaction population).
  /// Pre-sizes the granule table, transaction slots, waiter-node pool, and
  /// scratch buffers so the steady state never allocates; purely a
  /// performance hint with no behavioral effect.
  void Reserve(size_t num_objects, size_t num_txns);

  /// Requests `mode` on `obj` for `txn`. Re-requesting an already-sufficient
  /// lock is granted idempotently; requesting X while holding S is an
  /// upgrade. If the lock cannot be granted now and `enqueue_on_conflict` is
  /// false, the request leaves no trace (immediate-restart semantics).
  /// A transaction may not issue a request while it is already waiting.
  LockRequestOutcome Request(TxnId txn, ObjectId obj, LockMode mode,
                             bool enqueue_on_conflict);

  /// Releases all locks held by `txn` and cancels its pending request, if
  /// any. Returns the transactions whose pending requests became granted.
  /// The returned reference points at an internal scratch buffer that stays
  /// valid until the next ReleaseAll call; copy it to keep it longer.
  const std::vector<TxnId>& ReleaseAll(TxnId txn);

  /// True if `txn` has a pending (queued) request.
  bool IsWaiting(TxnId txn) const;

  /// The object `txn` waits on; nullopt if not waiting.
  std::optional<ObjectId> WaitingOn(TxnId txn) const;

  /// The exact set of transactions that must release/cancel before `txn`'s
  /// pending request can be granted (conflicting holders + all earlier
  /// waiters). Empty if `txn` is not waiting.
  std::vector<TxnId> BlockersOf(TxnId txn) const;

  /// Allocation-free variant: clears `out`, then appends the same sorted,
  /// de-duplicated blocker set BlockersOf returns. Lets callers (wound-wait,
  /// blame attribution) reuse their buffers.
  void AppendBlockersOf(TxnId txn, std::vector<TxnId>* out) const;

  /// True iff some waiter outside `excluded` has `txn` in its BlockersOf
  /// set: a waiter on an object `txn` holds that is an upgrade or conflicts
  /// with `txn`'s hold, or any waiter queued behind `txn` on the object it
  /// waits for. Without one, no waits-for cycle avoiding `excluded` can
  /// pass through `txn`.
  bool HasWaitersBlockedBy(TxnId txn, const SmallIdSet& excluded) const;

  /// The deadlock detector's search: clears `cycle`, then, if a waits-for
  /// cycle through `start` avoids `excluded`, fills it with the DFS path from
  /// `start` (each member waits for the next, the last for `start`) and
  /// returns true. Blockers are tried in ascending id order, excluded ones
  /// skipped, testing for `start` before the visited check. Answers false at
  /// once when HasWaitersBlockedBy(start, excluded) is false.
  bool FindCycleThrough(TxnId start, const SmallIdSet& excluded,
                        std::vector<TxnId>* cycle) const;

  /// True if a fresh request for `mode` on `obj` by `txn`, which does not
  /// hold `obj`, would be granted now: nobody waits on `obj` and no holder
  /// conflicts. (Static locking's all-or-nothing test.)
  bool CanGrantNow(TxnId txn, ObjectId obj, LockMode mode) const;

  /// Current holders of `obj`, in acquisition order; empty if unlocked.
  /// (Blame attribution for denied requests, which leave no queue trace.)
  std::vector<TxnId> HoldersOf(ObjectId obj) const;

  /// True if `txn` holds `obj` in a mode at least as strong as `mode`.
  bool HoldsAtLeast(TxnId txn, ObjectId obj, LockMode mode) const;

  /// Number of locks held by `txn`.
  size_t NumHeld(TxnId txn) const;

  /// Total locks held, over all transactions.
  size_t held_locks() const { return holder_nodes_.size() - free_holders_; }

  /// Total transactions currently waiting.
  size_t waiting_txns() const { return waiting_count_; }

  /// Total objects with at least one holder or waiter (dense occupancy, not
  /// table capacity: granule slots persist after their last holder leaves).
  size_t locked_objects() const { return occupied_count_; }

  const LockManagerStats& stats() const { return stats_; }

  /// Attaches the runtime invariant auditor (nullptr detaches): every grant
  /// and release is reported for two-phase-locking discipline checking.
  void SetAuditor(Auditor* auditor) { auditor_ = auditor; }

  /// Deep structural self-check, reporting violations into `auditor`:
  /// per-txn ↔ table agreement, holder compatibility, waiter bookkeeping,
  /// occupancy accounting, and waits-for acyclicity. `doomed` lists
  /// transactions already selected as deadlock/wound victims whose aborts
  /// are still in flight; cycles made only of doomed members are
  /// in-resolution, not permanent blocks. Costs about one lookup per live
  /// lock and request and nothing per empty granule (docs/AUDIT.md); reuses
  /// member scratch, so it allocates nothing once warm.
  void AuditCheck(Auditor* auditor, const SmallIdSet& doomed) const;

 private:
  /// Test-only: plants the faults the deep check must report.
  friend class LockManagerAuditPeer;

  struct Holder {
    TxnId txn;
    LockMode mode;
  };
  struct Waiter {
    TxnId txn;
    /// Requested mode; upgrades always record kExclusive. Carried in the
    /// queue record itself so grant processing never consults a side table
    /// (the old waiter_modes_ map could desync and throw from `.at()`).
    LockMode mode;
    bool upgrade;  ///< Requester already holds S on this object.
  };
  /// Pooled wait-queue node; `next` indexes nodes_ (-1 terminates the list).
  /// `audit_stamp` is the epoch of the last AuditCheck that reached the
  /// node through its transaction's waiting index.
  struct WaiterNode {
    Waiter w;
    int32_t next = -1;
    mutable uint32_t audit_stamp = 0;
  };
  /// Pooled holder node; `next` indexes holder_nodes_ (-1 terminates).
  /// `audit_stamp` is the epoch of the last AuditCheck that reached it
  /// through its transaction's held index.
  struct HolderNode {
    Holder h;
    int32_t next = -1;
    mutable uint32_t audit_stamp = 0;
  };
  // The stamps fill what would otherwise be padding.
  static_assert(sizeof(WaiterNode) == 24 && sizeof(HolderNode) == 24);
  /// A granule's lists. Whether it is occupied (has a holder or waiter) is
  /// its bit in occupied_bits_.
  struct Entry {
    /// holder_nodes_ index of the first holder in acquisition order, or -1.
    int32_t holder_head = -1;
    int32_t holder_tail = -1;
    int32_t queue_head = -1;  ///< nodes_ index of the front waiter, or -1.
    int32_t queue_tail = -1;
  };
  static_assert(sizeof(Entry) == 16);
  /// Per-transaction state: held objects in acquisition order (a txn holds
  /// each object at most once, so a flat vector beats a hash set) plus the
  /// single pending request. `search_stamp` is the epoch of the last search
  /// to visit the txn (Recycle keeps it: no later epoch can equal it).
  struct TxnRec {
    std::vector<ObjectId> held;
    ObjectId waiting_on = -1;
    mutable uint64_t search_stamp = 0;
    void Recycle() {
      held.clear();
      waiting_on = -1;
    }
  };
  /// A FindCycleThrough DFS frame: a waiting transaction whose sorted,
  /// de-duplicated, non-excluded blockers are search_blockers_[begin, end),
  /// of which [cursor, end) are still to be tried.
  struct SearchFrame {
    TxnId txn;
    uint32_t begin;
    uint32_t cursor;
    uint32_t end;
  };

  /// True if a (possibly upgrade) exclusive/shared request by `txn` is
  /// compatible with the current holders of `entry`.
  bool CompatibleWithHolders(const Entry& entry, TxnId txn, LockMode mode,
                             bool upgrade) const;

  /// Visits `entry`'s holders in acquisition order as fn(const Holder&);
  /// stops early (returning false) when fn returns false.
  template <typename Fn>
  bool ForEachHolder(const Entry& entry, Fn&& fn) const {
    for (int32_t cur = entry.holder_head; cur >= 0;
         cur = holder_nodes_[static_cast<size_t>(cur)].next) {
      if (!fn(holder_nodes_[static_cast<size_t>(cur)].h)) return false;
    }
    return true;
  }
  /// Visits every blocker of `txn`, which waits on `entry`, as fn(TxnId):
  /// the earlier waiters in queue order, then the holders its request
  /// conflicts with. An upgrader ahead of `txn` that also holds the object
  /// is visited twice. The one definition of "blocker".
  template <typename Fn>
  void ForEachBlocker(const Entry& entry, TxnId txn, Fn&& fn) const;
  /// holder_nodes_ index of `txn`'s holder record on `entry`, or -1.
  int32_t FindHolder(const Entry& entry, TxnId txn) const;
  /// Appends a holder at the back of `entry`'s list.
  void AddHolder(Entry& entry, const Holder& holder);
  /// Unlinks `txn`'s holder record from `entry` (it must be present).
  void RemoveHolder(Entry& entry, TxnId txn);

  /// The txn's record, created on demand.
  TxnRec& RecOf(TxnId txn);

  /// Pops a node from the pool's free list (or grows the pool).
  int32_t AllocNode(const Waiter& w);
  void FreeNode(int32_t node);

  /// Appends `w` at the back of `entry`'s wait queue.
  void PushWaiterBack(Entry& entry, const Waiter& w);
  /// Inserts an upgrade waiter after the last leading upgrader (upgraders
  /// wait ahead of ordinary waiters, FIFO among themselves).
  void PushUpgradeWaiter(Entry& entry, const Waiter& w);
  /// Unlinks `txn`'s node from `entry`'s queue (it must be present).
  void UnlinkWaiter(Entry& entry, TxnId txn);

  /// Grants the longest grantable prefix of `entry`'s queue, appending the
  /// beneficiaries to `granted`.
  void ProcessQueue(ObjectId obj, Entry& entry, std::vector<TxnId>* granted);

  /// Keeps `obj`'s occupancy bit and occupied_count_ in sync after its
  /// `entry` gains or loses its last holder/waiter. Request sizes the
  /// bitmap to cover every granule it touches. Defined here so that it
  /// inlines into the request and release paths.
  void SyncOccupancy(ObjectId obj, const Entry& entry) {
    const bool now = entry.holder_head >= 0 || entry.queue_head >= 0;
    uint64_t& bits = occupied_bits_[static_cast<size_t>(obj) >> 6];
    const uint64_t bit = uint64_t{1} << (obj & 63);
    if (now == ((bits & bit) != 0)) return;
    bits ^= bit;
    if (now) {
      ++occupied_count_;
    } else {
      --occupied_count_;
    }
  }
  bool IsOccupied(ObjectId obj) const {
    const size_t word = static_cast<size_t>(obj) >> 6;
    return word < occupied_bits_.size() &&
           ((occupied_bits_[word] >> (obj & 63)) & 1) != 0;
  }

  /// AuditCheck's per-granule check of `entry`, whose occupancy bit is
  /// `flagged`: contents against the flag, holders, waiters. Records
  /// stamped with `epoch` were reached through the indexes and are taken
  /// as indexed. Adds the holder and waiter records it visits to the
  /// counts.
  void AuditEntry(Auditor* auditor, ObjectId obj, const Entry& entry,
                  bool flagged, uint32_t epoch, size_t* holders_seen,
                  size_t* waiters_seen) const;

  GranuleTable<Entry> table_;
  TxnSlotMap<TxnRec> txns_;
  std::vector<WaiterNode> nodes_;  ///< Waiter-node pool shared by all queues.
  int32_t free_node_ = -1;         ///< Head of the pool's free list.
  size_t free_nodes_ = 0;          ///< Length of that free list.
  /// Holder-node pool shared by all holder lists, its free list and length.
  std::vector<HolderNode> holder_nodes_;
  int32_t free_holder_ = -1;
  size_t free_holders_ = 0;
  size_t waiting_count_ = 0;
  size_t occupied_count_ = 0;
  /// One bit per granule, set while it has a holder or waiter.
  std::vector<uint64_t> occupied_bits_;
  std::vector<TxnId> granted_scratch_;    ///< ReleaseAll result buffer.
  std::vector<ObjectId> affected_scratch_;
  LockManagerStats stats_;
  Auditor* auditor_ = nullptr;
  // AuditCheck state: the epoch it stamps on the records it reaches, one
  // waiter's blockers, and the waits-for snapshot. Last, so the members
  // every request touches keep their places.
  mutable uint32_t audit_epoch_ = 0;
  mutable std::vector<TxnId> audit_blockers_;
  mutable WaitsForSnapshot audit_waits_for_;
  // FindCycleThrough state: the epoch it stamps on the records it visits,
  // the DFS path, and the path's blocker ranges stacked in one vector.
  mutable uint64_t search_epoch_ = 0;
  mutable std::vector<SearchFrame> search_frames_;
  mutable std::vector<TxnId> search_blockers_;
};

}  // namespace ccsim

#endif  // CCSIM_CC_LOCK_MANAGER_H_
