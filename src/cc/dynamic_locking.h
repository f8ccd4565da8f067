// Dynamic two-phase locking: the paper's blocking and immediate-restart
// algorithms, and the wound-wait and wait-die extensions.
//
// All four take the same locks. Reads take shared locks, writes upgrade them
// to exclusive, and every lock is released at end of transaction, after the
// deferred updates. They differ only in what a request that cannot be
// granted does, their ConflictRule:
//
//  * kBlock (blocking) — the requester waits. Deadlock detection runs at
//    every block and restarts the cycle member the victim policy picks (the
//    paper's choice: the youngest).
//  * kRestart (immediate-restart) — the requester restarts and its request
//    leaves no trace, so no queue and no deadlock ever forms. The engine
//    delays the restart (adaptive, about one mean response time) so the
//    conflicting transaction can finish; without the delay the same conflict
//    recurs at once.
//  * kWoundWait — an older requester wounds (restarts) every younger
//    transaction blocking it, then waits; a younger requester just waits.
//  * kWaitDie — an older requester waits; a younger one dies (restarts).
//
// The two age rules compare *original* submission times, which are stable
// across restarts, so every transaction eventually becomes the oldest and
// finishes. The classic schemes assume waiters are blocked only by lock
// holders. This lock manager adds queue-fairness edges (a waiter is also
// blocked by earlier waiters), and upgrades jump to the front of the queue,
// which can create a wait edge no wound examined. Wait-die stays
// deadlock-free regardless (every wait edge points from an older to a
// younger transaction), but wound-wait does not, so it also runs the cycle
// detector at each block as a safety net, restarting the youngest member.
#ifndef CCSIM_CC_DYNAMIC_LOCKING_H_
#define CCSIM_CC_DYNAMIC_LOCKING_H_

#include "cc/concurrency_control.h"
#include "cc/deadlock.h"
#include "cc/lock_manager.h"
#include "obs/registry.h"
#include "util/dense_table.h"

namespace ccsim {

/// What a lock request that cannot be granted does (see the file comment).
enum class ConflictRule { kBlock, kRestart, kWoundWait, kWaitDie };

class DynamicLockingCC : public ConcurrencyControl {
 public:
  /// `victim_policy` picks deadlock victims under kBlock only; wound-wait's
  /// safety net always restarts the youngest.
  explicit DynamicLockingCC(
      ConflictRule rule, VictimPolicy victim_policy = VictimPolicy::kYoungest);

  std::string name() const override;

  void ReserveCapacity(int64_t num_objects, int num_txns) override;

  void OnBegin(TxnId txn, SimTime first_start,
               SimTime incarnation_start) override;
  CCDecision ReadRequest(TxnId txn, ObjectId obj) override;
  CCDecision WriteRequest(TxnId txn, ObjectId obj) override;
  bool Validate(TxnId txn) override { (void)txn; return true; }
  void Commit(TxnId txn) override;
  void Abort(TxnId txn) override;

  void SetAuditor(Auditor* auditor) override {
    auditor_ = auditor;
    locks_.SetAuditor(auditor);
  }
  bool AuditTracksWaiter(TxnId txn) const override {
    return locks_.IsWaiting(txn);
  }
  void AuditCheck() const override { locks_.AuditCheck(auditor_, doomed_); }

  void RegisterStats(StatsRegistry* registry) override;

 private:
  /// The grant path; anything else goes to OnConflict.
  CCDecision Request(TxnId txn, ObjectId obj, LockMode mode) {
    const bool enqueue = rule_ != ConflictRule::kRestart;
    if (locks_.Request(txn, obj, mode, enqueue) ==
        LockRequestOutcome::kGranted) {
      return CCDecision::kGranted;
    }
    return OnConflict(txn, obj);
  }

  /// Applies the rule to a request that was queued (denied under kRestart).
  CCDecision OnConflict(TxnId txn, ObjectId obj);

  /// Deadlock detection at a block: dooms, blames and wounds the victims
  /// other than `txn`; true if `txn` itself must restart.
  bool ResolveDeadlocks(TxnId txn, ObjectId obj);

  /// Releases txn's locks and waits and forwards the resulting grants.
  void Release(TxnId txn);

  bool ages() const {
    return rule_ == ConflictRule::kWoundWait || rule_ == ConflictRule::kWaitDie;
  }
  /// True if `a` is older than `b` (earlier first submission; id breaks ties).
  bool Older(TxnId a, TxnId b) const;

  ConflictRule rule_;
  LockManager locks_;
  DeadlockDetector detector_;
  /// Incarnation start per active transaction (victim selection).
  TxnSlotMap<SimTime> start_times_;
  /// Original submission time per active transaction; age rules only.
  TxnSlotMap<SimTime> first_starts_;
  /// Victims announced via OnWound whose Abort() has not arrived yet; the
  /// rules and the detector treat them as already gone.
  SmallIdSet doomed_;
  /// Blocker scratch (reused across requests).
  std::vector<TxnId> blockers_scratch_;

  // Observability (null unless RegisterStats was called).
  ObsCounter* deadlock_searches_ = nullptr;
  Histogram* cycle_length_hist_ = nullptr;
};

}  // namespace ccsim

#endif  // CCSIM_CC_DYNAMIC_LOCKING_H_
