// Wound-wait and wait-die locking (extension algorithms).
//
// Both resolve lock conflicts with the transaction's *original* submission
// timestamp, which is stable across restarts so every transaction eventually
// becomes the oldest and finishes:
//
//  * wound-wait — an older requester wounds (restarts) every younger
//    transaction blocking it, then waits; a younger requester simply waits.
//  * wait-die — an older requester waits; a younger requester dies
//    (restarts itself).
//
// The classic schemes assume waiters are blocked only by lock *holders*. Our
// lock manager adds queue-fairness edges (a waiter is also blocked by earlier
// waiters), and upgrade requests jump to the front of the queue, which can
// create a wait edge the wound-wait rule never examined. Wait-die stays
// deadlock-free regardless (every wait edge points from an older to a younger
// transaction), but wound-wait does not, so wound-wait also runs the cycle
// detector at each block as a safety net (victims there count as wounds).
#ifndef CCSIM_CC_TIMESTAMP_LOCKING_H_
#define CCSIM_CC_TIMESTAMP_LOCKING_H_

#include "cc/concurrency_control.h"
#include "cc/deadlock.h"
#include "cc/lock_manager.h"
#include "obs/registry.h"
#include "util/dense_table.h"

namespace ccsim {

class TimestampLockingCC : public ConcurrencyControl {
 public:
  enum class Flavor { kWoundWait, kWaitDie };

  explicit TimestampLockingCC(Flavor flavor);

  std::string name() const override {
    return flavor_ == Flavor::kWoundWait ? "wound_wait" : "wait_die";
  }

  void ReserveCapacity(int64_t num_objects, int num_txns) override {
    locks_.Reserve(static_cast<size_t>(num_objects),
                   static_cast<size_t>(num_txns));
    first_starts_.Reserve(static_cast<size_t>(num_txns));
    incarnation_starts_.Reserve(static_cast<size_t>(num_txns));
    doomed_.reserve(static_cast<size_t>(num_txns));
  }

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

  const LockManager& locks() const { return locks_; }

 private:
  CCDecision HandleRequest(TxnId txn, ObjectId obj, LockMode mode);
  void ReleaseAndNotify(TxnId txn);

  /// True if `a` is older than `b` (earlier first submission; id breaks ties).
  bool Older(TxnId a, TxnId b) const;

  Flavor flavor_;
  LockManager locks_;
  DeadlockDetector detector_;
  TxnSlotMap<SimTime> first_starts_;
  TxnSlotMap<SimTime> incarnation_starts_;
  SmallIdSet doomed_;
  /// Conflict-resolution scratch (reused across requests).
  std::vector<TxnId> blockers_scratch_;

  // Observability (null unless RegisterStats was called).
  ObsCounter* deadlock_searches_ = nullptr;
};

}  // namespace ccsim

#endif  // CCSIM_CC_TIMESTAMP_LOCKING_H_
