// Immediate-restart locking, the paper's second algorithm.
//
// Identical locking rules to BlockingCC, but a denied request aborts the
// requester instead of blocking it. The engine then delays the restarted
// transaction (adaptive delay ≈ one mean response time) so the conflicting
// transaction can finish; without the delay the same conflict recurs
// immediately. No wait queues ever form, so no deadlocks are possible.
#ifndef CCSIM_CC_IMMEDIATE_RESTART_H_
#define CCSIM_CC_IMMEDIATE_RESTART_H_

#include <vector>

#include "cc/concurrency_control.h"
#include "cc/lock_manager.h"
#include "util/check.h"
#include "util/dense_table.h"

namespace ccsim {

class ImmediateRestartCC : public ConcurrencyControl {
 public:
  ImmediateRestartCC() = default;

  std::string name() const override { return "immediate_restart"; }

  void ReserveCapacity(int64_t num_objects, int num_txns) override {
    locks_.Reserve(static_cast<size_t>(num_objects),
                   static_cast<size_t>(num_txns));
  }

  void OnBegin(TxnId txn, SimTime first_start,
               SimTime incarnation_start) override {
    (void)txn;
    (void)first_start;
    (void)incarnation_start;
  }

  CCDecision ReadRequest(TxnId txn, ObjectId obj) override {
    return TryLock(txn, obj, LockMode::kShared);
  }

  CCDecision WriteRequest(TxnId txn, ObjectId obj) override {
    return TryLock(txn, obj, LockMode::kExclusive);
  }

  bool Validate(TxnId txn) override { (void)txn; return true; }

  void Commit(TxnId txn) override { Release(txn); }
  void Abort(TxnId txn) override { Release(txn); }

  void SetAuditor(Auditor* auditor) override {
    auditor_ = auditor;
    locks_.SetAuditor(auditor);
  }
  // AuditTracksWaiter: base default (false) — requests never enqueue, so an
  // engine-side blocked transaction would itself be the violation.
  void AuditCheck() const override {
    static const SmallIdSet kNoDoomed;
    locks_.AuditCheck(auditor_, kNoDoomed);
  }

  const LockManager& locks() const { return locks_; }

 private:
  CCDecision TryLock(TxnId txn, ObjectId obj, LockMode mode) {
    LockRequestOutcome outcome =
        locks_.Request(txn, obj, mode, /*enqueue_on_conflict=*/false);
    if (outcome == LockRequestOutcome::kGranted) return CCDecision::kGranted;
    ++stats_.lock_conflicts;
    if (callbacks_.blame) {
      // A denied request leaves no queue trace; the holders are the
      // transactions the requester lost to.
      std::vector<TxnId> holders = locks_.HoldersOf(obj);
      callbacks_.on_blame(txn, holders.empty() ? kInvalidTxn : holders[0],
                          obj, BlameKind::kDenied);
    }
    return CCDecision::kRestart;
  }

  void Release(TxnId txn) {
    // No waiters can exist (requests never enqueue), so no grants to forward.
    const std::vector<TxnId>& granted = locks_.ReleaseAll(txn);
    CCSIM_CHECK(granted.empty());
  }

  LockManager locks_;
};

}  // namespace ccsim

#endif  // CCSIM_CC_IMMEDIATE_RESTART_H_
