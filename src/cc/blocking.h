// Blocking (dynamic two-phase locking), the paper's first algorithm.
//
// Reads take shared locks; writes upgrade them to exclusive. A denied request
// blocks the requester; deadlock detection runs at every block and restarts
// the youngest cycle member. Locks are released together at end of
// transaction, after the deferred updates.
#ifndef CCSIM_CC_BLOCKING_H_
#define CCSIM_CC_BLOCKING_H_

#include "cc/concurrency_control.h"
#include "cc/deadlock.h"
#include "cc/lock_manager.h"
#include "obs/registry.h"
#include "util/dense_table.h"

namespace ccsim {

class BlockingCC : public ConcurrencyControl {
 public:
  explicit BlockingCC(VictimPolicy victim_policy = VictimPolicy::kYoungest);

  std::string name() const override { return "blocking"; }

  void ReserveCapacity(int64_t num_objects, int num_txns) override {
    locks_.Reserve(static_cast<size_t>(num_objects),
                   static_cast<size_t>(num_txns));
    start_times_.Reserve(static_cast<size_t>(num_txns));
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

  /// Releases txn's locks/waits and forwards resulting grants.
  void ReleaseAndNotify(TxnId txn);

  LockManager locks_;
  DeadlockDetector detector_;
  /// Incarnation start per active transaction (victim selection).
  TxnSlotMap<SimTime> start_times_;
  /// Victims announced via OnWound whose Abort() has not arrived yet; the
  /// detector treats them as already gone.
  SmallIdSet doomed_;
  /// Blame-attribution scratch (reused; obs-only path).
  std::vector<TxnId> blockers_scratch_;

  // Observability (null unless RegisterStats was called).
  ObsCounter* deadlock_searches_ = nullptr;
  Histogram* cycle_length_hist_ = nullptr;
};

}  // namespace ccsim

#endif  // CCSIM_CC_BLOCKING_H_
