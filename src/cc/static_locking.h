// Static (conservative) two-phase locking — an extension algorithm from the
// cited locking literature ([Care83], [Tay84] analyze it as the
// deadlock-free alternative to dynamic 2PL).
//
// The transaction's entire read and write set is predeclared at start; the
// algorithm acquires *all* locks atomically before execution begins and
// releases them together at end of transaction. Because acquisition is
// all-or-nothing, no transaction ever waits while holding locks, so
// deadlocks — and therefore restarts — are impossible. The price is lost
// concurrency: locks are held for the whole transaction even if an object
// is only touched at the end, and a transaction waits for its whole set even
// when the first object it needs is free.
//
// The locks are LockManager locks, exclusive on written objects and shared
// on the rest, so the compatibility rule, the holder records, the occupancy
// gauge and the table's deep check are the ones dynamic locking uses. No
// request ever queues in the lock manager: a declaration that cannot be
// granted whole takes no lock and waits here instead.
//
// Waiters are re-examined in arrival order at every release; a waiter whose
// full set has become available acquires it then. Earlier waiters are not
// reserved ahead of later ones (no queue claim), so small transactions can
// overtake large ones — throughput-friendly, at some risk of unfairness to
// large transactions under sustained load.
#ifndef CCSIM_CC_STATIC_LOCKING_H_
#define CCSIM_CC_STATIC_LOCKING_H_

#include <cstdint>
#include <vector>

#include "cc/concurrency_control.h"
#include "cc/lock_manager.h"
#include "obs/registry.h"
#include "util/dense_table.h"

namespace ccsim {

class StaticLockingCC : public ConcurrencyControl {
 public:
  StaticLockingCC() = default;

  std::string name() const override { return "static_locking"; }

  void ReserveCapacity(int64_t num_objects, int num_txns) override {
    const auto txns = static_cast<size_t>(num_txns);
    locks_.Reserve(static_cast<size_t>(num_objects), txns);
    active_.Reserve(txns);
    waiters_.reserve(txns);
  }

  bool needs_predeclaration() const override { return true; }

  void OnBegin(TxnId txn, SimTime first_start,
               SimTime incarnation_start) override;
  CCDecision Predeclare(TxnId txn, const std::vector<ObjectId>& reads,
                        const std::vector<ObjectId>& writes) override;
  /// Individual requests are always granted: the locks were acquired up
  /// front (asserted).
  CCDecision ReadRequest(TxnId txn, ObjectId obj) override;
  CCDecision WriteRequest(TxnId txn, ObjectId obj) override;
  bool Validate(TxnId txn) override { (void)txn; return true; }
  void Commit(TxnId txn) override;
  void Abort(TxnId txn) override;

  void SetAuditor(Auditor* auditor) override {
    auditor_ = auditor;
    locks_.SetAuditor(auditor);
  }
  bool AuditTracksWaiter(TxnId txn) const override;
  void AuditCheck() const override;

  void RegisterStats(StatsRegistry* registry) override {
    registry->AddGauge("lock_table_objects", [this] {
      return static_cast<double>(locks_.locked_objects());
    });
    registry->AddGauge("lock_waiters", [this] {
      return static_cast<double>(waiters_.size());
    });
  }

  /// Waiting transactions (tests).
  size_t waiting_count() const { return waiters_.size(); }

 private:
  /// Test-only: plants the faults the deep check must report.
  friend class StaticLockingAuditPeer;

  struct TxnState {
    std::vector<ObjectId> read_only;  ///< Read but not written.
    std::vector<ObjectId> written;
    bool holding = false;
    /// Slot-reuse reset; keeps the declared-set buffers' capacity.
    void Recycle() {
      read_only.clear();
      written.clear();
      holding = false;
    }
  };

  /// The first declared object whose lock `txn` cannot take now, written
  /// objects first; -1 when the whole set is grantable.
  ObjectId FirstConflict(const TxnState& state, TxnId txn) const;
  void Acquire(TxnState& state, TxnId txn);
  /// Releases txn's locks, forgets it and rescans the waiters.
  void Finish(TxnId txn);

  /// Grants every waiter (in arrival order) whose set has become available.
  void ScanWaiters();

  LockManager locks_;
  TxnSlotMap<TxnState> active_;
  /// Arrival-ordered waiters; the rescan compacts them in place.
  std::vector<TxnId> waiters_;
};

}  // namespace ccsim

#endif  // CCSIM_CC_STATIC_LOCKING_H_
