// Optimistic concurrency control (Kung–Robinson style), the paper's third
// algorithm.
//
// Transactions run unhindered; every cc request is a no-op that records the
// read/write sets. At the commit point the transaction validates: it must
// restart if any object it read was written by a transaction that committed
// during its lifetime, or is being flushed right now by a transaction that
// already validated (the simulation analogue of Kung–Robinson's serialized
// validate+write critical section). Restarted transactions need no delay —
// the conflicting writer has already committed.
#ifndef CCSIM_CC_OPTIMISTIC_H_
#define CCSIM_CC_OPTIMISTIC_H_

#include <vector>

#include "cc/concurrency_control.h"
#include "util/dense_table.h"

namespace ccsim {

/// Validated writers flushing an object, kept per granule by both optimistic
/// validators so later validators see the in-flight writes. A dormant slot
/// with count 0 is equivalent to an absent entry.
struct FlushClaim {
  int count = 0;               ///< Validated writers flushing; 0 = absent.
  TxnId writer = kInvalidTxn;  ///< The claiming writer (blame attribution).
};

/// Both optimistic validators' deep check of their flush claims, reporting
/// into `auditor`: the claims must be exactly the validated transactions'
/// write sets. A leaked claim blocks future validators forever; a lost one
/// lets a stale read pass validation. `validated_writes` lists every object
/// of every validated write set; it is sorted in place, so a caller that
/// keeps it as scratch allocates nothing once warm.
void AuditFlushClaims(Auditor* auditor, const GranuleTable<FlushClaim>& claims,
                      std::vector<ObjectId>* validated_writes);

class OptimisticCC : public ConcurrencyControl {
 public:
  OptimisticCC() = default;

  std::string name() const override { return "optimistic"; }

  void ReserveCapacity(int64_t num_objects, int num_txns) override {
    committed_writes_.Reserve(static_cast<size_t>(num_objects));
    flushing_.Reserve(static_cast<size_t>(num_objects));
    active_.Reserve(static_cast<size_t>(num_txns));
  }

  void OnBegin(TxnId txn, SimTime first_start,
               SimTime incarnation_start) override;
  CCDecision ReadRequest(TxnId txn, ObjectId obj) override;
  CCDecision WriteRequest(TxnId txn, ObjectId obj) override;
  bool Validate(TxnId txn) override;
  void Commit(TxnId txn) override;
  void Abort(TxnId txn) override;

  // AuditTracksWaiter: base default (false) — the algorithm never blocks.
  void AuditCheck() const override;

  /// Last committed write timestamp of `obj`, or -1 when never written.
  /// Exposed for tests.
  SimTime LastCommittedWrite(ObjectId obj) const;

 private:
  struct TxnState {
    SimTime start = 0;
    std::vector<ObjectId> reads;
    std::vector<ObjectId> writes;
    bool validated = false;
    /// Slot-reuse reset; keeps the access-set buffers' capacity.
    void Recycle() {
      start = 0;
      reads.clear();
      writes.clear();
      validated = false;
    }
  };

  struct CommittedWrite {
    /// Commit time of the last committed write; -1 (before every transaction
    /// start) doubles as "never written" so a default-materialized dense
    /// slot behaves exactly like an absent map entry.
    SimTime time = -1;
    TxnId writer = kInvalidTxn;  ///< Who wrote it (blame attribution).
  };
  TxnSlotMap<TxnState> active_;
  /// Last committed write per object (time + writer).
  GranuleTable<CommittedWrite> committed_writes_;
  /// Objects being flushed by validated-but-uncommitted transactions
  /// (count is at most 1 by construction, since a second validator
  /// conflicts and restarts).
  GranuleTable<FlushClaim> flushing_;
  /// AuditCheck scratch: the validated write sets.
  mutable std::vector<ObjectId> audit_writes_;
};

}  // namespace ccsim

#endif  // CCSIM_CC_OPTIMISTIC_H_
