// Forward-validating optimistic concurrency control (FOCC, Härder-style) —
// an extension contrasting with the paper's backward-validating (BOCC/
// Kung–Robinson) optimistic algorithm.
//
// Backward validation restarts the *validator* when its reads overlap
// already-committed writes: the completed work of the committed winner is
// preserved and the validator's whole execution is wasted. Forward
// validation flips the victim choice: at its commit point, a transaction
// checks its WRITE set against the read sets of transactions still running
// and kills those — sacrificing partial (cheaper) work instead of completed
// work. Because nothing ever validates against committed history, reads of
// an object currently being flushed by a validated transaction must *wait*
// for the flush (the simulation analogue of FOCC's atomic validate+write
// critical section); granting them would let a stale read slip past every
// check.
//
// Consequences visible in the benches: FOCC's restarts hit transactions
// mid-flight (less wasted resource per restart than BOCC's end-of-life
// restarts), but a long transaction near its commit point can still be
// killed by a short writer — neither variant protects completed work the
// way blocking does.
//
// The forward check visits still-running transactions in the TxnSlotMap's
// slot order — a deterministic function of the begin/commit/abort history
// (unlike the old unordered_map order, which depended on the hash layout),
// so wound order and hence replay digests are stable across runs and
// platforms.
#ifndef CCSIM_CC_OPTIMISTIC_FORWARD_H_
#define CCSIM_CC_OPTIMISTIC_FORWARD_H_

#include <optional>
#include <vector>

#include "cc/concurrency_control.h"
#include "cc/optimistic.h"
#include "util/dense_table.h"

namespace ccsim {

class ForwardOptimisticCC : public ConcurrencyControl {
 public:
  ForwardOptimisticCC() = default;

  std::string name() const override { return "optimistic_forward"; }

  void ReserveCapacity(int64_t num_objects, int num_txns) override {
    flushing_.Reserve(static_cast<size_t>(num_objects));
    waiters_.Reserve(static_cast<size_t>(num_objects));
    active_.Reserve(static_cast<size_t>(num_txns));
  }

  void OnBegin(TxnId txn, SimTime first_start,
               SimTime incarnation_start) override;
  CCDecision ReadRequest(TxnId txn, ObjectId obj) override;
  CCDecision WriteRequest(TxnId txn, ObjectId obj) override;
  bool Validate(TxnId txn) override;
  void Commit(TxnId txn) override;
  void Abort(TxnId txn) override;

  bool AuditTracksWaiter(TxnId txn) const override;
  void AuditCheck() const override;

 private:
  struct TxnState {
    SmallIdSet reads;
    std::vector<ObjectId> writes;
    bool validated = false;
    bool doomed = false;  ///< Wounded by a validator; engine abort pending.
    /// Flushing object this transaction's read is waiting on, if any.
    std::optional<ObjectId> waiting_on;
    /// Slot-reuse reset; keeps the access-set buffers' capacity.
    void Recycle() {
      reads.clear();
      writes.clear();
      validated = false;
      doomed = false;
      waiting_on.reset();
    }
  };

  /// Releases txn's flush claims (validated transactions only) and wakes the
  /// readers waiting on objects whose flush count reached zero.
  void ReleaseFlushClaims(TxnState& state);
  void RemoveFromWaiters(TxnId txn, TxnState& state);

  TxnSlotMap<TxnState> active_;
  /// Objects being flushed by validated-but-uncommitted transactions.
  GranuleTable<FlushClaim> flushing_;
  /// Readers waiting for a flush to finish, per object (an empty list is
  /// equivalent to an absent entry).
  GranuleTable<std::vector<TxnId>> waiters_;
  /// Wake-up scratch (capacity circulates with the per-object lists).
  std::vector<TxnId> woken_scratch_;
  /// AuditCheck scratch: the validated write sets.
  mutable std::vector<ObjectId> audit_writes_;
};

}  // namespace ccsim

#endif  // CCSIM_CC_OPTIMISTIC_FORWARD_H_
