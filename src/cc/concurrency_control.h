// The strategy interface every concurrency control algorithm implements.
//
// The engine drives each transaction through the paper's logical model
// (Figure 1): a cc request precedes every object access, a validation request
// precedes the deferred-update phase, and commit/abort notifications bracket
// the transaction. Algorithms differ only in how they answer.
#ifndef CCSIM_CC_CONCURRENCY_CONTROL_H_
#define CCSIM_CC_CONCURRENCY_CONTROL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cc/types.h"

namespace ccsim {

class Auditor;
class StatsRegistry;

/// Abstract concurrency control algorithm.
///
/// Threading/reentrancy contract: the engine calls these methods from event
/// context, never concurrently. An algorithm may signal its CCEngine
/// (`OnGranted`, `OnWound`) synchronously from inside Commit()/Abort()/
/// Read/WriteRequest(); the engine defers actual state transitions to
/// zero-delay events, so algorithms never see reentrant calls for the same
/// transaction.
class ConcurrencyControl {
 public:
  virtual ~ConcurrencyControl() = default;

  /// Engine hookup; must be called before any transaction activity.
  void SetCallbacks(CCCallbacks callbacks) { callbacks_ = callbacks; }

  /// Human-readable algorithm name (used in reports).
  virtual std::string name() const = 0;

  /// Capacity hint, called once by the engine before any transaction
  /// activity: the workload's lockable-granule count and its transaction
  /// population (mpl). Implementations may pre-reserve their tables so the
  /// steady state never rehashes; purely a performance hint — it must have
  /// no behavioral effect. Default: no-op.
  virtual void ReserveCapacity(int64_t num_objects, int num_txns) {
    (void)num_objects;
    (void)num_txns;
  }

  /// A new incarnation of `txn` begins. `first_start` is the transaction's
  /// original submission time (stable across restarts; used by
  /// wound-wait/wait-die); `incarnation_start` is now (used for youngest-
  /// victim selection and optimistic lifetime checks).
  virtual void OnBegin(TxnId txn, SimTime first_start,
                       SimTime incarnation_start) = 0;

  /// True if the algorithm wants the transaction's full read/write sets
  /// announced up front (static/conservative locking). The engine then calls
  /// Predeclare() right after OnBegin().
  virtual bool needs_predeclaration() const { return false; }

  /// Predeclaration of the incarnation's complete read set and write set
  /// (write set ⊆ read set). kGranted lets execution start immediately;
  /// kBlocked defers it until the engine's OnGranted. Default: no-op.
  virtual CCDecision Predeclare(TxnId txn, const std::vector<ObjectId>& reads,
                                const std::vector<ObjectId>& writes) {
    (void)txn;
    (void)reads;
    (void)writes;
    return CCDecision::kGranted;
  }

  /// Concurrency control request to read `obj`.
  virtual CCDecision ReadRequest(TxnId txn, ObjectId obj) = 0;

  /// Concurrency control request to write `obj` (upgrade for lock-based
  /// algorithms; `obj` is always in the transaction's readset).
  virtual CCDecision WriteRequest(TxnId txn, ObjectId obj) = 0;

  /// Commit-point validation. Returns false if the transaction must restart
  /// (optimistic algorithms); locking algorithms always return true. On
  /// success the transaction proceeds to its deferred updates.
  virtual bool Validate(TxnId txn) = 0;

  /// The transaction committed (called after its deferred updates finished).
  virtual void Commit(TxnId txn) = 0;

  /// The incarnation aborted: release everything. Called for kRestart
  /// decisions, failed validations, and engine-executed wounds.
  virtual void Abort(TxnId txn) = 0;

  const CCStats& stats() const { return stats_; }

  /// Registers algorithm-specific observability instruments (lock-table
  /// occupancy, deadlock search counts, cycle-length histograms, ...) into
  /// the engine's stats registry. The engine separately registers generic
  /// gauges over stats(), so the default registers nothing. Called once,
  /// before any transaction activity, only when observability is enabled.
  virtual void RegisterStats(StatsRegistry* registry) { (void)registry; }

  // --- Runtime invariant auditing (docs/AUDIT.md) ---

  /// Attaches the auditor (nullptr detaches). Lock-based algorithms forward
  /// it to their lock manager so every grant/release feeds the
  /// two-phase-locking discipline check.
  virtual void SetAuditor(Auditor* auditor) { auditor_ = auditor; }

  /// True if the algorithm currently tracks `txn` as a waiter it will
  /// eventually wake (a grant path exists). The engine cross-checks this for
  /// every transaction it holds in the blocked state; a blocked transaction
  /// no algorithm tracks can never resume. The default says "not tracked",
  /// which is correct for algorithms that never block (their engine-side
  /// blocked population must be empty).
  virtual bool AuditTracksWaiter(TxnId txn) const {
    (void)txn;
    return false;
  }

  /// Deep structural self-check; implementations report inconsistencies into
  /// the attached auditor. Called periodically by the engine and at the end
  /// of every experiment. Default: nothing to check.
  virtual void AuditCheck() const {}

 protected:
  CCCallbacks callbacks_;
  CCStats stats_;
  Auditor* auditor_ = nullptr;
};

}  // namespace ccsim

#endif  // CCSIM_CC_CONCURRENCY_CONTROL_H_
