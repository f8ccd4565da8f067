// Shared vocabulary of the concurrency control layer.
#ifndef CCSIM_CC_TYPES_H_
#define CCSIM_CC_TYPES_H_

#include <cstdint>

#include "sim/time.h"
#include "wl/params.h"

namespace ccsim {

/// Identifies a transaction. Ids are assigned once per transaction and are
/// stable across restarts (a restart begins a new *incarnation*, not a new
/// transaction).
using TxnId = int64_t;

inline constexpr TxnId kInvalidTxn = -1;

/// Outcome of a concurrency control request.
enum class CCDecision {
  kGranted,  ///< Proceed to the object access.
  kBlocked,  ///< Wait; a later CCEngine::OnGranted resumes the transaction.
  kRestart,  ///< Abort this incarnation and re-run the transaction.
};

/// Why a transaction is being charged for another's delay (causal blame
/// attribution, docs/OBSERVABILITY.md). The opponent in an OnBlame call is
/// the transaction that caused the conflict; kInvalidTxn is legal where an
/// algorithm does not record one (e.g. a pure timestamp rejection whose
/// reader has already committed).
enum class BlameKind {
  kBlock,       ///< Victim blocked behind the opponent (holder / pending writer).
  kWound,       ///< Victim killed in the opponent's favor (deadlock victim, wound).
  kDenied,      ///< Victim's request denied outright (immediate restart, wait-die).
  kValidation,  ///< Victim failed validation against the opponent's commit/flush.
  kTimestamp,   ///< Victim rejected by a timestamp rule the opponent set.
};

/// Algorithm-level counters (the engine keeps workload-level ones).
struct CCStats {
  int64_t deadlocks_detected = 0;    ///< Cycles found by the detector.
  int64_t deadlock_victims = 0;      ///< Victim restarts (incl. requester).
  int64_t lock_conflicts = 0;        ///< Denials/blocks at request time.
  int64_t validation_failures = 0;   ///< Optimistic validation rejections.
  int64_t wounds = 0;                ///< Wound-wait wounds issued.
  int64_t timestamp_rejections = 0;  ///< T/O too-late read/write rejections.
};

/// The engine as a concurrency control algorithm sees it. Algorithms never
/// mutate engine state directly; they answer requests and signal back here.
/// `OnGranted` announces that a previously blocked request is now granted.
/// `OnWound` asks the engine to abort a *different* transaction (deadlock
/// victim, or a wounded transaction in wound-wait); the engine performs the
/// abort asynchronously and then calls Abort() on the algorithm.
class CCEngine {
 public:
  virtual void OnGranted(TxnId txn) = 0;
  virtual void OnWound(TxnId txn) = 0;
  virtual SimTime Now() const = 0;
  /// Multiversion algorithms report which writer's version each granted
  /// read observed, so the engine's history recorder can build a
  /// multiversion serialization graph. `version_writer` is kInvalidTxn for
  /// the initial version.
  virtual void OnVersionRead(TxnId txn, ObjectId obj,
                             TxnId version_writer) = 0;
  /// Causal blame attribution. Fired at every conflict the algorithm
  /// resolves — a block, a wound, a denial, a validation failure, a
  /// timestamp rejection — naming the victim and the opposing transaction
  /// (kInvalidTxn when unknown). Pure observer: it must never influence a
  /// decision.
  virtual void OnBlame(TxnId victim, TxnId opponent, ObjectId obj,
                       BlameKind kind) = 0;

 protected:
  ~CCEngine() = default;
};

/// An algorithm's handle on its engine. The two optional signals reach the
/// engine only while their flag is set: `version_reads` when it records the
/// history, `blame` when observability is on. Off, each costs one test.
struct CCCallbacks {
  CCEngine* engine = nullptr;
  bool version_reads = false;
  bool blame = false;

  void on_granted(TxnId txn) const { engine->OnGranted(txn); }
  void on_wound(TxnId txn) const { engine->OnWound(txn); }
  SimTime now() const { return engine->Now(); }
  void on_version_read(TxnId txn, ObjectId obj, TxnId version_writer) const {
    if (version_reads) engine->OnVersionRead(txn, obj, version_writer);
  }
  void on_blame(TxnId victim, TxnId opponent, ObjectId obj,
                BlameKind kind) const {
    if (blame) engine->OnBlame(victim, opponent, obj, kind);
  }
};

}  // namespace ccsim

#endif  // CCSIM_CC_TYPES_H_
