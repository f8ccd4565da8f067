// Runtime invariant auditor — the correctness backstop of the simulator.
//
// The paper's conclusions (blocking vs. immediate-restart vs. optimistic)
// rest entirely on the model's internal consistency, so the engine and every
// concurrency control algorithm can report into a pluggable auditor that
// cross-checks, while the simulation runs:
//
//  (a) two-phase locking discipline — no lock acquired after the first
//      release within an incarnation (kTwoPhaseLocking);
//  (b) lock-table ↔ waits-for-graph consistency, and that every transaction
//      the engine considers blocked has a live grant path in its algorithm
//      (kWaitsForConsistency / kPermanentBlock);
//  (c) conservation of transactions across the ready / running / blocked /
//      thinking / restart-delay populations at every engine transition, and
//      a periodic walk of the live transactions that cross-checks the
//      engine's incremental per-state counts (kTxnConservation);
//  (d) event-time monotonicity of everything the engine observes
//      (kTimeMonotonicity);
//  (e) a deterministic-replay digest (FNV-1a over the cc op stream) so two
//      runs with the same seed must produce bit-identical histories —
//      catching hidden nondeterminism such as unordered_map iteration order
//      leaking into model decisions (kReplayDivergence).
//
// The auditor is passive bookkeeping: it never changes a decision. Disabled
// (the default), the engine pays one null-pointer test per hook site.
#ifndef CCSIM_AUDIT_AUDIT_H_
#define CCSIM_AUDIT_AUDIT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "audit/digest.h"
#include "cc/types.h"
#include "sim/time.h"
#include "util/dense_table.h"

namespace ccsim {

/// The invariant classes the auditor checks.
enum class AuditInvariant {
  kTwoPhaseLocking,      ///< Lock acquired after the incarnation's first release.
  kWaitsForConsistency,  ///< Lock table and waits-for graph disagree.
  kPermanentBlock,       ///< A blocked transaction has no live grant path.
  kTxnConservation,      ///< Transaction counts drifted across the queues.
  kTimeMonotonicity,     ///< Observed event time moved backwards.
  kReplayDivergence,     ///< Same-seed replay produced a different digest.
};

/// Stable display name for an invariant.
const char* AuditInvariantName(AuditInvariant invariant);

/// Op codes the engine folds into the replay digest (values are part of the
/// digest definition; append, never renumber).
enum class AuditOp : uint64_t {
  kBegin = 1,       ///< Incarnation admitted.
  kRead = 2,        ///< Read cc request decided.
  kWrite = 3,       ///< Write cc request decided.
  kValidate = 4,    ///< Commit-point validation decided.
  kCommit = 5,      ///< Transaction committed.
  kRestart = 6,     ///< Incarnation restarted.
  kPredeclare = 7,  ///< Static-locking predeclaration decided.
};

/// One detected violation. `txn` is kInvalidTxn for system-wide violations.
struct AuditViolation {
  AuditInvariant invariant = AuditInvariant::kTxnConservation;
  SimTime time = 0;
  TxnId txn = kInvalidTxn;
  std::string detail;
};

struct AuditorOptions {
  /// Abort the process (via CCSIM_CHECK semantics) on the first violation.
  /// Off by default so tests can inject violations and inspect the report.
  bool abort_on_violation = false;
  /// Violations recorded beyond this count are tallied but not stored.
  size_t max_recorded = 64;
};

/// Census of the engine's transaction populations at one instant; the
/// auditor checks its arithmetic (see CheckConservation).
struct TxnCensus {
  int64_t total = 0;          ///< Transactions the engine knows about.
  int64_t ready = 0;          ///< State kReady.
  int64_t running = 0;        ///< State kRunning.
  int64_t blocked = 0;        ///< State kBlocked.
  int64_t thinking = 0;       ///< State kIntThink.
  int64_t restart_delay = 0;  ///< State kRestartDelay.
  int64_t ready_queue = 0;    ///< Entries in the engine's ready queue.
  int64_t active = 0;         ///< The engine's active_count_.

  friend bool operator==(const TxnCensus&, const TxnCensus&) = default;
};

/// The pluggable runtime invariant auditor. One instance audits one engine;
/// hooks are cheap enough to call at every transition. Not thread-safe (the
/// simulation is single-threaded by construction — TSan verifies that).
class Auditor {
 public:
  /// `clock` supplies the current simulated time for violation records; pass
  /// a lambda over Simulator::Now(). Defaults to a constant-zero clock so
  /// unit tests can construct an auditor without a simulator.
  explicit Auditor(AuditorOptions options = {},
                   std::function<SimTime()> clock = nullptr);

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  // --- Lifecycle (reported by the engine) ---

  /// A new incarnation of `txn` starts executing (growing phase begins).
  void OnTxnAdmitted(TxnId txn, int incarnation);

  /// The incarnation ended (commit or abort); its lock-discipline state is
  /// dropped. Safe to call for transactions never admitted.
  void OnTxnFinished(TxnId txn);

  // --- Two-phase locking discipline (reported by lock managers) ---

  /// `txn` acquired a lock (or upgraded one). A violation is reported if the
  /// incarnation has already released any lock.
  void OnLockAcquired(TxnId txn, ObjectId obj, bool exclusive);

  /// `txn` released its locks (end of incarnation for strict 2PL; any
  /// subsequent acquire in the same incarnation is a violation).
  void OnLockReleased(TxnId txn);

  // --- Waits-for / blocked-transaction checks ---

  /// The engine blocked `txn`; `tracked_by_algorithm` says whether the cc
  /// algorithm has it registered as a waiter with a grant path. A blocked
  /// transaction no algorithm tracks can never be woken: permanent block.
  void CheckBlockedTracked(TxnId txn, bool tracked_by_algorithm);

  /// Generic report used by algorithms' deep consistency checks
  /// (ConcurrencyControl::AuditCheck implementations).
  void Report(AuditInvariant invariant, TxnId txn, const std::string& detail);

  // --- Conservation ---

  /// Verifies the census arithmetic: every transaction is in exactly one
  /// state, the active count equals the running+blocked+thinking population,
  /// and the ready queue matches the ready population.
  void CheckConservation(const TxnCensus& census);

  /// Cross-checks the census the engine keeps incrementally (`counted`, the
  /// one CheckConservation sees at every transition) against a census taken
  /// by walking every live transaction (`walked`); any difference means a
  /// state change bypassed the counts. Runs on the sampled deep-check
  /// transitions and at the end of a run. It re-verifies a census already
  /// counted, so it does not add to checks_performed().
  void CheckCensusAgrees(const TxnCensus& counted, const TxnCensus& walked);

  // --- Event-time monotonicity ---

  /// The engine observed `now`; reports a violation if time went backwards.
  void OnEventTime(SimTime now);

  // --- Deterministic-replay digest ---

  /// Folds one cc-stream operation into the replay digest. `op` is a small
  /// engine-chosen code; the remaining values identify the decision.
  void FoldOp(uint64_t op, TxnId txn, int64_t a, int64_t b, int64_t c);

  /// The digest over everything folded so far.
  uint64_t digest() const { return digest_.value(); }

  /// Compares this run's digest against the digest of a previous run with
  /// the same seed; reports kReplayDivergence on mismatch. Returns true if
  /// the digests agree.
  bool VerifyReplay(uint64_t expected_digest);

  // --- Results ---

  /// Violations recorded so far (capped at options.max_recorded).
  const std::vector<AuditViolation>& violations() const { return violations_; }

  /// Total violations detected, including ones beyond the recording cap.
  int64_t violation_count() const { return violation_count_; }

  /// Total individual checks performed (for overhead accounting and tests).
  int64_t checks_performed() const { return checks_performed_; }

  /// One line per recorded violation (diagnostics and test failure output).
  std::string Summary() const;

 private:
  enum class LockPhase { kGrowing, kShrinking };
  struct TxnLockState {
    int incarnation = 0;
    LockPhase phase = LockPhase::kGrowing;
    int64_t acquired = 0;
    int64_t released_at_count = 0;  ///< Acquire count when shrink began.
  };

  SimTime NowOrZero() const { return clock_ ? clock_() : 0; }

  AuditorOptions options_;
  std::function<SimTime()> clock_;
  TxnSlotMap<TxnLockState> lock_states_;
  SimTime last_time_ = 0;
  bool saw_time_ = false;
  FnvDigest digest_;
  std::vector<AuditViolation> violations_;
  int64_t violation_count_ = 0;
  int64_t checks_performed_ = 0;
};

}  // namespace ccsim

#endif  // CCSIM_AUDIT_AUDIT_H_
