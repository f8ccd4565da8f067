#include "audit/audit.h"

#include <sstream>
#include <utility>

#include "util/check.h"

namespace ccsim {

namespace {

void PrintCensus(std::ostream& out, const TxnCensus& census) {
  out << "total=" << census.total << " ready=" << census.ready
      << " running=" << census.running << " blocked=" << census.blocked
      << " thinking=" << census.thinking
      << " restart_delay=" << census.restart_delay
      << " ready_queue=" << census.ready_queue << " active=" << census.active;
}

}  // namespace

const char* AuditInvariantName(AuditInvariant invariant) {
  switch (invariant) {
    case AuditInvariant::kTwoPhaseLocking:
      return "two_phase_locking";
    case AuditInvariant::kWaitsForConsistency:
      return "waits_for_consistency";
    case AuditInvariant::kPermanentBlock:
      return "permanent_block";
    case AuditInvariant::kTxnConservation:
      return "txn_conservation";
    case AuditInvariant::kTimeMonotonicity:
      return "time_monotonicity";
    case AuditInvariant::kReplayDivergence:
      return "replay_divergence";
  }
  return "unknown";
}

Auditor::Auditor(AuditorOptions options, std::function<SimTime()> clock)
    : options_(options), clock_(std::move(clock)) {}

void Auditor::Report(AuditInvariant invariant, TxnId txn,
                     const std::string& detail) {
  ++violation_count_;
  if (violations_.size() < options_.max_recorded) {
    violations_.push_back(AuditViolation{invariant, NowOrZero(), txn, detail});
  }
  if (options_.abort_on_violation) {
    CCSIM_CHECK(false) << "audit violation [" << AuditInvariantName(invariant)
                       << "] txn=" << txn << ": " << detail;
  }
}

void Auditor::OnTxnAdmitted(TxnId txn, int incarnation) {
  ++checks_performed_;
  TxnLockState& state = lock_states_.Upsert(txn);
  state = TxnLockState{};
  state.incarnation = incarnation;
}

void Auditor::OnTxnFinished(TxnId txn) { lock_states_.Erase(txn); }

void Auditor::OnLockAcquired(TxnId txn, ObjectId obj, bool exclusive) {
  ++checks_performed_;
  TxnLockState& state = lock_states_.Upsert(txn);
  if (state.phase == LockPhase::kShrinking) {
    std::ostringstream detail;
    detail << "lock on object " << obj << (exclusive ? " (X)" : " (S)")
           << " acquired after first release (incarnation "
           << state.incarnation << ", " << state.released_at_count
           << " locks acquired before the release)";
    Report(AuditInvariant::kTwoPhaseLocking, txn, detail.str());
  }
  ++state.acquired;
}

void Auditor::OnLockReleased(TxnId txn) {
  ++checks_performed_;
  TxnLockState& state = lock_states_.Upsert(txn);
  if (state.phase == LockPhase::kGrowing) {
    state.phase = LockPhase::kShrinking;
    state.released_at_count = state.acquired;
  }
}

void Auditor::CheckBlockedTracked(TxnId txn, bool tracked_by_algorithm) {
  ++checks_performed_;
  if (!tracked_by_algorithm) {
    Report(AuditInvariant::kPermanentBlock, txn,
           "engine blocked the transaction but the cc algorithm has no "
           "pending grant path for it");
  }
}

void Auditor::CheckConservation(const TxnCensus& census) {
  ++checks_performed_;
  int64_t sum = census.ready + census.running + census.blocked +
                census.thinking + census.restart_delay;
  auto fail = [&](const char* what) {
    std::ostringstream detail;
    detail << what << " (";
    PrintCensus(detail, census);
    detail << ")";
    Report(AuditInvariant::kTxnConservation, kInvalidTxn, detail.str());
  };
  if (sum != census.total) {
    fail("transaction states do not sum to the known population");
    return;
  }
  if (census.active != census.running + census.blocked + census.thinking) {
    fail("active count disagrees with the running+blocked+thinking population");
    return;
  }
  if (census.ready_queue != census.ready) {
    fail("ready queue length disagrees with the ready population");
  }
}

void Auditor::CheckCensusAgrees(const TxnCensus& counted,
                                const TxnCensus& walked) {
  if (counted == walked) return;
  std::ostringstream detail;
  detail << "incremental census (";
  PrintCensus(detail, counted);
  detail << ") disagrees with a walk of the live transactions (";
  PrintCensus(detail, walked);
  detail << ")";
  Report(AuditInvariant::kTxnConservation, kInvalidTxn, detail.str());
}

void Auditor::OnEventTime(SimTime now) {
  ++checks_performed_;
  if (saw_time_ && now < last_time_) {
    std::ostringstream detail;
    detail << "observed time " << now << " after " << last_time_;
    Report(AuditInvariant::kTimeMonotonicity, kInvalidTxn, detail.str());
  }
  saw_time_ = true;
  last_time_ = now;
}

void Auditor::FoldOp(uint64_t op, TxnId txn, int64_t a, int64_t b, int64_t c) {
  digest_.Fold(op);
  digest_.Fold(static_cast<uint64_t>(txn));
  digest_.Fold(static_cast<uint64_t>(a));
  digest_.Fold(static_cast<uint64_t>(b));
  digest_.Fold(static_cast<uint64_t>(c));
}

bool Auditor::VerifyReplay(uint64_t expected_digest) {
  ++checks_performed_;
  if (digest_.value() == expected_digest) return true;
  std::ostringstream detail;
  detail << "replay digest " << digest_.value() << " != expected "
         << expected_digest;
  Report(AuditInvariant::kReplayDivergence, kInvalidTxn, detail.str());
  return false;
}

std::string Auditor::Summary() const {
  std::ostringstream out;
  out << violation_count_ << " violation(s), " << checks_performed_
      << " checks\n";
  for (const AuditViolation& v : violations_) {
    out << "  [" << AuditInvariantName(v.invariant) << "] t=" << v.time
        << " txn=" << v.txn << ": " << v.detail << "\n";
  }
  return out.str();
}

}  // namespace ccsim
