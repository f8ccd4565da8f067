#include "core/audit_listener.h"

#include <algorithm>
#include <vector>

#include "core/closed_system.h"

namespace ccsim {

namespace {

/// Deep cc-algorithm checks are O(lock table) and the census walk is
/// O(population), so they run on a sampled subset of transitions; the
/// counted census and monotonicity checks run on all.
constexpr int64_t kDeepCheckPeriod = 64;

}  // namespace

AuditListener::AuditListener(const ClosedSystem* engine, const Simulator* sim)
    : engine_(*engine),
      sim_(*sim),
      auditor_(AuditorOptions{}, [sim] { return sim->Now(); }) {}

void AuditListener::OnEvent(const EngineEvent& event) {
  switch (event.kind) {
    case EngineEventKind::kActivate:
      auditor_.OnTxnAdmitted(event.txn, event.incarnation);
      Fold(AuditOp::kBegin, event, event.incarnation, 0);
      break;
    case EngineEventKind::kCcDecision: {
      const auto decision = static_cast<int64_t>(event.decision);
      switch (event.op) {
        case CcOp::kPredeclare:
          Fold(AuditOp::kPredeclare, event, decision, event.count);
          break;
        case CcOp::kRead:
          Fold(AuditOp::kRead, event, event.object, decision);
          break;
        case CcOp::kWriteIntent:
        case CcOp::kWrite:
          Fold(AuditOp::kWrite, event, event.object, decision);
          break;
        case CcOp::kValidate:
          Fold(AuditOp::kValidate, event,
               event.decision == CCDecision::kGranted ? 1 : 0, 0);
          break;
      }
      break;
    }
    case EngineEventKind::kBlock:
      // The newly blocked transaction must be a waiter its algorithm tracks.
      auditor_.CheckBlockedTracked(event.txn,
                                   engine_.cc().AuditTracksWaiter(event.txn));
      break;
    case EngineEventKind::kCommit:
      Fold(AuditOp::kCommit, event, event.incarnation, 0);
      auditor_.OnTxnFinished(event.txn);
      break;
    case EngineEventKind::kRestart:
      Fold(AuditOp::kRestart, event, event.incarnation, 0);
      auditor_.OnTxnFinished(event.txn);
      break;
    case EngineEventKind::kSettled:
      CheckTransition(event.time);
      break;
    case EngineEventKind::kRunEnd:
      Final();
      break;
    default:
      break;
  }
}

void AuditListener::Fold(AuditOp op, const EngineEvent& event, int64_t a,
                         int64_t b) {
  auditor_.FoldOp(static_cast<uint64_t>(op), event.txn, a, b,
                  static_cast<int64_t>(event.time));
}

void AuditListener::CheckTransition(SimTime now) {
  auditor_.OnEventTime(now);
  const TxnCensus census = engine_.CountedCensus();
  auditor_.CheckConservation(census);
  if (++transitions_ % kDeepCheckPeriod != 0) return;
  // A state write that bypassed the engine's counts leaves them
  // permanently off, so this sampled walk (and always the final one)
  // catches it.
  auditor_.CheckCensusAgrees(census, engine_.WalkedCensus());
  engine_.cc().AuditCheck();
  // Lost-wakeup check: every blocked transaction must still be tracked as a
  // waiter by the algorithm — unless it is doomed (its abort event is
  // pending) or its grant's zero-delay resume event is in flight.
  engine_.ForEachBlocked([&](TxnId id, bool doomed, bool grant_inflight) {
    if (!doomed && !grant_inflight) {
      auditor_.CheckBlockedTracked(id, engine_.cc().AuditTracksWaiter(id));
    }
  });
}

void AuditListener::Final() {
  engine_.cc().AuditCheck();
  CheckTransition(sim_.Now());
  auditor_.CheckCensusAgrees(engine_.CountedCensus(), engine_.WalkedCensus());
  // Quiescence: with the event queue drained nothing can ever wake a
  // blocked transaction again — each one is permanently stuck.
  if (sim_.pending_events() != 0) return;
  std::vector<TxnId> stuck;
  engine_.ForEachBlocked(
      [&](TxnId id, bool, bool) { stuck.push_back(id); });
  std::sort(stuck.begin(), stuck.end());
  for (TxnId id : stuck) {
    auditor_.Report(AuditInvariant::kPermanentBlock, id,
                    "blocked transaction outlived the event queue");
  }
}

}  // namespace ccsim
