// The runtime auditor (audit/audit.h) as a listener on the engine's event
// stream (docs/AUDIT.md).
//
// Built by the engine when EngineConfig::audit is set. It folds every cc
// decision, admission, commit and restart into the replay digest, tracks
// each incarnation's lock discipline, and at every kSettled event checks
// time monotonicity and transaction conservation over the engine's census;
// every kDeepCheckPeriod-th check also deep-checks the cc algorithm and
// cross-checks the counted census against a walk. It reads the engine
// through const views only. The auditor sits below core/ in the link
// order, so this glue lives here, next to the census it reads.
#ifndef CCSIM_CORE_AUDIT_LISTENER_H_
#define CCSIM_CORE_AUDIT_LISTENER_H_

#include <cstdint>

#include "audit/audit.h"
#include "obs/engine_event.h"
#include "sim/simulator.h"

namespace ccsim {

class ClosedSystem;

class AuditListener : public EngineListener {
 public:
  AuditListener(const ClosedSystem* engine, const Simulator* sim);

  void OnEvent(const EngineEvent& event) override;

  Auditor& auditor() { return auditor_; }
  const Auditor& auditor() const { return auditor_; }

  /// End-of-run checks: deep cc check, a last transition check, the final
  /// census cross-check, and quiescence (no blocked transaction may outlive
  /// the event queue). Runs at kRunEnd; the schedule-space verifier also
  /// calls it (via ClosedSystem::AuditFinal) on every terminal state.
  void Final();

 private:
  /// Monotonicity + conservation census at one settled transition.
  void CheckTransition(SimTime now);
  void Fold(AuditOp op, const EngineEvent& event, int64_t a, int64_t b);

  const ClosedSystem& engine_;
  const Simulator& sim_;
  Auditor auditor_;
  int64_t transitions_ = 0;
};

}  // namespace ccsim

#endif  // CCSIM_CORE_AUDIT_LISTENER_H_
