#include "cc/factory.h"

#include "cc/basic_to.h"
#include "cc/dynamic_locking.h"
#include "cc/mvto.h"
#include "cc/optimistic.h"
#include "cc/optimistic_forward.h"
#include "cc/static_locking.h"
#include "util/check.h"

namespace ccsim {

std::unique_ptr<ConcurrencyControl> MakeConcurrencyControl(
    const std::string& name, VictimPolicy victim_policy) {
  if (name == "blocking") {
    return std::make_unique<DynamicLockingCC>(ConflictRule::kBlock,
                                              victim_policy);
  }
  if (name == "immediate_restart") {
    return std::make_unique<DynamicLockingCC>(ConflictRule::kRestart);
  }
  if (name == "optimistic") return std::make_unique<OptimisticCC>();
  if (name == "wound_wait") {
    return std::make_unique<DynamicLockingCC>(ConflictRule::kWoundWait);
  }
  if (name == "wait_die") {
    return std::make_unique<DynamicLockingCC>(ConflictRule::kWaitDie);
  }
  if (name == "basic_to") return std::make_unique<BasicTimestampOrderingCC>();
  if (name == "mvto") {
    return std::make_unique<MultiversionTimestampOrderingCC>();
  }
  if (name == "static_locking") return std::make_unique<StaticLockingCC>();
  if (name == "optimistic_forward") {
    return std::make_unique<ForwardOptimisticCC>();
  }
  CCSIM_CHECK(false) << "unknown concurrency control algorithm: " << name;
  return nullptr;
}

const std::vector<std::string>& PaperAlgorithms() {
  static const std::vector<std::string> algorithms = {
      "blocking", "immediate_restart", "optimistic"};
  return algorithms;
}

const std::vector<std::string>& AllAlgorithms() {
  static const std::vector<std::string> algorithms = {
      "blocking", "immediate_restart", "optimistic", "optimistic_forward",
      "wound_wait", "wait_die", "basic_to", "mvto", "static_locking"};
  return algorithms;
}

RestartDelayMode DefaultRestartDelayMode(const std::string& name) {
  // Algorithms whose restarts can collide with a still-running conflictor
  // must sit out a delay, or the same conflict recurs instantly: the paper's
  // immediate-restart, and wait-die (the younger transaction would die again
  // against the same older holder at the same instant).
  if (name == "immediate_restart" || name == "wait_die") {
    return RestartDelayMode::kAdaptive;
  }
  return RestartDelayMode::kNone;
}

}  // namespace ccsim
