// Construction of concurrency control algorithms by name, plus each
// algorithm's conventional restart-delay default.
#ifndef CCSIM_CC_FACTORY_H_
#define CCSIM_CC_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "cc/concurrency_control.h"
#include "cc/deadlock.h"
#include "cc/restart_policy.h"

namespace ccsim {

/// Names accepted by MakeConcurrencyControl: every AllAlgorithms() entry
/// (the paper's blocking, immediate_restart and optimistic, then
/// optimistic_forward, wound_wait, wait_die, basic_to, mvto and
/// static_locking). Any other name fails a CCSIM_CHECK.
std::unique_ptr<ConcurrencyControl> MakeConcurrencyControl(
    const std::string& name, VictimPolicy victim_policy = VictimPolicy::kYoungest);

/// The paper's three algorithms, in presentation order.
const std::vector<std::string>& PaperAlgorithms();

/// All implemented algorithms (paper three + extensions).
const std::vector<std::string>& AllAlgorithms();

/// Conventional delay default: adaptive for immediate_restart and wait_die
/// (their restarts must outlast the still-running conflicting transaction;
/// the engine rejects either without a delay), none for the others (blocking
/// restarts only on deadlock, optimistic conflicts are with already-committed
/// transactions). kNone for an unknown name.
RestartDelayMode DefaultRestartDelayMode(const std::string& name);

}  // namespace ccsim

#endif  // CCSIM_CC_FACTORY_H_
