// Deliberately broken concurrency control algorithms.
//
// The seeded-mutation self-test (tests/verify_test.cc) injects these through
// EngineConfig::cc_factory and asserts that the oracle rejects them: a
// verifier that has never caught a planted bug proves nothing. Each mutant
// targets one oracle rule.
#ifndef CCSIM_VERIFY_MUTANT_H_
#define CCSIM_VERIFY_MUTANT_H_

#include <memory>

#include "cc/concurrency_control.h"

namespace ccsim {
namespace verify {

/// Grants every request unconditionally — no locks, no validation, no
/// restarts. Concurrent conflicting transactions interleave freely, so the
/// committed history is not conflict-serializable (oracle rule 1).
std::unique_ptr<ConcurrencyControl> MakeIgnoreConflictsMutant();

/// Wraps the real blocking algorithm but swallows its first `drops`
/// OnGranted calls: the lock is granted inside the lock table, yet the
/// waiter is never told — the classic lost wakeup. The waiter stays blocked forever,
/// tripping the liveness rule (3) and the audit lost-wakeup check (4).
std::unique_ptr<ConcurrencyControl> MakeDropGrantMutant(int drops);

}  // namespace verify
}  // namespace ccsim

#endif  // CCSIM_VERIFY_MUTANT_H_
