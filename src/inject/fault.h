// Deterministic fault injection (docs/FAULTS.md).
//
// A FaultPlan is a seeded schedule of which fault sites fire on which hits,
// parsed from the CCSIM_FAULTS knob (or run_config's faults= key). Once a
// plan is installed the sites listed in it start firing; everything else —
// and every site when no plan is installed — stays on the real code path.
//
// Design constraints, in order:
//  * Zero cost when disabled: FaultPoint() is one acquire load of a process
//    global and a null test. No plan installed (the production default)
//    means no branch history, no locks, no allocation — the bench reference
//    CSVs must stay byte-identical with the subsystem compiled in.
//  * Deterministic: a plan with seed S fires the same sites on the same
//    hits in every run. Even the probabilistic trigger is a pure hash of
//    (seed, site, hit index), not a stateful RNG, so concurrent queries
//    from pool workers cannot perturb each other's draws.
//  * Allocation-free queries: FaultPoint() may be called from inside a
//    replaced operator new (the alloc.fail site), so the query path never
//    allocates; plan state is fixed-size arrays of atomics.
//
// The process-global plan pointer (not thread-local) is deliberate: faults
// must be visible to ThreadPool workers that were spawned before the plan
// was installed. Tests therefore serialize plan installation (gtest runs
// tests sequentially; ScopedFaultPlan nests but does not interleave).
#ifndef CCSIM_INJECT_FAULT_H_
#define CCSIM_INJECT_FAULT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "inject/sites.h"
#include "util/status.h"

namespace ccsim {

/// When a site's trigger fires, as a function of the site's 1-based hit
/// index (each FaultPoint() query is one hit).
enum class FaultTrigger : uint8_t {
  kNever = 0,  ///< Site not in the plan.
  kAlways,     ///< Every hit.
  kHit,        ///< Exactly the n-th hit.
  kAfter,      ///< Every hit past the n-th.
  kEvery,      ///< Every n-th hit (n, 2n, 3n, ...).
  kProb,       ///< Each hit independently, with probability p, by a pure
               ///< hash of (plan seed, site, hit index).
};

/// One site's parsed trigger.
struct SiteTrigger {
  FaultTrigger kind = FaultTrigger::kNever;
  uint64_t n = 0;          ///< Parameter of hit/after/every.
  uint64_t threshold = 0;  ///< prob: p mapped onto the full u64 range.
};

/// A parsed, immutable fault schedule.
///
/// Grammar (fields separated by ';', whitespace around fields ignored):
///   plan    := field (';' field)*
///   field   := 'seed=' uint | site '@' trigger
///   trigger := 'always' | 'hit:' N | 'after:' N | 'every:' N | 'prob:' P
/// with N a positive integer (after: accepts 0), P a probability in [0,1],
/// and site a name from inject/sites.h ("csv.write", "pool.task", ...).
/// Repeating a site or malforming any field is an error — a silently
/// ignored fault spec would invalidate the run that asked for it.
class FaultPlan {
 public:
  /// Parses `spec`; returns kInvalidArgument with a pointed message on any
  /// unknown site, unknown trigger, or malformed parameter.
  static StatusOr<FaultPlan> Parse(std::string_view spec);

  uint64_t seed() const { return seed_; }
  const SiteTrigger& trigger(FaultSite site) const {
    return triggers_[static_cast<std::size_t>(site)];
  }
  /// The spec text this plan was parsed from (for diagnostics).
  const std::string& spec() const { return spec_; }

 private:
  FaultPlan() = default;
  uint64_t seed_ = 0;
  std::array<SiteTrigger, kNumFaultSites> triggers_{};
  std::string spec_;
};

namespace inject_internal {

/// Installed-plan state: the immutable schedule plus per-site hit/fire
/// counters. Fixed size so the FaultPoint() query path never allocates.
struct PlanState {
  uint64_t seed = 0;
  std::array<SiteTrigger, kNumFaultSites> triggers{};
  std::array<std::atomic<uint64_t>, kNumFaultSites> hits{};
  std::array<std::atomic<uint64_t>, kNumFaultSites> fires{};
};

/// The installed plan; null means injection disabled (the fast path).
inline std::atomic<PlanState*> g_plan{nullptr};

/// Counts the hit and evaluates the site's trigger. Allocation-free.
bool FaultPointSlow(PlanState* state, FaultSite site);

}  // namespace inject_internal

/// Should the error path fire at `site` right now? One acquire load and a
/// null test when no plan is installed. Each call counts as one hit for the
/// site's trigger whenever a plan is active.
inline bool FaultPoint(FaultSite site) {
  inject_internal::PlanState* state =
      inject_internal::g_plan.load(std::memory_order_acquire);
  if (state == nullptr) return false;
  return inject_internal::FaultPointSlow(state, site);
}

/// Times FaultPoint(site) was queried / fired under the installed plan;
/// 0 when no plan is installed. Test and diagnostic introspection.
uint64_t FaultHits(FaultSite site);
uint64_t FaultFires(FaultSite site);

/// Whether a fault plan is currently installed (diagnostics: the heartbeat
/// line reports per-site hit/fire counts only when one is).
bool FaultPlanActive();

/// Installs the plan parsed from CCSIM_FAULTS, once per process; later calls
/// are no-ops (the first sweep to start wins, matching the once-per-process
/// env discipline of core/experiment.cc). Unset/empty leaves injection
/// disabled; a malformed value is a hard error, like every CCSIM_* knob.
/// Prints one "[faults] ..." line to stderr when a plan activates so the
/// run's log shows the plan took effect.
void InstallFaultPlanFromEnv();

/// Installs `plan` for the rest of the process (run_config's faults= key).
/// CCSIM_FAULTS, when also set, still wins — InstallFaultPlanFromEnv runs
/// later and overwrites, matching the env-beats-config precedence of
/// RunLengths::FromEnv.
void InstallFaultPlan(const FaultPlan& plan);

/// RAII plan installation for tests: installs `plan` on construction and
/// restores the previously installed plan (usually none) on destruction.
/// Owns fresh counters, so hits()/fires() read zero at construction.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan);
  ~ScopedFaultPlan();

  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

  uint64_t hits(FaultSite site) const {
    return state_.hits[static_cast<std::size_t>(site)].load(
        std::memory_order_relaxed);
  }
  uint64_t fires(FaultSite site) const {
    return state_.fires[static_cast<std::size_t>(site)].load(
        std::memory_order_relaxed);
  }

 private:
  inject_internal::PlanState state_;
  inject_internal::PlanState* previous_;
};

/// The exception an injected *exception-path* site throws (pool.task). Its
/// what() names the site, so a faulted point's Status message pins the
/// failure to the plan that caused it.
class FaultInjected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws FaultInjected naming `site`. Lives here so subsystems under the
/// lint R6 no-throw rule (src/ outside util/ and inject/) can raise an
/// injected failure without a bare `throw` of their own.
[[noreturn]] void ThrowInjected(FaultSite site);

}  // namespace ccsim

#endif  // CCSIM_INJECT_FAULT_H_
