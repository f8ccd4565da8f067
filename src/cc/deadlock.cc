#include "cc/deadlock.h"

#include "sim/choice.h"
#include "util/check.h"

namespace ccsim {

namespace {
// Ceiling on the cycle members offered to a verifier ChoicePoint; matches the
// tiny configurations the explorer runs (docs/VERIFICATION.md).
constexpr int kMaxVictimAlternatives = 6;
}  // namespace

std::vector<TxnId> DeadlockDetector::FindCycle(
    TxnId start, const SmallIdSet& excluded) const {
  std::vector<TxnId> cycle;
  locks_->FindCycleThrough(start, excluded, &cycle);
  return cycle;
}

TxnId DeadlockDetector::PickVictim(
    const std::vector<TxnId>& cycle,
    const TxnSlotMap<SimTime>& start_times) const {
  CCSIM_CHECK(!cycle.empty());
  TxnId victim = cycle.front();
  for (TxnId candidate : cycle) {
    switch (policy_) {
      case VictimPolicy::kYoungest: {
        SimTime vs = start_times.At(victim);
        SimTime cs = start_times.At(candidate);
        // Younger = later start; break ties toward the larger id (assigned
        // later, hence younger).
        if (cs > vs || (cs == vs && candidate > victim)) victim = candidate;
        break;
      }
      case VictimPolicy::kOldest: {
        SimTime vs = start_times.At(victim);
        SimTime cs = start_times.At(candidate);
        if (cs < vs || (cs == vs && candidate < victim)) victim = candidate;
        break;
      }
      case VictimPolicy::kFewestLocks: {
        size_t vl = locks_->NumHeld(victim);
        size_t cl = locks_->NumHeld(candidate);
        if (cl < vl || (cl == vl && candidate > victim)) victim = candidate;
        break;
      }
    }
  }
  // Verifier hook: a correct algorithm must stay correct no matter which
  // cycle member is aborted, so offer them all. Index 0 keeps the policy's
  // deterministic pick, which is what fires when no hook is installed.
  if (ActiveChoicePoint() != nullptr && cycle.size() > 1) {
    uint64_t signatures[kMaxVictimAlternatives];
    TxnId members[kMaxVictimAlternatives];
    int count = 0;
    signatures[count] = static_cast<uint64_t>(victim);
    members[count] = victim;
    ++count;
    for (TxnId candidate : cycle) {
      if (count >= kMaxVictimAlternatives) break;
      if (candidate == victim) continue;
      signatures[count] = static_cast<uint64_t>(candidate);
      members[count] = candidate;
      ++count;
    }
    victim = members[MaybeChoose("victim.pick", signatures, count)];
  }
  return victim;
}

const DeadlockResolution& DeadlockDetector::Resolve(
    TxnId requester, const SmallIdSet& doomed,
    const TxnSlotMap<SimTime>& start_times) const {
  DeadlockResolution& resolution = resolution_;
  resolution.requester_is_victim = false;
  resolution.victims.clear();
  resolution.cycles_found = 0;
  resolution.cycle_lengths.clear();
  excluded_scratch_ = doomed;  // Capacity-reusing copy-assign.

  while (locks_->FindCycleThrough(requester, excluded_scratch_, &cycle_)) {
    ++resolution.cycles_found;
    resolution.cycle_lengths.push_back(static_cast<int>(cycle_.size()));
    TxnId victim = PickVictim(cycle_, start_times);
    if (victim == requester) {
      resolution.requester_is_victim = true;
      break;  // Restarting the requester clears every cycle through it.
    }
    resolution.victims.push_back(victim);
    excluded_scratch_.insert(victim);
  }
  return resolution;
}

}  // namespace ccsim
