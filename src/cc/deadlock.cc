#include "cc/deadlock.h"

#include <algorithm>

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
  FindCycle(start, excluded, &cycle);
  return cycle;
}

bool DeadlockDetector::FindCycle(TxnId start, const SmallIdSet& excluded,
                                 std::vector<TxnId>* cycle) const {
  // Iterative DFS over the waits-for relation looking for a path back to
  // `start`. Path state lets us return the cycle members themselves. Frames
  // (and their blocker buffers) are pooled by depth, so a search that finds
  // no cycle allocates nothing once the pool is warm.
  size_t depth = 0;
  auto push = [&](TxnId txn) {
    if (depth == frames_.size()) frames_.emplace_back();
    Frame& frame = frames_[depth++];
    frame.txn = txn;
    frame.next = 0;
    locks_->AppendBlockersOf(txn, &frame.blockers);
    frame.blockers.erase(
        std::remove_if(frame.blockers.begin(), frame.blockers.end(),
                       [&](TxnId b) { return excluded.count(b) > 0; }),
        frame.blockers.end());
  };

  cycle->clear();
  visited_.clear();
  visited_.insert(start);
  push(start);

  while (depth > 0) {
    Frame& frame = frames_[depth - 1];
    if (frame.next >= frame.blockers.size()) {
      --depth;
      continue;
    }
    TxnId next = frame.blockers[frame.next++];
    if (next == start) {
      // Found a cycle: the current DFS path is the cycle body.
      for (size_t i = 0; i < depth; ++i) cycle->push_back(frames_[i].txn);
      return true;
    }
    if (visited_.insert(next)) push(next);
  }
  return false;
}

TxnId DeadlockDetector::PickVictim(const std::vector<TxnId>& cycle,
                                   const VictimContext& context) const {
  CCSIM_CHECK(!cycle.empty());
  TxnId victim = cycle.front();
  for (TxnId candidate : cycle) {
    switch (policy_) {
      case VictimPolicy::kYoungest: {
        SimTime vs = context.start_time(victim);
        SimTime cs = context.start_time(candidate);
        // Younger = later start; break ties toward the larger id (assigned
        // later, hence younger).
        if (cs > vs || (cs == vs && candidate > victim)) victim = candidate;
        break;
      }
      case VictimPolicy::kOldest: {
        SimTime vs = context.start_time(victim);
        SimTime cs = context.start_time(candidate);
        if (cs < vs || (cs == vs && candidate < victim)) victim = candidate;
        break;
      }
      case VictimPolicy::kFewestLocks: {
        size_t vl = context.locks_held(victim);
        size_t cl = context.locks_held(candidate);
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
    const VictimContext& context) const {
  DeadlockResolution& resolution = resolution_;
  resolution.requester_is_victim = false;
  resolution.victims.clear();
  resolution.cycles_found = 0;
  resolution.cycle_lengths.clear();
  excluded_scratch_ = doomed;  // Capacity-reusing copy-assign.

  while (FindCycle(requester, excluded_scratch_, &cycle_)) {
    ++resolution.cycles_found;
    resolution.cycle_lengths.push_back(static_cast<int>(cycle_.size()));
    TxnId victim = PickVictim(cycle_, context);
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
