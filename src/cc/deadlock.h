// Waits-for graph construction and deadlock resolution.
//
// The paper's blocking algorithm runs deadlock detection each time a
// transaction blocks and restarts the *youngest* transaction in the cycle.
// Because new waits-for edges are only created when a transaction blocks (or
// enqueues an upgrade, whose new edges all touch the upgrader), any new cycle
// must pass through the newly blocked transaction — so detection searches
// only cycles through the requester, and the graph is acyclic between
// detections. A cycle through the requester must also enter it: the search
// reports a cycle only on an edge w -> requester from a transaction w it
// reached, which is never excluded and never the requester itself (nobody
// blocks itself). So when no waiter outside the excluded set is blocked by
// the requester (LockManager::HasWaitersBlockedBy), detection answers "no
// cycle" without walking the graph — exactly the answer the walk would give.
//
// The walk is LockManager::FindCycleThrough, beside the blocker definition
// and the records it reads; a record counts as visited only while its stamp
// equals that search's epoch (lock_manager.h). This class picks victims.
#ifndef CCSIM_CC_DEADLOCK_H_
#define CCSIM_CC_DEADLOCK_H_

#include <vector>

#include "cc/lock_manager.h"
#include "cc/types.h"
#include "util/dense_table.h"

namespace ccsim {

/// How to choose the transaction to restart from a deadlock cycle.
enum class VictimPolicy {
  kYoungest,    ///< Most recent incarnation start (the paper's choice).
  kOldest,      ///< Earliest incarnation start.
  kFewestLocks, ///< Holder of the fewest locks (cheapest to redo, roughly).
};

/// Result of resolving deadlocks after `requester` blocked.
struct DeadlockResolution {
  /// True if the requester itself was chosen as a victim (the caller should
  /// cancel its request and restart it).
  bool requester_is_victim = false;
  /// Other transactions chosen as victims; the caller must abort them.
  std::vector<TxnId> victims;
  /// Number of cycles encountered.
  int cycles_found = 0;
  /// Length of each cycle found, in order (observability).
  std::vector<int> cycle_lengths;
};

/// Detector over a LockManager's waits-for relation. Logically stateless:
/// the mutable members are scratch (the excluded set, the cycle and the
/// resolution) reused across searches; the search's own scratch lives in
/// the lock manager.
class DeadlockDetector {
 public:
  DeadlockDetector(const LockManager* locks, VictimPolicy policy)
      : locks_(locks), policy_(policy) {}

  /// Repeatedly finds a cycle through `requester` and selects a victim until
  /// no such cycle remains. Transactions in `doomed` (victims already chosen
  /// but not yet aborted by the engine) are treated as absent, since their
  /// locks are about to be released. If the requester is ever selected, the
  /// search stops: restarting the requester removes all cycles through it.
  /// `start_times` is the algorithm's incarnation start per transaction
  /// (kYoungest, kOldest); kFewestLocks counts locks in the lock manager.
  /// The result lives in the detector and is valid until the next Resolve.
  const DeadlockResolution& Resolve(
      TxnId requester, const SmallIdSet& doomed,
      const TxnSlotMap<SimTime>& start_times) const;

  /// Finds one cycle through `start` (ignoring `excluded` transactions);
  /// returns the cycle's members, or empty if none. Exposed for tests.
  std::vector<TxnId> FindCycle(TxnId start, const SmallIdSet& excluded) const;

 private:
  TxnId PickVictim(const std::vector<TxnId>& cycle,
                   const TxnSlotMap<SimTime>& start_times) const;

  const LockManager* locks_;
  VictimPolicy policy_;
  mutable SmallIdSet excluded_scratch_;  ///< doomed ∪ victims-so-far.
  mutable std::vector<TxnId> cycle_;
  mutable DeadlockResolution resolution_;
};

}  // namespace ccsim

#endif  // CCSIM_CC_DEADLOCK_H_
