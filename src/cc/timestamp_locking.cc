#include "cc/timestamp_locking.h"

#include "util/check.h"

namespace ccsim {

TimestampLockingCC::TimestampLockingCC(Flavor flavor)
    : flavor_(flavor), detector_(&locks_, VictimPolicy::kYoungest) {}

void TimestampLockingCC::OnBegin(TxnId txn, SimTime first_start,
                                 SimTime incarnation_start) {
  first_starts_.Upsert(txn) = first_start;
  incarnation_starts_.Upsert(txn) = incarnation_start;
  doomed_.erase(txn);
}

bool TimestampLockingCC::Older(TxnId a, TxnId b) const {
  SimTime ta = first_starts_.At(a);
  SimTime tb = first_starts_.At(b);
  if (ta != tb) return ta < tb;
  return a < b;  // Smaller id was created first.
}

CCDecision TimestampLockingCC::ReadRequest(TxnId txn, ObjectId obj) {
  return HandleRequest(txn, obj, LockMode::kShared);
}

CCDecision TimestampLockingCC::WriteRequest(TxnId txn, ObjectId obj) {
  return HandleRequest(txn, obj, LockMode::kExclusive);
}

CCDecision TimestampLockingCC::HandleRequest(TxnId txn, ObjectId obj,
                                             LockMode mode) {
  LockRequestOutcome outcome =
      locks_.Request(txn, obj, mode, /*enqueue_on_conflict=*/true);
  if (outcome == LockRequestOutcome::kGranted) return CCDecision::kGranted;
  CCSIM_CHECK(outcome == LockRequestOutcome::kWaiting);
  ++stats_.lock_conflicts;

  locks_.AppendBlockersOf(txn, &blockers_scratch_);
  const std::vector<TxnId>& blockers = blockers_scratch_;

  if (flavor_ == Flavor::kWaitDie) {
    // Die if any live blocker is older; otherwise wait (all blockers younger,
    // so every wait edge points old -> young and no cycle can form).
    for (TxnId blocker : blockers) {
      if (doomed_.count(blocker) > 0) continue;  // About to release anyway.
      if (Older(blocker, txn)) {
        // The requester dies in the older holder's favor.
        callbacks_.on_blame(txn, blocker, obj, BlameKind::kDenied);
        return CCDecision::kRestart;
      }
    }
    callbacks_.on_blame(txn, blockers.empty() ? kInvalidTxn : blockers[0],
                        obj, BlameKind::kBlock);
    return CCDecision::kBlocked;
  }

  // Wound-wait: wound every younger blocker, wait for the older ones.
  for (TxnId blocker : blockers) {
    if (doomed_.count(blocker) > 0) continue;
    if (Older(txn, blocker)) {
      ++stats_.wounds;
      doomed_.insert(blocker);
      callbacks_.on_blame(blocker, txn, obj, BlameKind::kWound);
      callbacks_.on_wound(blocker);
    }
  }
  // Safety net against queue-fairness cycles (see header).
  if (deadlock_searches_ != nullptr) deadlock_searches_->Inc();
  const DeadlockResolution& resolution =
      detector_.Resolve(txn, doomed_, incarnation_starts_);
  stats_.deadlocks_detected += resolution.cycles_found;
  for (TxnId victim : resolution.victims) {
    ++stats_.deadlock_victims;
    doomed_.insert(victim);
    callbacks_.on_blame(victim, txn, obj, BlameKind::kWound);
    callbacks_.on_wound(victim);
  }
  if (resolution.requester_is_victim) {
    ++stats_.deadlock_victims;
    callbacks_.on_blame(txn, blockers.empty() ? kInvalidTxn : blockers[0],
                        obj, BlameKind::kWound);
    return CCDecision::kRestart;
  }
  callbacks_.on_blame(txn, blockers.empty() ? kInvalidTxn : blockers[0],
                      obj, BlameKind::kBlock);
  return CCDecision::kBlocked;
}

void TimestampLockingCC::Commit(TxnId txn) {
  CCSIM_CHECK_EQ(doomed_.count(txn), 0u) << "doomed txn reached commit";
  first_starts_.Erase(txn);
  incarnation_starts_.Erase(txn);
  ReleaseAndNotify(txn);
}

void TimestampLockingCC::Abort(TxnId txn) {
  doomed_.erase(txn);
  // first_starts_ survives restarts via OnBegin re-registration; erase here
  // and let the next incarnation's OnBegin restore it from the engine.
  first_starts_.Erase(txn);
  incarnation_starts_.Erase(txn);
  ReleaseAndNotify(txn);
}

void TimestampLockingCC::ReleaseAndNotify(TxnId txn) {
  for (TxnId granted : locks_.ReleaseAll(txn)) {
    callbacks_.on_granted(granted);
  }
}

void TimestampLockingCC::RegisterStats(StatsRegistry* registry) {
  registry->AddGauge("lock_table_objects",
                     [this] { return static_cast<double>(locks_.locked_objects()); });
  registry->AddGauge("lock_waiters",
                     [this] { return static_cast<double>(locks_.waiting_txns()); });
  if (flavor_ == Flavor::kWoundWait) {
    // Only wound-wait runs the safety-net cycle search (see header).
    deadlock_searches_ = registry->AddCounter("deadlock_searches");
  }
}

}  // namespace ccsim
