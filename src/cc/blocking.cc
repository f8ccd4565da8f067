#include "cc/blocking.h"

#include "util/check.h"

namespace ccsim {

BlockingCC::BlockingCC(VictimPolicy victim_policy)
    : detector_(&locks_, victim_policy) {}

void BlockingCC::OnBegin(TxnId txn, SimTime first_start,
                         SimTime incarnation_start) {
  (void)first_start;
  start_times_.Upsert(txn) = incarnation_start;
  doomed_.erase(txn);
}

CCDecision BlockingCC::ReadRequest(TxnId txn, ObjectId obj) {
  return HandleRequest(txn, obj, LockMode::kShared);
}

CCDecision BlockingCC::WriteRequest(TxnId txn, ObjectId obj) {
  return HandleRequest(txn, obj, LockMode::kExclusive);
}

CCDecision BlockingCC::HandleRequest(TxnId txn, ObjectId obj, LockMode mode) {
  LockRequestOutcome outcome =
      locks_.Request(txn, obj, mode, /*enqueue_on_conflict=*/true);
  if (outcome == LockRequestOutcome::kGranted) return CCDecision::kGranted;
  CCSIM_CHECK(outcome == LockRequestOutcome::kWaiting);
  ++stats_.lock_conflicts;

  // Deadlock detection runs each time a transaction blocks.
  if (deadlock_searches_ != nullptr) deadlock_searches_->Inc();
  const DeadlockResolution& resolution =
      detector_.Resolve(txn, doomed_, start_times_);
  stats_.deadlocks_detected += resolution.cycles_found;
  if (cycle_length_hist_ != nullptr) {
    for (int length : resolution.cycle_lengths) {
      cycle_length_hist_->Add(static_cast<double>(length));
    }
  }

  for (TxnId victim : resolution.victims) {
    ++stats_.deadlock_victims;
    doomed_.insert(victim);
    // The victim dies so the requester's cycle breaks: blame the requester.
    callbacks_.on_blame(victim, txn, obj, BlameKind::kWound);
    callbacks_.on_wound(victim);
  }
  if (resolution.requester_is_victim) {
    ++stats_.deadlock_victims;
    if (callbacks_.blame) {
      locks_.AppendBlockersOf(txn, &blockers_scratch_);
      callbacks_.on_blame(
          txn, blockers_scratch_.empty() ? kInvalidTxn : blockers_scratch_[0],
          obj, BlameKind::kWound);
    }
    // The engine will call Abort(txn), which cancels the queued request and
    // releases the locks this incarnation holds.
    return CCDecision::kRestart;
  }
  if (callbacks_.blame) {
    locks_.AppendBlockersOf(txn, &blockers_scratch_);
    callbacks_.on_blame(
        txn, blockers_scratch_.empty() ? kInvalidTxn : blockers_scratch_[0],
        obj, BlameKind::kBlock);
  }
  return CCDecision::kBlocked;
}

void BlockingCC::Commit(TxnId txn) {
  CCSIM_CHECK_EQ(doomed_.count(txn), 0u) << "doomed txn reached commit";
  start_times_.Erase(txn);
  ReleaseAndNotify(txn);
}

void BlockingCC::Abort(TxnId txn) {
  doomed_.erase(txn);
  start_times_.Erase(txn);
  ReleaseAndNotify(txn);
}

void BlockingCC::ReleaseAndNotify(TxnId txn) {
  for (TxnId granted : locks_.ReleaseAll(txn)) {
    callbacks_.on_granted(granted);
  }
}

void BlockingCC::RegisterStats(StatsRegistry* registry) {
  registry->AddGauge("lock_table_objects",
                     [this] { return static_cast<double>(locks_.locked_objects()); });
  registry->AddGauge("lock_waiters",
                     [this] { return static_cast<double>(locks_.waiting_txns()); });
  deadlock_searches_ = registry->AddCounter("deadlock_searches");
  // Cycles of length 2 dominate (the upgrade deadlock); long cycles appear
  // under high contention. Bins cover [2, 34).
  cycle_length_hist_ = registry->AddHistogram("deadlock_cycle_len", 2.0, 34.0, 32);
}

}  // namespace ccsim
