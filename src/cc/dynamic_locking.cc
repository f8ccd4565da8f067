#include "cc/dynamic_locking.h"

#include "util/check.h"

namespace ccsim {

DynamicLockingCC::DynamicLockingCC(ConflictRule rule,
                                   VictimPolicy victim_policy)
    : rule_(rule), detector_(&locks_, victim_policy) {}

std::string DynamicLockingCC::name() const {
  static const char* const kNames[] = {"blocking", "immediate_restart",
                                       "wound_wait", "wait_die"};
  return kNames[static_cast<int>(rule_)];
}

void DynamicLockingCC::ReserveCapacity(int64_t num_objects, int num_txns) {
  const auto txns = static_cast<size_t>(num_txns);
  locks_.Reserve(static_cast<size_t>(num_objects), txns);
  start_times_.Reserve(txns);
  if (ages()) first_starts_.Reserve(txns);
  doomed_.reserve(txns);
}

void DynamicLockingCC::OnBegin(TxnId txn, SimTime first_start,
                               SimTime incarnation_start) {
  start_times_.Upsert(txn) = incarnation_start;
  if (ages()) first_starts_.Upsert(txn) = first_start;
  doomed_.erase(txn);
}

bool DynamicLockingCC::Older(TxnId a, TxnId b) const {
  SimTime ta = first_starts_.At(a);
  SimTime tb = first_starts_.At(b);
  if (ta != tb) return ta < tb;
  return a < b;  // Smaller id was created first.
}

CCDecision DynamicLockingCC::ReadRequest(TxnId txn, ObjectId obj) {
  return Request(txn, obj, LockMode::kShared);
}

CCDecision DynamicLockingCC::WriteRequest(TxnId txn, ObjectId obj) {
  return Request(txn, obj, LockMode::kExclusive);
}

CCDecision DynamicLockingCC::OnConflict(TxnId txn, ObjectId obj) {
  ++stats_.lock_conflicts;
  bool restart = false;
  switch (rule_) {
    case ConflictRule::kRestart:
      if (callbacks_.blame) {
        // A denied request leaves no queue trace; the holders are the
        // transactions the requester lost to.
        std::vector<TxnId> holders = locks_.HoldersOf(obj);
        callbacks_.on_blame(txn, holders.empty() ? kInvalidTxn : holders[0],
                            obj, BlameKind::kDenied);
      }
      return CCDecision::kRestart;
    case ConflictRule::kWaitDie:
      // Die if any live blocker is older; otherwise wait (all blockers
      // younger, so every wait edge points old -> young and no cycle forms).
      locks_.AppendBlockersOf(txn, &blockers_scratch_);
      for (TxnId blocker : blockers_scratch_) {
        if (doomed_.count(blocker) == 0 && Older(blocker, txn)) {
          callbacks_.on_blame(txn, blocker, obj, BlameKind::kDenied);
          return CCDecision::kRestart;
        }
      }
      break;
    case ConflictRule::kWoundWait:
      // Wound every live younger blocker, then wait for the older ones.
      locks_.AppendBlockersOf(txn, &blockers_scratch_);
      for (TxnId blocker : blockers_scratch_) {
        if (doomed_.count(blocker) == 0 && Older(txn, blocker)) {
          ++stats_.wounds;
          doomed_.insert(blocker);
          callbacks_.on_blame(blocker, txn, obj, BlameKind::kWound);
          callbacks_.on_wound(blocker);
        }
      }
      [[fallthrough]];
    case ConflictRule::kBlock:
      restart = ResolveDeadlocks(txn, obj);
      break;
  }
  if (callbacks_.blame) {
    locks_.AppendBlockersOf(txn, &blockers_scratch_);
    callbacks_.on_blame(
        txn, blockers_scratch_.empty() ? kInvalidTxn : blockers_scratch_[0],
        obj, restart ? BlameKind::kWound : BlameKind::kBlock);
  }
  // On a restart the engine calls Abort(txn), which cancels the queued
  // request and releases the locks this incarnation holds.
  return restart ? CCDecision::kRestart : CCDecision::kBlocked;
}

bool DynamicLockingCC::ResolveDeadlocks(TxnId txn, ObjectId obj) {
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
  if (resolution.requester_is_victim) ++stats_.deadlock_victims;
  return resolution.requester_is_victim;
}

void DynamicLockingCC::Commit(TxnId txn) {
  CCSIM_CHECK_EQ(doomed_.count(txn), 0u) << "doomed txn reached commit";
  Release(txn);
}

void DynamicLockingCC::Abort(TxnId txn) {
  doomed_.erase(txn);
  Release(txn);
}

void DynamicLockingCC::Release(TxnId txn) {
  start_times_.Erase(txn);
  first_starts_.Erase(txn);
  const std::vector<TxnId>& granted = locks_.ReleaseAll(txn);
  // Under kRestart no request ever queues, so a release grants nobody.
  CCSIM_CHECK(rule_ != ConflictRule::kRestart || granted.empty());
  for (TxnId waiter : granted) callbacks_.on_granted(waiter);
}

void DynamicLockingCC::RegisterStats(StatsRegistry* registry) {
  registry->AddGauge("lock_table_objects", [this] {
    return static_cast<double>(locks_.locked_objects());
  });
  registry->AddGauge("lock_waiters", [this] {
    return static_cast<double>(locks_.waiting_txns());
  });
  // Only blocking and wound-wait run the deadlock detector.
  if (rule_ != ConflictRule::kBlock && rule_ != ConflictRule::kWoundWait) {
    return;
  }
  deadlock_searches_ = registry->AddCounter("deadlock_searches");
  // Cycles of length 2 dominate (the upgrade deadlock); long cycles appear
  // under high contention. Bins cover [2, 34).
  cycle_length_hist_ =
      registry->AddHistogram("deadlock_cycle_len", 2.0, 34.0, 32);
}

}  // namespace ccsim
