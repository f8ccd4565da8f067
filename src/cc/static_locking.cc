#include "cc/static_locking.h"

#include <algorithm>
#include <sstream>

#include "audit/audit.h"
#include "util/check.h"

namespace ccsim {

void StaticLockingCC::OnBegin(TxnId txn, SimTime first_start,
                              SimTime incarnation_start) {
  (void)first_start;
  (void)incarnation_start;
  active_.Upsert(txn).Recycle();  // Fresh state; buffers keep their capacity.
}

CCDecision StaticLockingCC::Predeclare(TxnId txn,
                                       const std::vector<ObjectId>& reads,
                                       const std::vector<ObjectId>& writes) {
  TxnState& state = active_.At(txn);
  // The write set is a subset of the read set: give it the read buffer's
  // capacity, so a recycled slot stops growing as soon as the reads do.
  if (state.written.capacity() < reads.capacity()) {
    state.written.reserve(reads.capacity());
  }
  state.written = writes;
  state.read_only.clear();
  for (ObjectId obj : reads) {
    if (std::find(writes.begin(), writes.end(), obj) == writes.end()) {
      state.read_only.push_back(obj);
    }
  }
  const ObjectId conflict = FirstConflict(state, txn);
  if (conflict < 0) {
    Acquire(state, txn);
    return CCDecision::kGranted;
  }
  ++stats_.lock_conflicts;
  if (callbacks_.blame) {
    // A write conflicts with every holder, a read only with an exclusive
    // one, which is then the sole holder; the smallest id keeps the
    // attribution deterministic.
    const std::vector<TxnId> holders = locks_.HoldersOf(conflict);
    callbacks_.on_blame(txn, *std::min_element(holders.begin(), holders.end()),
                        conflict, BlameKind::kBlock);
  }
  waiters_.push_back(txn);
  return CCDecision::kBlocked;
}

ObjectId StaticLockingCC::FirstConflict(const TxnState& state,
                                        TxnId txn) const {
  for (ObjectId obj : state.written) {
    if (!locks_.CanGrantNow(txn, obj, LockMode::kExclusive)) return obj;
  }
  for (ObjectId obj : state.read_only) {
    if (!locks_.CanGrantNow(txn, obj, LockMode::kShared)) return obj;
  }
  return -1;
}

void StaticLockingCC::Acquire(TxnState& state, TxnId txn) {
  auto take = [&](ObjectId obj, LockMode mode) {
    const LockRequestOutcome outcome =
        locks_.Request(txn, obj, mode, /*enqueue_on_conflict=*/false);
    CCSIM_CHECK(outcome == LockRequestOutcome::kGranted)
        << "declared lock on object " << obj << " not granted";
  };
  for (ObjectId obj : state.written) take(obj, LockMode::kExclusive);
  for (ObjectId obj : state.read_only) take(obj, LockMode::kShared);
  state.holding = true;
}

CCDecision StaticLockingCC::ReadRequest(TxnId txn, ObjectId obj) {
  (void)obj;
  CCSIM_CHECK(active_.At(txn).holding) << "access before predeclared grant";
  return CCDecision::kGranted;
}

CCDecision StaticLockingCC::WriteRequest(TxnId txn, ObjectId obj) {
  (void)obj;
  CCSIM_CHECK(active_.At(txn).holding) << "access before predeclared grant";
  return CCDecision::kGranted;
}

void StaticLockingCC::ScanWaiters() {
  size_t kept = 0;
  for (TxnId waiter : waiters_) {
    TxnState& state = active_.At(waiter);
    if (FirstConflict(state, waiter) < 0) {
      Acquire(state, waiter);
      callbacks_.on_granted(waiter);
    } else {
      waiters_[kept++] = waiter;
    }
  }
  waiters_.resize(kept);
}

void StaticLockingCC::Commit(TxnId txn) {
  const TxnState* state = active_.Find(txn);
  CCSIM_CHECK(state != nullptr);
  CCSIM_CHECK(state->holding) << "commit without locks";
  Finish(txn);
}

void StaticLockingCC::Abort(TxnId txn) {
  CCSIM_CHECK(active_.Contains(txn));
  std::erase(waiters_, txn);
  Finish(txn);
}

void StaticLockingCC::Finish(TxnId txn) {
  // Nobody queues in the lock manager, so its release grants nobody; the
  // waiters here are rescanned instead.
  const std::vector<TxnId>& granted = locks_.ReleaseAll(txn);
  CCSIM_CHECK(granted.empty());
  active_.Erase(txn);
  ScanWaiters();
}

bool StaticLockingCC::AuditTracksWaiter(TxnId txn) const {
  return std::find(waiters_.begin(), waiters_.end(), txn) != waiters_.end();
}

void StaticLockingCC::AuditCheck() const {
  if (auditor_ == nullptr) return;
  locks_.AuditCheck(auditor_, /*doomed=*/{});
  auto report = [this](TxnId txn, const std::string& detail) {
    auditor_->Report(AuditInvariant::kWaitsForConsistency, txn, detail);
  };
  // A holding transaction holds exactly its declared set, in the declared
  // modes; any other holds nothing.
  size_t tracked_locks = 0;
  active_.ForEach([&](TxnId txn, const TxnState& state) {
    const size_t held = locks_.NumHeld(txn);
    tracked_locks += held;
    size_t declared_held = 0;
    auto expect = [&](ObjectId obj, bool exclusive) {
      std::ostringstream detail;
      if (!locks_.HoldsAtLeast(txn, obj, LockMode::kShared)) {
        detail << "holding txn lacks its lock on object " << obj;
        report(txn, detail.str());
        return;
      }
      ++declared_held;
      if (locks_.HoldsAtLeast(txn, obj, LockMode::kExclusive) != exclusive) {
        detail << "holding txn holds object " << obj << " in the wrong mode";
        report(txn, detail.str());
      }
    };
    if (state.holding) {
      for (ObjectId obj : state.written) expect(obj, /*exclusive=*/true);
      for (ObjectId obj : state.read_only) expect(obj, /*exclusive=*/false);
    }
    if (held > declared_held) {
      std::ostringstream detail;
      detail << (state.holding ? "holding" : "non-holding") << " txn holds "
             << held - declared_held << " undeclared lock(s)";
      report(txn, detail.str());
    }
  });
  // Every lock belongs to a transaction tracked here; any other is never
  // released.
  if (locks_.held_locks() != tracked_locks) {
    std::ostringstream detail;
    detail << "lock manager holds " << locks_.held_locks()
           << " lock(s) but tracked transactions hold " << tracked_locks;
    report(kInvalidTxn, detail.str());
  }
  // Every waiter must be known and must not be holding.
  for (TxnId waiter : waiters_) {
    const TxnState* state = active_.Find(waiter);
    if (state == nullptr) {
      report(waiter, "waiter is not an active transaction");
    } else if (state->holding) {
      // All-or-nothing acquisition: waiting while holding is the deadlock
      // static locking exists to rule out.
      auditor_->Report(AuditInvariant::kPermanentBlock, waiter,
                       "waiter already holds its locks");
    }
  }
}

}  // namespace ccsim
