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
  state.written = writes;
  state.read_only.clear();
  for (ObjectId obj : reads) {
    if (std::find(writes.begin(), writes.end(), obj) == writes.end()) {
      state.read_only.push_back(obj);
    }
  }
  if (CanAcquire(state, txn)) {
    Acquire(state, txn);
    return CCDecision::kGranted;
  }
  ++stats_.lock_conflicts;
  if (callbacks_.blame) {
    // First declared object with a conflicting holder, mirroring the
    // CanAcquire walk; among readers the smallest id keeps the attribution
    // deterministic.
    TxnId holder = kInvalidTxn;
    ObjectId conflict_obj = 0;
    for (ObjectId obj : state.written) {
      const ObjectLocks* locks = objects_.Find(obj);
      if (locks == nullptr) continue;
      if (locks->writer != kInvalidTxn && locks->writer != txn) {
        holder = locks->writer;
        conflict_obj = obj;
        break;
      }
      for (TxnId reader : locks->readers) {
        if (reader == txn) continue;
        if (holder == kInvalidTxn || reader < holder) holder = reader;
      }
      if (holder != kInvalidTxn) {
        conflict_obj = obj;
        break;
      }
    }
    if (holder == kInvalidTxn) {
      for (ObjectId obj : state.read_only) {
        const ObjectLocks* locks = objects_.Find(obj);
        if (locks == nullptr) continue;
        if (locks->writer != kInvalidTxn && locks->writer != txn) {
          holder = locks->writer;
          conflict_obj = obj;
          break;
        }
      }
    }
    callbacks_.on_blame(txn, holder, conflict_obj, BlameKind::kBlock);
  }
  waiters_.push_back(txn);
  return CCDecision::kBlocked;
}

bool StaticLockingCC::CanAcquire(const TxnState& state, TxnId txn) const {
  for (ObjectId obj : state.written) {
    const ObjectLocks* locks = objects_.Find(obj);
    if (locks == nullptr) continue;
    // An exclusive lock needs the object completely free of others.
    if (locks->writer != kInvalidTxn && locks->writer != txn) {
      return false;
    }
    for (TxnId reader : locks->readers) {
      if (reader != txn) return false;
    }
  }
  for (ObjectId obj : state.read_only) {
    const ObjectLocks* locks = objects_.Find(obj);
    if (locks == nullptr) continue;
    if (locks->writer != kInvalidTxn && locks->writer != txn) {
      return false;
    }
  }
  return true;
}

void StaticLockingCC::Acquire(TxnState& state, TxnId txn) {
  for (ObjectId obj : state.written) {
    ObjectLocks& locks = objects_.Touch(obj);
    CCSIM_CHECK_EQ(locks.writer, kInvalidTxn);
    if (locks.empty()) ++occupied_count_;
    locks.writer = txn;
    if (auditor_ != nullptr) {
      auditor_->OnLockAcquired(txn, obj, /*exclusive=*/true);
    }
  }
  for (ObjectId obj : state.read_only) {
    ObjectLocks& locks = objects_.Touch(obj);
    if (locks.empty()) ++occupied_count_;
    locks.readers.insert(txn);
    if (auditor_ != nullptr) {
      auditor_->OnLockAcquired(txn, obj, /*exclusive=*/false);
    }
  }
  state.holding = true;
}

void StaticLockingCC::Release(TxnState& state, TxnId txn) {
  if (!state.holding) return;
  if (auditor_ != nullptr) auditor_->OnLockReleased(txn);
  for (ObjectId obj : state.written) {
    ObjectLocks* locks = objects_.Find(obj);
    CCSIM_CHECK(locks != nullptr && locks->writer == txn);
    locks->writer = kInvalidTxn;
    if (locks->empty()) --occupied_count_;
  }
  for (ObjectId obj : state.read_only) {
    ObjectLocks* locks = objects_.Find(obj);
    CCSIM_CHECK(locks != nullptr);
    locks->readers.erase(txn);
    if (locks->empty()) --occupied_count_;
  }
  state.holding = false;
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
  for (auto it = waiters_.begin(); it != waiters_.end();) {
    TxnState& state = active_.At(*it);
    if (CanAcquire(state, *it)) {
      Acquire(state, *it);
      TxnId granted = *it;
      it = waiters_.erase(it);
      callbacks_.on_granted(granted);
    } else {
      ++it;
    }
  }
}

void StaticLockingCC::Commit(TxnId txn) {
  TxnState* state = active_.Find(txn);
  CCSIM_CHECK(state != nullptr);
  CCSIM_CHECK(state->holding) << "commit without locks";
  Release(*state, txn);
  active_.Erase(txn);
  ScanWaiters();
}

void StaticLockingCC::Abort(TxnId txn) {
  TxnState* state = active_.Find(txn);
  CCSIM_CHECK(state != nullptr);
  waiters_.remove(txn);
  Release(*state, txn);
  active_.Erase(txn);
  ScanWaiters();
}

bool StaticLockingCC::AuditTracksWaiter(TxnId txn) const {
  return std::find(waiters_.begin(), waiters_.end(), txn) != waiters_.end();
}

void StaticLockingCC::AuditCheck() const {
  if (auditor_ == nullptr) return;
  auto report = [this](TxnId txn, const std::string& detail) {
    auditor_->Report(AuditInvariant::kWaitsForConsistency, txn, detail);
  };
  // active_ -> objects_ direction: a holding transaction's declared set must
  // be registered exactly; a waiter must hold nothing.
  active_.ForEach([&](TxnId txn, const TxnState& state) {
    for (ObjectId obj : state.written) {
      const ObjectLocks* locks = objects_.Find(obj);
      bool writes = locks != nullptr && locks->writer == txn;
      if (state.holding != writes) {
        std::ostringstream detail;
        detail << (state.holding ? "holding txn not registered as writer of "
                                 : "non-holding txn registered as writer of ")
               << "object " << obj;
        report(txn, detail.str());
      }
    }
    for (ObjectId obj : state.read_only) {
      const ObjectLocks* locks = objects_.Find(obj);
      bool reads = locks != nullptr && locks->readers.count(txn) > 0;
      if (state.holding != reads) {
        std::ostringstream detail;
        detail << (state.holding ? "holding txn not registered as reader of "
                                 : "non-holding txn registered as reader of ")
               << "object " << obj;
        report(txn, detail.str());
      }
    }
  });
  // objects_ -> active_ direction, plus the compatibility matrix (a writer
  // excludes every other holder). Empty dense slots are logically absent.
  size_t occupied = 0;
  objects_.ForEachTouched([&](ObjectId obj, const ObjectLocks& locks) {
    if (locks.empty()) return;
    ++occupied;
    if (locks.writer != kInvalidTxn) {
      if (!active_.Contains(locks.writer)) {
        std::ostringstream detail;
        detail << "object " << obj << " written by an unknown transaction";
        report(locks.writer, detail.str());
      }
      for (TxnId reader : locks.readers) {
        if (reader != locks.writer) {
          std::ostringstream detail;
          detail << "object " << obj << " has reader " << reader
                 << " alongside exclusive writer " << locks.writer;
          report(reader, detail.str());
        }
      }
    }
    for (TxnId reader : locks.readers) {
      if (!active_.Contains(reader)) {
        std::ostringstream detail;
        detail << "object " << obj << " read-locked by an unknown transaction";
        report(reader, detail.str());
      }
    }
  });
  if (occupied != occupied_count_) {
    std::ostringstream detail;
    detail << "occupancy counter " << occupied_count_ << " but " << occupied
           << " object(s) hold locks";
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
