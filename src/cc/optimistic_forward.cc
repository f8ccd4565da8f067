#include "cc/optimistic_forward.h"

#include <algorithm>
#include <sstream>

#include "audit/audit.h"
#include "util/check.h"

namespace ccsim {

void ForwardOptimisticCC::OnBegin(TxnId txn, SimTime first_start,
                                  SimTime incarnation_start) {
  (void)first_start;
  (void)incarnation_start;
  active_.Upsert(txn).Recycle();  // Fresh state; buffers keep their capacity.
}

CCDecision ForwardOptimisticCC::ReadRequest(TxnId txn, ObjectId obj) {
  TxnState& state = active_.At(txn);
  state.waiting_on.reset();
  const FlushClaim* flushing = flushing_.Find(obj);
  if (flushing != nullptr && flushing->count > 0) {
    // The object is mid-flush by a validated transaction; reading now would
    // observe the pre-image with no later check to catch it. Wait out the
    // flush (it completes at the flusher's commit).
    ++stats_.lock_conflicts;
    callbacks_.on_blame(txn, flushing->writer, obj, BlameKind::kBlock);
    waiters_.Touch(obj).push_back(txn);
    state.waiting_on = obj;
    return CCDecision::kBlocked;
  }
  state.reads.insert(obj);
  return CCDecision::kGranted;
}

CCDecision ForwardOptimisticCC::WriteRequest(TxnId txn, ObjectId obj) {
  TxnState& state = active_.At(txn);
  state.waiting_on.reset();
  // Written objects are also read in this model (and under static write
  // locking the engine declares the write *instead of* the read), so a
  // write declaration is subject to the same mid-flush rule as a read:
  // proceeding now would observe the pre-image with no later check to
  // catch it — the flusher's forward validation already ran and cannot
  // have wounded us.
  const FlushClaim* flushing = flushing_.Find(obj);
  if (flushing != nullptr && flushing->count > 0) {
    ++stats_.lock_conflicts;
    callbacks_.on_blame(txn, flushing->writer, obj, BlameKind::kBlock);
    waiters_.Touch(obj).push_back(txn);
    state.waiting_on = obj;
    return CCDecision::kBlocked;
  }
  state.reads.insert(obj);
  for (ObjectId existing : state.writes) {
    if (existing == obj) return CCDecision::kGranted;
  }
  state.writes.push_back(obj);
  return CCDecision::kGranted;
}

bool ForwardOptimisticCC::Validate(TxnId txn) {
  TxnState& state = active_.At(txn);
  CCSIM_CHECK(!state.waiting_on.has_value()) << "validating while waiting";
  // Defensive: a read admitted before an overlapping flush began means an
  // earlier validator serialized ahead of us on an object we already read.
  for (ObjectId obj : state.reads) {
    const FlushClaim* flushing = flushing_.Find(obj);
    if (flushing != nullptr && flushing->count > 0) {
      ++stats_.validation_failures;
      callbacks_.on_blame(txn, flushing->writer, obj, BlameKind::kValidation);
      return false;
    }
  }
  // Forward check: kill every still-running transaction that has read
  // anything we are about to overwrite. Validated (flushing) transactions
  // are never wounded — they serialized before us; their reads of our write
  // set saw the pre-image, which is consistent with that order. Visits run
  // in slot order (see header): deterministic wound order.
  for (ObjectId obj : state.writes) {
    active_.ForEach([&](TxnId other_id, TxnState& other) {
      if (other_id == txn || other.validated || other.doomed) return;
      if (other.reads.count(obj) > 0) {
        other.doomed = true;
        ++stats_.wounds;
        // Forward validation sacrifices the reader in the validator's favor.
        callbacks_.on_blame(other_id, txn, obj, BlameKind::kWound);
        callbacks_.on_wound(other_id);
      }
    });
  }
  state.validated = true;
  for (ObjectId obj : state.writes) {
    FlushClaim& claim = flushing_.Touch(obj);
    ++claim.count;
    claim.writer = txn;
  }
  return true;
}

void ForwardOptimisticCC::ReleaseFlushClaims(TxnState& state) {
  if (!state.validated) return;
  for (ObjectId obj : state.writes) {
    FlushClaim* flushing = flushing_.Find(obj);
    CCSIM_CHECK(flushing != nullptr && flushing->count > 0);
    if (--flushing->count > 0) continue;
    std::vector<TxnId>* waiting = waiters_.Find(obj);
    if (waiting == nullptr || waiting->empty()) continue;
    // Swap with the scratch buffer so both vectors' capacity stays in
    // circulation: no steady-state churn.
    woken_scratch_.clear();
    woken_scratch_.swap(*waiting);
    for (TxnId reader : woken_scratch_) {
      active_.At(reader).waiting_on.reset();
      callbacks_.on_granted(reader);
    }
  }
}

void ForwardOptimisticCC::RemoveFromWaiters(TxnId txn, TxnState& state) {
  if (!state.waiting_on.has_value()) return;
  std::vector<TxnId>* waiting = waiters_.Find(*state.waiting_on);
  if (waiting != nullptr) {
    waiting->erase(std::remove(waiting->begin(), waiting->end(), txn),
                   waiting->end());
  }
  state.waiting_on.reset();
}

void ForwardOptimisticCC::Commit(TxnId txn) {
  TxnState* state = active_.Find(txn);
  CCSIM_CHECK(state != nullptr);
  CCSIM_CHECK(state->validated) << "commit without validation";
  CCSIM_CHECK(!state->doomed) << "doomed txn reached commit";
  ReleaseFlushClaims(*state);
  active_.Erase(txn);
}

void ForwardOptimisticCC::Abort(TxnId txn) {
  TxnState* state = active_.Find(txn);
  CCSIM_CHECK(state != nullptr);
  RemoveFromWaiters(txn, *state);
  ReleaseFlushClaims(*state);
  active_.Erase(txn);
}

bool ForwardOptimisticCC::AuditTracksWaiter(TxnId txn) const {
  const TxnState* state = active_.Find(txn);
  if (state == nullptr || !state->waiting_on.has_value()) return false;
  const std::vector<TxnId>* waiting = waiters_.Find(*state->waiting_on);
  if (waiting == nullptr) return false;
  return std::find(waiting->begin(), waiting->end(), txn) != waiting->end();
}

void ForwardOptimisticCC::AuditCheck() const {
  if (auditor_ == nullptr) return;
  auto report = [this](TxnId txn, const std::string& detail) {
    auditor_->Report(AuditInvariant::kWaitsForConsistency, txn, detail);
  };
  audit_writes_.clear();
  active_.ForEach([&](TxnId txn, const TxnState& state) {
    (void)txn;
    if (!state.validated) return;
    audit_writes_.insert(audit_writes_.end(), state.writes.begin(),
                         state.writes.end());
  });
  AuditFlushClaims(auditor_, flushing_, &audit_writes_);
  // Waiters wait only on objects actually mid-flush; anything else never
  // gets a wake-up.
  waiters_.ForEachTouched([&](ObjectId obj, const std::vector<TxnId>& list) {
    if (list.empty()) return;  // Drained slot: logically absent.
    const FlushClaim* claim = flushing_.Find(obj);
    if (claim == nullptr || claim->count == 0) {
      std::ostringstream detail;
      detail << list.size() << " waiter(s) on object " << obj
             << " which is not being flushed";
      auditor_->Report(AuditInvariant::kPermanentBlock, list.front(),
                       detail.str());
    }
    for (TxnId waiter : list) {
      const TxnState* state = active_.Find(waiter);
      if (state == nullptr) {
        std::ostringstream detail;
        detail << "inactive txn among waiters of object " << obj;
        report(waiter, detail.str());
      } else if (!state->waiting_on.has_value() ||
                 *state->waiting_on != obj) {
        std::ostringstream detail;
        detail << "waiter on object " << obj
               << " does not record it as its waiting_on";
        report(waiter, detail.str());
      }
    }
  });
}

}  // namespace ccsim
