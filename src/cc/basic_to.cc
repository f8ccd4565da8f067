#include "cc/basic_to.h"

#include <algorithm>
#include <sstream>

#include "audit/audit.h"
#include "util/check.h"

namespace ccsim {

void BasicTimestampOrderingCC::OnBegin(TxnId txn, SimTime first_start,
                                       SimTime incarnation_start) {
  (void)first_start;
  (void)incarnation_start;
  TxnState& state = active_.Upsert(txn);
  state.Recycle();  // Fresh incarnation state; buffers keep their capacity.
  state.ts = next_ts_++;  // Fresh timestamp per incarnation (standard BTO).
}

CCDecision BasicTimestampOrderingCC::ReadRequest(TxnId txn, ObjectId obj) {
  TxnState& state = active_.At(txn);
  state.waiting_on.reset();
  ObjectState& object = objects_.Touch(obj);

  if (state.ts < object.wts) {
    // A newer write already committed; this read is too late.
    ++stats_.timestamp_rejections;
    callbacks_.on_blame(txn, object.last_writer, obj, BlameKind::kTimestamp);
    return CCDecision::kRestart;
  }
  if (object.pending_writer != kInvalidTxn && object.pending_ts < state.ts &&
      object.pending_writer != txn) {
    // An older write is in flight; its value is the one this read must see.
    ++stats_.lock_conflicts;
    callbacks_.on_blame(txn, object.pending_writer, obj, BlameKind::kBlock);
    object.waiters.push_back(txn);
    state.waiting_on = obj;
    return CCDecision::kBlocked;
  }
  if (state.ts >= object.rts) {
    object.rts = state.ts;
    object.last_reader = txn;
  }
  return CCDecision::kGranted;
}

CCDecision BasicTimestampOrderingCC::WriteRequest(TxnId txn, ObjectId obj) {
  TxnState& state = active_.At(txn);
  state.waiting_on.reset();
  ObjectState& object = objects_.Touch(obj);

  if (state.ts < object.rts || state.ts < object.wts) {
    // Someone with a larger timestamp already read/wrote the value this
    // write would supersede.
    ++stats_.timestamp_rejections;
    callbacks_.on_blame(txn,
                        state.ts < object.rts ? object.last_reader
                                              : object.last_writer,
                        obj, BlameKind::kTimestamp);
    return CCDecision::kRestart;
  }
  if (object.pending_writer == txn) {
    return CCDecision::kGranted;  // Idempotent re-request.
  }
  if (object.pending_writer != kInvalidTxn) {
    if (object.pending_ts < state.ts) {
      // Writes publish in timestamp order: wait for the older write.
      ++stats_.lock_conflicts;
      callbacks_.on_blame(txn, object.pending_writer, obj, BlameKind::kBlock);
      object.waiters.push_back(txn);
      state.waiting_on = obj;
      return CCDecision::kBlocked;
    }
    // A newer write is already pending; ordering this one before it would
    // require buffering multiple versions — restart instead (conservative).
    ++stats_.timestamp_rejections;
    callbacks_.on_blame(txn, object.pending_writer, obj, BlameKind::kTimestamp);
    return CCDecision::kRestart;
  }
  object.pending_writer = txn;
  object.pending_ts = state.ts;
  state.prewrites.push_back(obj);
  return CCDecision::kGranted;
}

void BasicTimestampOrderingCC::ResolvePrewrites(TxnState& state, bool publish) {
  for (ObjectId obj : state.prewrites) {
    ObjectState* object = objects_.Find(obj);
    CCSIM_CHECK(object != nullptr);
    CCSIM_CHECK_NE(object->pending_writer, kInvalidTxn);
    if (publish && object->pending_ts >= object->wts) {
      object->wts = object->pending_ts;
      object->last_writer = object->pending_writer;
    }
    object->pending_writer = kInvalidTxn;
    object->pending_ts = 0;
    // Wake everyone; each re-issues its request and re-runs the checks.
    // Smallest timestamps first so the next pending writer is the oldest.
    // Swapping with the scratch buffer (instead of moving to a temporary)
    // keeps both vectors' capacity in circulation: no steady-state churn.
    waiters_scratch_.clear();
    waiters_scratch_.swap(object->waiters);
    std::sort(waiters_scratch_.begin(), waiters_scratch_.end(),
              [this](TxnId a, TxnId b) {
                return active_.At(a).ts < active_.At(b).ts;
              });
    for (TxnId waiter : waiters_scratch_) {
      active_.At(waiter).waiting_on.reset();
      callbacks_.on_granted(waiter);
    }
  }
  state.prewrites.clear();
}

void BasicTimestampOrderingCC::RemoveFromWaiters(TxnId txn, TxnState& state) {
  if (!state.waiting_on.has_value()) return;
  ObjectState* object = objects_.Find(*state.waiting_on);
  CCSIM_CHECK(object != nullptr);
  object->waiters.erase(
      std::remove(object->waiters.begin(), object->waiters.end(), txn),
      object->waiters.end());
  state.waiting_on.reset();
}

void BasicTimestampOrderingCC::Commit(TxnId txn) {
  TxnState* state = active_.Find(txn);
  CCSIM_CHECK(state != nullptr);
  CCSIM_CHECK(!state->waiting_on.has_value()) << "committing while waiting";
  ResolvePrewrites(*state, /*publish=*/true);
  active_.Erase(txn);
}

void BasicTimestampOrderingCC::Abort(TxnId txn) {
  TxnState* state = active_.Find(txn);
  CCSIM_CHECK(state != nullptr);
  RemoveFromWaiters(txn, *state);
  ResolvePrewrites(*state, /*publish=*/false);
  active_.Erase(txn);
}

bool BasicTimestampOrderingCC::AuditTracksWaiter(TxnId txn) const {
  const TxnState* state = active_.Find(txn);
  if (state == nullptr || !state->waiting_on.has_value()) return false;
  const ObjectState* object = objects_.Find(*state->waiting_on);
  if (object == nullptr) return false;
  const std::vector<TxnId>& waiters = object->waiters;
  return std::find(waiters.begin(), waiters.end(), txn) != waiters.end();
}

void BasicTimestampOrderingCC::AuditCheck() const {
  if (auditor_ == nullptr) return;
  auto report = [this](TxnId txn, const std::string& detail) {
    auditor_->Report(AuditInvariant::kWaitsForConsistency, txn, detail);
  };
  objects_.ForEachTouched([&](ObjectId obj, const ObjectState& object) {
    if (object.pending_writer != kInvalidTxn) {
      const TxnState* writer = active_.Find(object.pending_writer);
      if (writer == nullptr) {
        std::ostringstream detail;
        detail << "object " << obj << " has a pending write by an inactive txn";
        report(object.pending_writer, detail.str());
      } else {
        if (writer->ts != object.pending_ts) {
          std::ostringstream detail;
          detail << "object " << obj << " pending ts " << object.pending_ts
                 << " != writer ts " << writer->ts;
          report(object.pending_writer, detail.str());
        }
        const std::vector<ObjectId>& prewrites = writer->prewrites;
        if (std::find(prewrites.begin(), prewrites.end(), obj) ==
            prewrites.end()) {
          std::ostringstream detail;
          detail << "pending writer of object " << obj
                 << " does not list it among its prewrites";
          report(object.pending_writer, detail.str());
        }
      }
    } else if (!object.waiters.empty()) {
      // Waiters only ever wait for a pending write; with none in flight
      // nothing will ever wake them.
      std::ostringstream detail;
      detail << object.waiters.size() << " waiter(s) on object " << obj
             << " with no pending write to resolve";
      auditor_->Report(AuditInvariant::kPermanentBlock, object.waiters.front(),
                       detail.str());
    }
    for (TxnId waiter : object.waiters) {
      const TxnState* waiter_state = active_.Find(waiter);
      if (waiter_state == nullptr) {
        std::ostringstream detail;
        detail << "inactive txn among waiters of object " << obj;
        report(waiter, detail.str());
        continue;
      }
      if (!waiter_state->waiting_on.has_value() ||
          *waiter_state->waiting_on != obj) {
        std::ostringstream detail;
        detail << "waiter on object " << obj
               << " does not record it as its waiting_on";
        report(waiter, detail.str());
      }
      // Waits point only at strictly older pending writes, which keeps the
      // wait graph acyclic (the algorithm's deadlock-freedom argument).
      if (object.pending_writer != kInvalidTxn &&
          waiter_state->ts <= object.pending_ts) {
        std::ostringstream detail;
        detail << "waiter ts " << waiter_state->ts
               << " not younger than pending ts " << object.pending_ts
               << " on object " << obj;
        auditor_->Report(AuditInvariant::kPermanentBlock, waiter, detail.str());
      }
    }
  });
  // txn -> object direction.
  active_.ForEach([&](TxnId txn, const TxnState& state) {
    for (ObjectId obj : state.prewrites) {
      const ObjectState* object = objects_.Find(obj);
      if (object == nullptr || object->pending_writer != txn) {
        std::ostringstream detail;
        detail << "prewrite of object " << obj
               << " has no matching pending record";
        report(txn, detail.str());
      }
    }
  });
}

}  // namespace ccsim
