#include "cc/mvto.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "audit/audit.h"
#include "util/check.h"

namespace ccsim {

void MultiversionTimestampOrderingCC::OnBegin(TxnId txn, SimTime first_start,
                                              SimTime incarnation_start) {
  (void)first_start;
  (void)incarnation_start;
  TxnState& state = active_.Upsert(txn);
  state.Recycle();  // Fresh incarnation state; buffers keep their capacity.
  state.ts = next_ts_++;
}

MultiversionTimestampOrderingCC::Version&
MultiversionTimestampOrderingCC::VersionFor(ObjectId obj, uint64_t ts) {
  ObjectState& object = objects_.Touch(obj);
  if (object.versions.empty()) {
    object.versions.push_back(Version{0, kInvalidTxn, 0});
  }
  // Versions are sorted by wts; find the last with wts <= ts. The initial
  // version (wts 0) guarantees one exists.
  auto it = std::upper_bound(
      object.versions.begin(), object.versions.end(), ts,
      [](uint64_t t, const Version& v) { return t < v.wts; });
  CCSIM_CHECK(it != object.versions.begin());
  return *(it - 1);
}

CCDecision MultiversionTimestampOrderingCC::ReadRequest(TxnId txn,
                                                        ObjectId obj) {
  TxnState& state = active_.At(txn);
  state.waiting_on.reset();
  Version& version = VersionFor(obj, state.ts);
  ObjectState& object = *objects_.Find(obj);

  // If an older pending write would create the version this read must
  // actually observe, wait for it to resolve.
  for (const PendingWrite& pending : object.pending) {
    if (pending.writer != txn && pending.ts > version.wts &&
        pending.ts < state.ts) {
      ++stats_.lock_conflicts;
      callbacks_.on_blame(txn, pending.writer, obj, BlameKind::kBlock);
      object.waiters.push_back(txn);
      state.waiting_on = obj;
      return CCDecision::kBlocked;
    }
  }
  if (state.ts >= version.max_rts) {
    version.max_rts = state.ts;
    version.max_reader = txn;
  }
  callbacks_.on_version_read(txn, obj, version.writer);
  return CCDecision::kGranted;
}

CCDecision MultiversionTimestampOrderingCC::WriteRequest(TxnId txn,
                                                         ObjectId obj) {
  TxnState& state = active_.At(txn);
  state.waiting_on.reset();
  Version& version = VersionFor(obj, state.ts);
  ObjectState& object = *objects_.Find(obj);

  if (version.max_rts > state.ts) {
    // A later reader already observed the version this write would follow;
    // inserting the write now would invalidate that read.
    ++stats_.timestamp_rejections;
    callbacks_.on_blame(txn, version.max_reader, obj, BlameKind::kTimestamp);
    return CCDecision::kRestart;
  }
  for (const PendingWrite& pending : object.pending) {
    if (pending.writer == txn) return CCDecision::kGranted;  // Idempotent.
  }
  object.pending.push_back(PendingWrite{state.ts, txn});
  state.prewrites.push_back(obj);
  return CCDecision::kGranted;
}

void MultiversionTimestampOrderingCC::ResolvePrewrites(TxnState& state,
                                                       bool publish) {
  for (ObjectId obj : state.prewrites) {
    ObjectState* found = objects_.Find(obj);
    CCSIM_CHECK(found != nullptr);
    ObjectState& object = *found;
    auto pending = std::find_if(
        object.pending.begin(), object.pending.end(),
        [&](const PendingWrite& p) { return p.ts == state.ts; });
    CCSIM_CHECK(pending != object.pending.end());
    if (publish) {
      Version version{pending->ts, pending->writer, 0};
      auto pos = std::upper_bound(
          object.versions.begin(), object.versions.end(), version.wts,
          [](uint64_t t, const Version& v) { return t < v.wts; });
      object.versions.insert(pos, version);
      if (object.versions.size() > kGcThreshold) CollectGarbage(object);
    }
    object.pending.erase(pending);

    // Swap with the scratch buffer (not a temporary) so both vectors'
    // capacity stays in circulation: no steady-state churn.
    waiters_scratch_.clear();
    waiters_scratch_.swap(object.waiters);
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

void MultiversionTimestampOrderingCC::RemoveFromWaiters(TxnId txn,
                                                        TxnState& state) {
  if (!state.waiting_on.has_value()) return;
  ObjectState* found = objects_.Find(*state.waiting_on);
  CCSIM_CHECK(found != nullptr);
  ObjectState& object = *found;
  object.waiters.erase(
      std::remove(object.waiters.begin(), object.waiters.end(), txn),
      object.waiters.end());
  state.waiting_on.reset();
}

void MultiversionTimestampOrderingCC::CollectGarbage(ObjectState& object) {
  uint64_t min_active = std::numeric_limits<uint64_t>::max();
  active_.ForEach([&](TxnId txn, const TxnState& state) {
    (void)txn;
    min_active = std::min(min_active, state.ts);
  });
  // The latest version with wts <= min_active must stay (someone may still
  // read it); everything older is unreachable.
  auto it = std::upper_bound(
      object.versions.begin(), object.versions.end(), min_active,
      [](uint64_t t, const Version& v) { return t < v.wts; });
  if (it == object.versions.begin()) return;
  object.versions.erase(object.versions.begin(), it - 1);
}

void MultiversionTimestampOrderingCC::Commit(TxnId txn) {
  TxnState* state = active_.Find(txn);
  CCSIM_CHECK(state != nullptr);
  CCSIM_CHECK(!state->waiting_on.has_value()) << "committing while waiting";
  ResolvePrewrites(*state, /*publish=*/true);
  active_.Erase(txn);
}

void MultiversionTimestampOrderingCC::Abort(TxnId txn) {
  TxnState* state = active_.Find(txn);
  CCSIM_CHECK(state != nullptr);
  RemoveFromWaiters(txn, *state);
  ResolvePrewrites(*state, /*publish=*/false);
  active_.Erase(txn);
}

size_t MultiversionTimestampOrderingCC::VersionCount(ObjectId obj) const {
  const ObjectState* object = objects_.Find(obj);
  return object == nullptr ? 0 : object->versions.size();
}

bool MultiversionTimestampOrderingCC::AuditTracksWaiter(TxnId txn) const {
  const TxnState* state = active_.Find(txn);
  if (state == nullptr || !state->waiting_on.has_value()) return false;
  const ObjectState* object = objects_.Find(*state->waiting_on);
  if (object == nullptr) return false;
  const std::vector<TxnId>& waiters = object->waiters;
  return std::find(waiters.begin(), waiters.end(), txn) != waiters.end();
}

void MultiversionTimestampOrderingCC::AuditCheck() const {
  if (auditor_ == nullptr) return;
  auto report = [this](TxnId txn, const std::string& detail) {
    auditor_->Report(AuditInvariant::kWaitsForConsistency, txn, detail);
  };
  objects_.ForEachTouched([&](ObjectId obj, const ObjectState& object) {
    for (size_t i = 1; i < object.versions.size(); ++i) {
      if (object.versions[i - 1].wts >= object.versions[i].wts) {
        std::ostringstream detail;
        detail << "versions of object " << obj
               << " are not strictly ordered by wts";
        report(kInvalidTxn, detail.str());
        break;
      }
    }
    for (const PendingWrite& pending : object.pending) {
      const TxnState* writer = active_.Find(pending.writer);
      if (writer == nullptr) {
        std::ostringstream detail;
        detail << "object " << obj << " has a pending version by an inactive txn";
        report(pending.writer, detail.str());
        continue;
      }
      if (writer->ts != pending.ts) {
        std::ostringstream detail;
        detail << "object " << obj << " pending ts " << pending.ts
               << " != writer ts " << writer->ts;
        report(pending.writer, detail.str());
      }
      const std::vector<ObjectId>& prewrites = writer->prewrites;
      if (std::find(prewrites.begin(), prewrites.end(), obj) ==
          prewrites.end()) {
        std::ostringstream detail;
        detail << "pending writer of object " << obj
               << " does not list it among its prewrites";
        report(pending.writer, detail.str());
      }
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
        continue;
      }
      // A reader waits only for a strictly older pending version; if none
      // exists, nothing will ever wake it (waits stay acyclic because every
      // wait edge points from younger to older).
      bool has_older_pending = false;
      for (const PendingWrite& pending : object.pending) {
        has_older_pending |= pending.ts < waiter_state->ts;
      }
      if (!has_older_pending) {
        std::ostringstream detail;
        detail << "waiter ts " << waiter_state->ts << " on object " << obj
               << " has no older pending version to wait for";
        auditor_->Report(AuditInvariant::kPermanentBlock, waiter, detail.str());
      }
    }
  });
  active_.ForEach([&](TxnId txn, const TxnState& state) {
    for (ObjectId obj : state.prewrites) {
      const ObjectState* object = objects_.Find(obj);
      bool pending_found = false;
      if (object != nullptr) {
        for (const PendingWrite& pending : object->pending) {
          pending_found |= pending.writer == txn;
        }
      }
      if (!pending_found) {
        std::ostringstream detail;
        detail << "prewrite of object " << obj
               << " has no matching pending version";
        report(txn, detail.str());
      }
    }
  });
}

}  // namespace ccsim
