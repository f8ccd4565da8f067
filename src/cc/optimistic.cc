#include "cc/optimistic.h"

#include <algorithm>
#include <sstream>

#include "audit/audit.h"
#include "util/check.h"

namespace ccsim {

void OptimisticCC::OnBegin(TxnId txn, SimTime first_start,
                           SimTime incarnation_start) {
  (void)first_start;
  TxnState& state = active_.Upsert(txn);
  state.Recycle();  // Fresh incarnation state; buffers keep their capacity.
  state.start = incarnation_start;
}

namespace {

void InsertUnique(std::vector<ObjectId>& set, ObjectId obj) {
  if (std::find(set.begin(), set.end(), obj) == set.end()) set.push_back(obj);
}

}  // namespace

CCDecision OptimisticCC::ReadRequest(TxnId txn, ObjectId obj) {
  InsertUnique(active_.At(txn).reads, obj);
  return CCDecision::kGranted;
}

CCDecision OptimisticCC::WriteRequest(TxnId txn, ObjectId obj) {
  TxnState& state = active_.At(txn);
  // In this model every written object is also read (and under static write
  // locking the engine declares the write *instead of* the read), so a write
  // declaration implies readset membership for validation purposes.
  InsertUnique(state.reads, obj);
  // The write set is a subset of the read set: give it the read buffer's
  // capacity, so a recycled slot stops growing as soon as its reads do.
  if (state.writes.capacity() < state.reads.capacity()) {
    state.writes.reserve(state.reads.capacity());
  }
  InsertUnique(state.writes, obj);
  return CCDecision::kGranted;
}

bool OptimisticCC::Validate(TxnId txn) {
  TxnState& state = active_.At(txn);
  for (ObjectId obj : state.reads) {
    const CommittedWrite* committed = committed_writes_.Find(obj);
    if (committed != nullptr && committed->time > state.start) {
      ++stats_.validation_failures;
      callbacks_.on_blame(txn, committed->writer, obj, BlameKind::kValidation);
      return false;
    }
    const FlushClaim* flushing = flushing_.Find(obj);
    if (flushing != nullptr && flushing->count > 0) {
      // A validated transaction is writing this object; it will commit before
      // us, inside our lifetime.
      ++stats_.validation_failures;
      callbacks_.on_blame(txn, flushing->writer, obj, BlameKind::kValidation);
      return false;
    }
  }
  // Validation succeeded: claim the write set for the flush phase so later
  // validators see the in-flight writes.
  state.validated = true;
  for (ObjectId obj : state.writes) {
    FlushClaim& claim = flushing_.Touch(obj);
    ++claim.count;
    claim.writer = txn;
  }
  return true;
}

void OptimisticCC::Commit(TxnId txn) {
  TxnState* state = active_.Find(txn);
  CCSIM_CHECK(state != nullptr);
  CCSIM_CHECK(state->validated) << "commit without successful validation";
  SimTime now = callbacks_.now();
  for (ObjectId obj : state->writes) {
    committed_writes_.Touch(obj) = CommittedWrite{now, txn};
    FlushClaim* flushing = flushing_.Find(obj);
    CCSIM_CHECK(flushing != nullptr && flushing->count > 0);
    --flushing->count;  // A drained claim (count 0) reads as absent.
  }
  active_.Erase(txn);
}

void OptimisticCC::Abort(TxnId txn) {
  TxnState* state = active_.Find(txn);
  CCSIM_CHECK(state != nullptr);
  // Aborts only happen at validation time, before the write set is claimed —
  // but release any claim defensively if an engine extension aborts later.
  if (state->validated) {
    for (ObjectId obj : state->writes) {
      FlushClaim* flushing = flushing_.Find(obj);
      CCSIM_CHECK(flushing != nullptr && flushing->count > 0);
      --flushing->count;
    }
  }
  active_.Erase(txn);
}

SimTime OptimisticCC::LastCommittedWrite(ObjectId obj) const {
  const CommittedWrite* committed = committed_writes_.Find(obj);
  return committed == nullptr ? -1 : committed->time;
}

void AuditFlushClaims(Auditor* auditor, const GranuleTable<FlushClaim>& claims,
                      std::vector<ObjectId>* validated_writes) {
  std::vector<ObjectId>& writes = *validated_writes;
  std::sort(writes.begin(), writes.end());
  claims.ForEachTouched([&](ObjectId obj, const FlushClaim& claim) {
    if (claim.count == 0) return;  // Dormant slot: logically absent.
    const auto [first, last] =
        std::equal_range(writes.begin(), writes.end(), obj);
    if (claim.count != last - first) {
      std::ostringstream detail;
      detail << "object " << obj << " has " << claim.count
             << " flush claim(s) but " << last - first
             << " validated writer(s)";
      auditor->Report(AuditInvariant::kWaitsForConsistency, kInvalidTxn,
                      detail.str());
    }
  });
  for (size_t i = 0; i < writes.size(); ++i) {
    if (i > 0 && writes[i] == writes[i - 1]) continue;
    const FlushClaim* claim = claims.Find(writes[i]);
    if (claim == nullptr || claim->count == 0) {
      std::ostringstream detail;
      detail << "validated write of object " << writes[i]
             << " holds no flush claim";
      auditor->Report(AuditInvariant::kWaitsForConsistency, kInvalidTxn,
                      detail.str());
    }
  }
}

void OptimisticCC::AuditCheck() const {
  if (auditor_ == nullptr) return;
  audit_writes_.clear();
  active_.ForEach([&](TxnId txn, const TxnState& state) {
    (void)txn;
    if (!state.validated) return;
    audit_writes_.insert(audit_writes_.end(), state.writes.begin(),
                         state.writes.end());
  });
  AuditFlushClaims(auditor_, flushing_, &audit_writes_);
}

}  // namespace ccsim
