#include "cc/lock_manager.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "audit/audit.h"
#include "audit/waits_for.h"
#include "util/check.h"

namespace ccsim {

namespace {

bool ModeConflicts(LockMode held, LockMode wanted) {
  return held == LockMode::kExclusive || wanted == LockMode::kExclusive;
}

/// True if another transaction's `held` lock blocks a queued request for
/// `wanted`: an upgrade waits for every other holder, an ordinary request
/// for the conflicting ones.
bool HoldBlocksRequest(LockMode held, LockMode wanted, bool upgrade) {
  return upgrade || ModeConflicts(held, wanted);
}

}  // namespace

void LockManager::Reserve(size_t num_objects, size_t num_txns) {
  table_.Reserve(num_objects);
  txns_.Reserve(num_txns);
  // Each transaction waits on at most one object, so num_txns bounds the
  // number of live waiter nodes.
  nodes_.reserve(num_txns);
  granted_scratch_.reserve(num_txns);
  affected_scratch_.reserve(num_txns);
  const size_t words = (num_objects + 63) / 64;
  if (words > occupied_bits_.size()) occupied_bits_.resize(words);
  audit_waits_for_.Reserve(num_txns);
  search_frames_.reserve(num_txns);
  search_blockers_.reserve(num_txns);
}

bool LockManager::CompatibleWithHolders(const Entry& entry, TxnId txn,
                                        LockMode mode, bool upgrade) const {
  if (upgrade) {
    // An upgrade is grantable iff the requester is the only holder.
    return ForEachHolder(entry, [txn](const Holder& h) { return h.txn == txn; });
  }
  return ForEachHolder(entry, [txn, mode](const Holder& h) {
    CCSIM_CHECK_NE(h.txn, txn) << "non-upgrade request by a holder";
    return !ModeConflicts(h.mode, mode);
  });
}

int32_t LockManager::FindHolder(const Entry& entry, TxnId txn) const {
  int32_t cur = entry.holder_head;
  while (cur >= 0 && holder_nodes_[static_cast<size_t>(cur)].h.txn != txn) {
    cur = holder_nodes_[static_cast<size_t>(cur)].next;
  }
  return cur;
}

void LockManager::AddHolder(Entry& entry, const Holder& holder) {
  int32_t node;
  if (free_holder_ >= 0) {
    node = free_holder_;
    free_holder_ = holder_nodes_[static_cast<size_t>(node)].next;
    --free_holders_;
  } else {
    node = static_cast<int32_t>(holder_nodes_.size());
    holder_nodes_.emplace_back();
  }
  holder_nodes_[static_cast<size_t>(node)] = HolderNode{holder, -1};
  if (entry.holder_tail >= 0) {
    holder_nodes_[static_cast<size_t>(entry.holder_tail)].next = node;
  } else {
    entry.holder_head = node;
  }
  entry.holder_tail = node;
}

void LockManager::RemoveHolder(Entry& entry, TxnId txn) {
  int32_t prev = -1;
  int32_t cur = entry.holder_head;
  while (cur >= 0 && holder_nodes_[static_cast<size_t>(cur)].h.txn != txn) {
    prev = cur;
    cur = holder_nodes_[static_cast<size_t>(cur)].next;
  }
  CCSIM_CHECK_GE(cur, 0) << "txn " << txn << " not among the holders";
  const int32_t next = holder_nodes_[static_cast<size_t>(cur)].next;
  if (prev >= 0) {
    holder_nodes_[static_cast<size_t>(prev)].next = next;
  } else {
    entry.holder_head = next;
  }
  if (entry.holder_tail == cur) entry.holder_tail = prev;
  holder_nodes_[static_cast<size_t>(cur)].next = free_holder_;
  free_holder_ = cur;
  ++free_holders_;
}

LockManager::TxnRec& LockManager::RecOf(TxnId txn) {
  TxnRec* rec = txns_.Find(txn);
  return rec != nullptr ? *rec : txns_.Insert(txn);
}

int32_t LockManager::AllocNode(const Waiter& w) {
  int32_t node;
  if (free_node_ >= 0) {
    node = free_node_;
    free_node_ = nodes_[static_cast<size_t>(node)].next;
    --free_nodes_;
  } else {
    node = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[static_cast<size_t>(node)].w = w;
  nodes_[static_cast<size_t>(node)].next = -1;
  return node;
}

void LockManager::FreeNode(int32_t node) {
  nodes_[static_cast<size_t>(node)].next = free_node_;
  free_node_ = node;
  ++free_nodes_;
}

void LockManager::PushWaiterBack(Entry& entry, const Waiter& w) {
  const int32_t node = AllocNode(w);
  if (entry.queue_tail >= 0) {
    nodes_[static_cast<size_t>(entry.queue_tail)].next = node;
  } else {
    entry.queue_head = node;
  }
  entry.queue_tail = node;
}

void LockManager::PushUpgradeWaiter(Entry& entry, const Waiter& w) {
  const int32_t node = AllocNode(w);
  int32_t prev = -1;
  int32_t cur = entry.queue_head;
  while (cur >= 0 && nodes_[static_cast<size_t>(cur)].w.upgrade) {
    prev = cur;
    cur = nodes_[static_cast<size_t>(cur)].next;
  }
  nodes_[static_cast<size_t>(node)].next = cur;
  if (prev >= 0) {
    nodes_[static_cast<size_t>(prev)].next = node;
  } else {
    entry.queue_head = node;
  }
  if (cur < 0) entry.queue_tail = node;
}

void LockManager::UnlinkWaiter(Entry& entry, TxnId txn) {
  int32_t prev = -1;
  int32_t cur = entry.queue_head;
  while (cur >= 0 && nodes_[static_cast<size_t>(cur)].w.txn != txn) {
    prev = cur;
    cur = nodes_[static_cast<size_t>(cur)].next;
  }
  CCSIM_CHECK_GE(cur, 0) << "txn " << txn << " not found in wait queue";
  const int32_t next = nodes_[static_cast<size_t>(cur)].next;
  if (prev >= 0) {
    nodes_[static_cast<size_t>(prev)].next = next;
  } else {
    entry.queue_head = next;
  }
  if (entry.queue_tail == cur) entry.queue_tail = prev;
  FreeNode(cur);
}

LockRequestOutcome LockManager::Request(TxnId txn, ObjectId obj, LockMode mode,
                                        bool enqueue_on_conflict) {
  CCSIM_CHECK(!IsWaiting(txn)) << "txn " << txn << " issued a request while waiting";
  ++stats_.requests;
  Entry& entry = table_.Touch(obj);
  const size_t word = static_cast<size_t>(obj) >> 6;
  if (word >= occupied_bits_.size()) occupied_bits_.resize(word + 1);

  // Locate an existing holder record for idempotent re-requests and upgrades.
  const int32_t held = FindHolder(entry, txn);
  if (held >= 0) {
    Holder* mine = &holder_nodes_[static_cast<size_t>(held)].h;
    if (mode == LockMode::kShared || mine->mode == LockMode::kExclusive) {
      ++stats_.immediate_grants;  // Already sufficient.
      return LockRequestOutcome::kGranted;
    }
    // Upgrade S -> X.
    ++stats_.upgrades_requested;
    if (CompatibleWithHolders(entry, txn, mode, /*upgrade=*/true)) {
      mine->mode = LockMode::kExclusive;
      ++stats_.immediate_grants;
      if (auditor_ != nullptr) {
        auditor_->OnLockAcquired(txn, obj, /*exclusive=*/true);
      }
      return LockRequestOutcome::kGranted;
    }
    if (!enqueue_on_conflict) {
      ++stats_.denials;
      return LockRequestOutcome::kDenied;
    }
    PushUpgradeWaiter(entry, Waiter{txn, LockMode::kExclusive, /*upgrade=*/true});
    RecOf(txn).waiting_on = obj;
    ++waiting_count_;
    ++stats_.waits;
    return LockRequestOutcome::kWaiting;
  }

  // Fresh request: no queue jumping.
  if (entry.queue_head < 0 &&
      CompatibleWithHolders(entry, txn, mode, /*upgrade=*/false)) {
    AddHolder(entry, Holder{txn, mode});
    RecOf(txn).held.push_back(obj);
    SyncOccupancy(obj, entry);
    ++stats_.immediate_grants;
    if (auditor_ != nullptr) {
      auditor_->OnLockAcquired(txn, obj, mode == LockMode::kExclusive);
    }
    return LockRequestOutcome::kGranted;
  }
  if (!enqueue_on_conflict) {
    ++stats_.denials;
    return LockRequestOutcome::kDenied;
  }
  PushWaiterBack(entry, Waiter{txn, mode, /*upgrade=*/false});
  RecOf(txn).waiting_on = obj;
  SyncOccupancy(obj, entry);
  ++waiting_count_;
  ++stats_.waits;
  return LockRequestOutcome::kWaiting;
}

void LockManager::ProcessQueue(ObjectId obj, Entry& entry,
                               std::vector<TxnId>* granted) {
  while (entry.queue_head >= 0) {
    const Waiter w = nodes_[static_cast<size_t>(entry.queue_head)].w;
    if (w.upgrade) {
      if (!CompatibleWithHolders(entry, w.txn, LockMode::kExclusive,
                                 /*upgrade=*/true)) {
        return;
      }
      const int32_t held = FindHolder(entry, w.txn);
      CCSIM_CHECK_GE(held, 0) << "upgrader " << w.txn << " holds no lock";
      holder_nodes_[static_cast<size_t>(held)].h.mode = LockMode::kExclusive;
      if (auditor_ != nullptr) {
        auditor_->OnLockAcquired(w.txn, obj, /*exclusive=*/true);
      }
    } else {
      if (!CompatibleWithHolders(entry, w.txn, w.mode, /*upgrade=*/false)) {
        return;
      }
      AddHolder(entry, Holder{w.txn, w.mode});
      txns_.At(w.txn).held.push_back(obj);
      if (auditor_ != nullptr) {
        auditor_->OnLockAcquired(w.txn, obj, w.mode == LockMode::kExclusive);
      }
    }
    txns_.At(w.txn).waiting_on = -1;
    --waiting_count_;
    granted->push_back(w.txn);
    ++stats_.deferred_grants;
    const int32_t front = entry.queue_head;
    entry.queue_head = nodes_[static_cast<size_t>(front)].next;
    if (entry.queue_head < 0) entry.queue_tail = -1;
    FreeNode(front);
  }
}

const std::vector<TxnId>& LockManager::ReleaseAll(TxnId txn) {
  granted_scratch_.clear();
  affected_scratch_.clear();

  TxnRec* rec = txns_.Find(txn);
  if (rec == nullptr) return granted_scratch_;

  // Cancel a pending request, if any.
  const bool had_pending = rec->waiting_on >= 0;
  const ObjectId pending_obj = rec->waiting_on;
  if (had_pending) {
    Entry* entry = table_.Find(pending_obj);
    CCSIM_CHECK(entry != nullptr);
    UnlinkWaiter(*entry, txn);
    --waiting_count_;
    affected_scratch_.push_back(pending_obj);
  }

  // Release held locks. A cancelled upgrade's object is both the pending
  // object and a held one; skip the duplicate so each object is processed
  // exactly once (the first occurrence keeps its place in the order).
  if (auditor_ != nullptr && !rec->held.empty()) {
    auditor_->OnLockReleased(txn);
  }
  for (ObjectId obj : rec->held) {
    Entry* entry = table_.Find(obj);
    CCSIM_CHECK(entry != nullptr);
    RemoveHolder(*entry, txn);
    if (!had_pending || obj != pending_obj) affected_scratch_.push_back(obj);
  }
  txns_.Erase(txn);

  for (ObjectId obj : affected_scratch_) {
    Entry* entry = table_.Find(obj);
    CCSIM_CHECK(entry != nullptr);
    ProcessQueue(obj, *entry, &granted_scratch_);
    SyncOccupancy(obj, *entry);
  }
  return granted_scratch_;
}

bool LockManager::IsWaiting(TxnId txn) const {
  const TxnRec* rec = txns_.Find(txn);
  return rec != nullptr && rec->waiting_on >= 0;
}

std::optional<ObjectId> LockManager::WaitingOn(TxnId txn) const {
  const TxnRec* rec = txns_.Find(txn);
  if (rec == nullptr || rec->waiting_on < 0) return std::nullopt;
  return rec->waiting_on;
}

std::vector<TxnId> LockManager::BlockersOf(TxnId txn) const {
  std::vector<TxnId> blockers;
  AppendBlockersOf(txn, &blockers);
  return blockers;
}

template <typename Fn>
void LockManager::ForEachBlocker(const Entry& entry, TxnId txn,
                                 Fn&& fn) const {
  // Every earlier waiter blocks us (prefix-grant policy).
  int32_t cur = entry.queue_head;
  while (cur >= 0 && nodes_[static_cast<size_t>(cur)].w.txn != txn) {
    fn(nodes_[static_cast<size_t>(cur)].w.txn);
    cur = nodes_[static_cast<size_t>(cur)].next;
  }
  CCSIM_CHECK_GE(cur, 0);
  // Conflicting holders block us.
  const Waiter& mine = nodes_[static_cast<size_t>(cur)].w;
  ForEachHolder(entry, [&](const Holder& h) {
    if (h.txn != txn && HoldBlocksRequest(h.mode, mine.mode, mine.upgrade)) {
      fn(h.txn);
    }
    return true;
  });
}

void LockManager::AppendBlockersOf(TxnId txn, std::vector<TxnId>* out) const {
  out->clear();
  const TxnRec* rec = txns_.Find(txn);
  if (rec == nullptr || rec->waiting_on < 0) return;
  const Entry* entry = table_.Find(rec->waiting_on);
  CCSIM_CHECK(entry != nullptr);
  ForEachBlocker(*entry, txn, [out](TxnId blocker) { out->push_back(blocker); });
  // De-duplicate (a txn could be both holder and earlier waiter on upgrades).
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

bool LockManager::HasWaitersBlockedBy(TxnId txn,
                                      const SmallIdSet& excluded) const {
  const TxnRec* rec = txns_.Find(txn);
  if (rec == nullptr) return false;
  // Waiters queued behind txn on the object it waits for.
  if (rec->waiting_on >= 0) {
    const Entry* entry = table_.Find(rec->waiting_on);
    CCSIM_CHECK(entry != nullptr);
    bool behind = false;
    for (int32_t cur = entry->queue_head; cur >= 0;
         cur = nodes_[static_cast<size_t>(cur)].next) {
      const TxnId waiter = nodes_[static_cast<size_t>(cur)].w.txn;
      if (behind && !excluded.contains(waiter)) return true;
      behind |= waiter == txn;
    }
  }
  // Waiters on objects txn holds whose request its hold blocks.
  for (ObjectId obj : rec->held) {
    const Entry* entry = table_.Find(obj);
    CCSIM_CHECK(entry != nullptr);
    if (entry->queue_head < 0) continue;
    const int32_t held = FindHolder(*entry, txn);
    CCSIM_CHECK_GE(held, 0);
    const LockMode mode = holder_nodes_[static_cast<size_t>(held)].h.mode;
    for (int32_t cur = entry->queue_head; cur >= 0;
         cur = nodes_[static_cast<size_t>(cur)].next) {
      const Waiter& w = nodes_[static_cast<size_t>(cur)].w;
      if (w.txn != txn && HoldBlocksRequest(mode, w.mode, w.upgrade) &&
          !excluded.contains(w.txn)) {
        return true;
      }
    }
  }
  return false;
}

bool LockManager::FindCycleThrough(TxnId start, const SmallIdSet& excluded,
                                   std::vector<TxnId>* cycle) const {
  cycle->clear();
  if (!HasWaitersBlockedBy(start, excluded)) return false;
  const uint64_t epoch = ++search_epoch_;
  // Visits `txn`. If it waits, it gets a frame whose blocker range is read
  // off its queue and holder list once, here; if not, it has no blockers.
  auto visit = [&](TxnId txn, const TxnRec& rec) {
    rec.search_stamp = epoch;
    if (rec.waiting_on < 0) return;
    const Entry* entry = table_.Find(rec.waiting_on);
    CCSIM_CHECK(entry != nullptr);
    const auto begin = static_cast<uint32_t>(search_blockers_.size());
    ForEachBlocker(*entry, txn, [&](TxnId blocker) {
      if (!excluded.contains(blocker)) search_blockers_.push_back(blocker);
    });
    const auto first = search_blockers_.begin() + begin;
    std::sort(first, search_blockers_.end());
    search_blockers_.erase(std::unique(first, search_blockers_.end()),
                           search_blockers_.end());
    const auto end = static_cast<uint32_t>(search_blockers_.size());
    search_frames_.push_back(SearchFrame{txn, begin, begin, end});
  };
  search_frames_.clear();
  search_blockers_.clear();
  visit(start, txns_.At(start));

  while (!search_frames_.empty()) {
    SearchFrame& frame = search_frames_.back();
    if (frame.cursor == frame.end) {
      search_blockers_.resize(frame.begin);  // The top frame's range is last.
      search_frames_.pop_back();
      continue;
    }
    const TxnId next = search_blockers_[frame.cursor++];
    if (next == start) {
      for (const SearchFrame& member : search_frames_) {
        cycle->push_back(member.txn);
      }
      return true;
    }
    const TxnRec* rec = txns_.Find(next);
    if (rec != nullptr && rec->search_stamp != epoch) visit(next, *rec);
  }
  return false;
}

bool LockManager::CanGrantNow(TxnId txn, ObjectId obj, LockMode mode) const {
  const Entry* entry = table_.Find(obj);
  return entry == nullptr ||
         (entry->queue_head < 0 &&
          CompatibleWithHolders(*entry, txn, mode, /*upgrade=*/false));
}

std::vector<TxnId> LockManager::HoldersOf(ObjectId obj) const {
  std::vector<TxnId> holders;
  const Entry* entry = table_.Find(obj);
  if (entry == nullptr) return holders;
  ForEachHolder(*entry, [&holders](const Holder& h) {
    holders.push_back(h.txn);
    return true;
  });
  return holders;
}

bool LockManager::HoldsAtLeast(TxnId txn, ObjectId obj, LockMode mode) const {
  const Entry* entry = table_.Find(obj);
  if (entry == nullptr) return false;
  const int32_t held = FindHolder(*entry, txn);
  return held >= 0 &&
         (mode == LockMode::kShared ||
          holder_nodes_[static_cast<size_t>(held)].h.mode ==
              LockMode::kExclusive);
}

size_t LockManager::NumHeld(TxnId txn) const {
  const TxnRec* rec = txns_.Find(txn);
  return rec == nullptr ? 0 : rec->held.size();
}

void LockManager::AuditEntry(Auditor* auditor, ObjectId obj,
                             const Entry& entry, bool flagged, uint32_t epoch,
                             size_t* holders_seen,
                             size_t* waiters_seen) const {
  auto report = [auditor](TxnId txn, const std::string& detail) {
    auditor->Report(AuditInvariant::kWaitsForConsistency, txn, detail);
  };
  if (flagged != (entry.holder_head >= 0 || entry.queue_head >= 0)) {
    std::ostringstream detail;
    detail << "object " << obj << " occupancy flag disagrees with contents";
    report(kInvalidTxn, detail.str());
  }
  int exclusive_holders = 0;
  int holders = 0;
  for (int32_t cur = entry.holder_head; cur >= 0;
       cur = holder_nodes_[static_cast<size_t>(cur)].next) {
    const HolderNode& node = holder_nodes_[static_cast<size_t>(cur)];
    ++holders;
    if (node.h.mode == LockMode::kExclusive) ++exclusive_holders;
    if (node.audit_stamp == epoch) continue;  // Its txn lists this object.
    // The held-index pass stamps each txn's first record here, so only an
    // unstamped record can repeat an earlier holder.
    if (FindHolder(entry, node.h.txn) != cur) {
      std::ostringstream detail;
      detail << "txn appears twice among holders of object " << obj;
      report(node.h.txn, detail.str());
    }
    const TxnRec* rec = txns_.Find(node.h.txn);
    if (rec == nullptr ||
        std::find(rec->held.begin(), rec->held.end(), obj) ==
            rec->held.end()) {
      std::ostringstream detail;
      detail << "holder of object " << obj << " missing from held index";
      report(node.h.txn, detail.str());
    }
  }
  *holders_seen += static_cast<size_t>(holders);
  if (exclusive_holders > 0 && holders > 1) {
    std::ostringstream detail;
    detail << "object " << obj << " has an exclusive holder alongside "
           << holders - 1 << " other holder(s)";
    report(holder_nodes_[static_cast<size_t>(entry.holder_head)].h.txn,
           detail.str());
  }
  for (int32_t cur = entry.queue_head; cur >= 0;
       cur = nodes_[static_cast<size_t>(cur)].next) {
    const WaiterNode& node = nodes_[static_cast<size_t>(cur)];
    ++*waiters_seen;
    if (node.audit_stamp != epoch) {
      const TxnRec* rec = txns_.Find(node.w.txn);
      if (rec == nullptr || rec->waiting_on != obj) {
        std::ostringstream detail;
        detail << "queued waiter on object " << obj
               << " missing from waiting index";
        report(node.w.txn, detail.str());
      }
    }
    if (node.w.upgrade) {
      if (FindHolder(entry, node.w.txn) < 0) {
        std::ostringstream detail;
        detail << "upgrade waiter on object " << obj
               << " holds no lock to upgrade";
        report(node.w.txn, detail.str());
      }
      if (node.w.mode != LockMode::kExclusive) {
        std::ostringstream detail;
        detail << "upgrade waiter on object " << obj
               << " records a non-exclusive mode";
        report(node.w.txn, detail.str());
      }
    }
  }
}

void LockManager::AuditCheck(Auditor* auditor, const SmallIdSet& doomed) const {
  if (auditor == nullptr) return;
  auto report = [auditor](TxnId txn, const std::string& detail) {
    auditor->Report(AuditInvariant::kWaitsForConsistency, txn, detail);
  };
  if (++audit_epoch_ == 0) {  // Wrapped: no stale stamp may match again.
    for (const HolderNode& node : holder_nodes_) node.audit_stamp = 0;
    for (const WaiterNode& node : nodes_) node.audit_stamp = 0;
    audit_epoch_ = 1;
  }
  const uint32_t epoch = audit_epoch_;

  // txns_ -> table_ direction. Each held object's holder record and each
  // waiter's queue record is stamped, so the table pass below accepts it
  // without looking back. A held object whose record is already stamped,
  // or that has none, is checked for being listed twice.
  size_t waiting_seen = 0;
  WaitsForSnapshot& waits_for = audit_waits_for_;
  waits_for.Clear();
  txns_.ForEach([&](TxnId txn, const TxnRec& rec) {
    for (auto it = rec.held.begin(); it != rec.held.end(); ++it) {
      const ObjectId obj = *it;
      const Entry* entry = table_.Find(obj);
      const int32_t held = entry != nullptr ? FindHolder(*entry, txn) : -1;
      if (held >= 0) {
        const HolderNode& node = holder_nodes_[static_cast<size_t>(held)];
        if (node.audit_stamp != epoch) {
          node.audit_stamp = epoch;
          continue;
        }
      } else {
        std::ostringstream detail;
        detail << "held index lists object " << obj
               << " without a matching table holder";
        report(txn, detail.str());
      }
      if (held >= 0 || std::find(rec.held.begin(), it, obj) != it) {
        std::ostringstream detail;
        detail << "held index lists object " << obj << " twice";
        report(txn, detail.str());
      }
    }
    if (rec.waiting_on < 0) return;
    ++waiting_seen;
    const ObjectId obj = rec.waiting_on;
    const Entry* entry = table_.Find(obj);
    int32_t queued = entry != nullptr ? entry->queue_head : -1;
    while (queued >= 0 && nodes_[static_cast<size_t>(queued)].w.txn != txn) {
      queued = nodes_[static_cast<size_t>(queued)].next;
    }
    if (queued < 0) {
      std::ostringstream detail;
      detail << "waiting index points at object " << obj
             << " whose queue does not contain the txn";
      report(txn, detail.str());
      return;
    }
    nodes_[static_cast<size_t>(queued)].audit_stamp = epoch;
    std::vector<TxnId>& blockers = audit_blockers_;
    blockers.clear();
    ForEachBlocker(*entry, txn,
                   [&blockers](TxnId blocker) { blockers.push_back(blocker); });
    if (blockers.empty()) {
      // Prefix grants run at every release, so a waiter with nothing in its
      // way should have been granted already: its wake-up is lost.
      std::ostringstream detail;
      detail << "waiter on object " << obj
             << " has no blockers yet was never granted";
      auditor->Report(AuditInvariant::kPermanentBlock, txn, detail.str());
      return;
    }
    if (doomed.count(txn) > 0) return;
    for (TxnId blocker : blockers) {
      if (doomed.count(blocker) == 0) waits_for.AddEdge(txn, blocker);
    }
  });
  if (waiting_seen != waiting_count_) {
    std::ostringstream detail;
    detail << "waiting counter " << waiting_count_ << " disagrees with "
           << waiting_seen << " queued waiters";
    report(kInvalidTxn, detail.str());
  }

  // table_ -> txns_ direction, over the granules flagged occupied only.
  // Empty entries are normal with dense slots (granules keep their slot
  // after the last holder leaves).
  static const Entry kEmpty;
  size_t occupied_seen = 0;
  size_t holders_seen = 0;
  size_t waiters_seen = 0;
  for (size_t word = 0; word < occupied_bits_.size(); ++word) {
    for (uint64_t bits = occupied_bits_[word]; bits != 0; bits &= bits - 1) {
      const ObjectId obj =
          static_cast<ObjectId>(word * 64 + std::countr_zero(bits));
      const Entry* entry = table_.Find(obj);
      ++occupied_seen;
      AuditEntry(auditor, obj, entry != nullptr ? *entry : kEmpty,
                 /*flagged=*/true, epoch, &holders_seen, &waiters_seen);
    }
  }
  if (occupied_seen != occupied_count_) {
    std::ostringstream detail;
    detail << "occupancy counter " << occupied_count_ << " disagrees with "
           << occupied_seen << " occupied entries";
    report(kInvalidTxn, detail.str());
  }
  // Every live pool record sits on some granule's list. If the flagged
  // granules hold fewer than that, some sit on an unflagged one: only then
  // walk every touched granule to report them.
  if (holders_seen != holder_nodes_.size() - free_holders_ ||
      waiters_seen != nodes_.size() - free_nodes_) {
    table_.ForEachTouched([&](ObjectId obj, const Entry& entry) {
      if (!IsOccupied(obj)) {
        AuditEntry(auditor, obj, entry, /*flagged=*/false, epoch,
                   &holders_seen, &waiters_seen);
      }
    });
  }

  // A waits-for cycle among non-doomed transactions is a permanent block:
  // no future release can ever wake any member.
  std::vector<TxnId> cycle = waits_for.FindCycle();
  if (!cycle.empty()) {
    std::ostringstream detail;
    detail << "waits-for cycle with no pending resolution:";
    for (TxnId member : cycle) detail << " " << member;
    auditor->Report(AuditInvariant::kPermanentBlock, cycle.front(),
                    detail.str());
  }
}

}  // namespace ccsim
