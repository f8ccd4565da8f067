// Tests for the runtime invariant auditor: each violation class must be
// detected when injected, clean histories must pass, and a sweep of every
// algorithm under full auditing must come back violation-free.
#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "audit/digest.h"
#include "audit/waits_for.h"
#include "cc/factory.h"
#include "cc/lock_manager.h"
#include "cc/static_locking.h"
#include "core/closed_system.h"
#include "fake_cc_engine.h"
#include "reference_cycle.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace ccsim {

/// Reaches into a LockManager's private state to plant the faults its deep
/// check must report. Each method changes one thing and repairs nothing.
class LockManagerAuditPeer {
 public:
  explicit LockManagerAuditPeer(LockManager* locks) : locks_(*locks) {}

  std::vector<ObjectId>& HeldOf(TxnId txn) { return locks_.RecOf(txn).held; }
  void SetWaitingOn(TxnId txn, ObjectId obj) {
    locks_.RecOf(txn).waiting_on = obj;
  }
  void AddHolder(ObjectId obj, TxnId txn, LockMode mode) {
    locks_.AddHolder(locks_.table_.Touch(obj), {txn, mode});
  }
  void RemoveHolder(ObjectId obj, TxnId txn) {
    locks_.RemoveHolder(locks_.table_.Touch(obj), txn);
  }
  void PushUpgradeWaiter(ObjectId obj, TxnId txn, LockMode mode) {
    locks_.PushUpgradeWaiter(locks_.table_.Touch(obj),
                             {txn, mode, /*upgrade=*/true});
  }
  void SetOccupiedFlag(ObjectId obj, bool occupied) {
    locks_.table_.Touch(obj);
    std::vector<uint64_t>& bits = locks_.occupied_bits_;
    const size_t word = static_cast<size_t>(obj) / 64;
    if (word >= bits.size()) bits.resize(word + 1);
    const uint64_t bit = uint64_t{1} << (obj % 64);
    bits[word] = occupied ? bits[word] | bit : bits[word] & ~bit;
  }
  void SetAuditEpoch(uint32_t epoch) { locks_.audit_epoch_ = epoch; }
  size_t& occupied_count() { return locks_.occupied_count_; }
  size_t& waiting_count() { return locks_.waiting_count_; }

 private:
  LockManager& locks_;
};

/// Reaches into a StaticLockingCC's private state to plant the faults its
/// own deep check must report. Each method changes one thing and repairs
/// nothing.
class StaticLockingAuditPeer {
 public:
  explicit StaticLockingAuditPeer(StaticLockingCC* cc) : cc_(*cc) {}

  LockManager& locks() { return cc_.locks_; }
  std::vector<ObjectId>& ReadOnlyOf(TxnId txn) {
    return cc_.active_.At(txn).read_only;
  }
  std::vector<ObjectId>& WrittenOf(TxnId txn) {
    return cc_.active_.At(txn).written;
  }
  void Forget(TxnId txn) { cc_.active_.Erase(txn); }
  std::vector<TxnId>& waiters() { return cc_.waiters_; }

 private:
  StaticLockingCC& cc_;
};

namespace {

bool HasViolation(const Auditor& auditor, AuditInvariant invariant) {
  for (const AuditViolation& violation : auditor.violations()) {
    if (violation.invariant == invariant) return true;
  }
  return false;
}

// --- Two-phase-locking discipline ---

TEST(AuditorTest, DetectsLockAcquireAfterRelease) {
  Auditor auditor;
  auditor.OnTxnAdmitted(1, /*incarnation=*/1);
  auditor.OnLockAcquired(1, /*obj=*/10, /*exclusive=*/false);
  auditor.OnLockReleased(1);
  auditor.OnLockAcquired(1, /*obj=*/11, /*exclusive=*/true);  // Injected.
  EXPECT_TRUE(HasViolation(auditor, AuditInvariant::kTwoPhaseLocking))
      << auditor.Summary();
  EXPECT_EQ(auditor.violation_count(), 1);
}

TEST(AuditorTest, AcceptsStrictTwoPhaseHistory) {
  Auditor auditor;
  auditor.OnTxnAdmitted(1, 1);
  auditor.OnLockAcquired(1, 10, false);
  auditor.OnLockAcquired(1, 11, true);
  auditor.OnLockReleased(1);
  auditor.OnTxnFinished(1);
  EXPECT_EQ(auditor.violation_count(), 0) << auditor.Summary();
  EXPECT_GT(auditor.checks_performed(), 0);
}

TEST(AuditorTest, NewIncarnationMayReacquire) {
  Auditor auditor;
  auditor.OnTxnAdmitted(1, 1);
  auditor.OnLockAcquired(1, 10, true);
  auditor.OnLockReleased(1);
  auditor.OnTxnFinished(1);  // Restarted; same id comes back.
  auditor.OnTxnAdmitted(1, 2);
  auditor.OnLockAcquired(1, 10, true);
  EXPECT_EQ(auditor.violation_count(), 0) << auditor.Summary();
}

// --- Leaked blocked transaction ---

TEST(AuditorTest, DetectsBlockedTxnNoAlgorithmTracks) {
  Auditor auditor;
  auditor.CheckBlockedTracked(7, /*tracked_by_algorithm=*/false);  // Injected.
  EXPECT_TRUE(HasViolation(auditor, AuditInvariant::kPermanentBlock))
      << auditor.Summary();
  auditor.CheckBlockedTracked(8, true);
  EXPECT_EQ(auditor.violation_count(), 1);
}

// --- Conservation across the queues ---

TEST(AuditorTest, AcceptsBalancedCensus) {
  Auditor auditor;
  TxnCensus census;
  census.total = 10;
  census.ready = 2;
  census.running = 3;
  census.blocked = 1;
  census.thinking = 2;
  census.restart_delay = 2;
  census.ready_queue = 2;
  census.active = 6;  // running + blocked + thinking.
  auditor.CheckConservation(census);
  EXPECT_EQ(auditor.violation_count(), 0) << auditor.Summary();
}

TEST(AuditorTest, DetectsQueueCountDrift) {
  Auditor auditor;
  TxnCensus census;
  census.total = 5;
  census.ready = 1;
  census.running = 3;  // 1 + 3 = 4 != 5: one transaction vanished.
  census.ready_queue = 1;
  census.active = 3;
  auditor.CheckConservation(census);
  EXPECT_TRUE(HasViolation(auditor, AuditInvariant::kTxnConservation))
      << auditor.Summary();
}

TEST(AuditorTest, DetectsActiveCountMismatch) {
  Auditor auditor;
  TxnCensus census;
  census.total = 4;
  census.ready = 1;
  census.running = 2;
  census.blocked = 1;
  census.ready_queue = 1;
  census.active = 2;  // Should be running + blocked = 3.
  auditor.CheckConservation(census);
  EXPECT_TRUE(HasViolation(auditor, AuditInvariant::kTxnConservation));
}

TEST(AuditorTest, DetectsReadyQueueMismatch) {
  Auditor auditor;
  TxnCensus census;
  census.total = 2;
  census.ready = 2;
  census.ready_queue = 1;  // One ready transaction is not enqueued.
  census.active = 0;
  auditor.CheckConservation(census);
  EXPECT_TRUE(HasViolation(auditor, AuditInvariant::kTxnConservation));
}

// The engine keeps its census incrementally and, on sampled transitions and
// at the end of a run, cross-checks it against a walk of the live
// transactions.
TEST(AuditorTest, AcceptsAgreeingCensusWithoutCountingACheck) {
  Auditor auditor;
  TxnCensus census;
  census.total = 3;
  census.ready = 1;
  census.running = 1;
  census.blocked = 1;
  census.ready_queue = 1;
  census.active = 2;
  auditor.CheckCensusAgrees(census, census);
  EXPECT_EQ(auditor.violation_count(), 0) << auditor.Summary();
  // It re-verifies a census CheckConservation already counted.
  EXPECT_EQ(auditor.checks_performed(), 0);
}

TEST(AuditorTest, DetectsCountedCensusDisagreeingWithWalk) {
  Auditor auditor;
  TxnCensus walked;
  walked.total = 3;
  walked.ready = 1;
  walked.running = 1;
  walked.blocked = 1;
  walked.ready_queue = 1;
  walked.active = 2;
  // A state write that bypassed the counts: the counts still say running
  // where the walk finds the transaction blocked. Both censuses balance on
  // their own, so CheckConservation alone cannot see it.
  TxnCensus counted = walked;
  counted.running = 2;
  counted.blocked = 0;
  auditor.CheckConservation(counted);
  EXPECT_EQ(auditor.violation_count(), 0) << auditor.Summary();
  auditor.CheckCensusAgrees(counted, walked);  // Injected.
  EXPECT_TRUE(HasViolation(auditor, AuditInvariant::kTxnConservation))
      << auditor.Summary();
  EXPECT_EQ(auditor.violation_count(), 1);
}

// --- Event-time monotonicity ---

TEST(AuditorTest, DetectsTimeGoingBackwards) {
  Auditor auditor;
  auditor.OnEventTime(100);
  auditor.OnEventTime(100);  // Equal is fine (zero-delay events).
  EXPECT_EQ(auditor.violation_count(), 0);
  auditor.OnEventTime(99);  // Injected.
  EXPECT_TRUE(HasViolation(auditor, AuditInvariant::kTimeMonotonicity))
      << auditor.Summary();
}

// --- Replay digest ---

TEST(AuditorTest, ReplayDigestMatchesSameStream) {
  Auditor a;
  Auditor b;
  for (int i = 0; i < 10; ++i) {
    a.FoldOp(static_cast<uint64_t>(AuditOp::kRead), i, i * 2, 0, i * 7);
    b.FoldOp(static_cast<uint64_t>(AuditOp::kRead), i, i * 2, 0, i * 7);
  }
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_TRUE(a.VerifyReplay(b.digest()));
  EXPECT_EQ(a.violation_count(), 0);
}

TEST(AuditorTest, DetectsSeedReplayDivergence) {
  Auditor a;
  Auditor b;
  a.FoldOp(static_cast<uint64_t>(AuditOp::kRead), 1, 10, 0, 5);
  b.FoldOp(static_cast<uint64_t>(AuditOp::kWrite), 1, 10, 0, 5);  // Injected.
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_FALSE(a.VerifyReplay(b.digest()));
  EXPECT_TRUE(HasViolation(a, AuditInvariant::kReplayDivergence))
      << a.Summary();
}

TEST(AuditorTest, DigestIsOrderSensitive) {
  Auditor a;
  Auditor b;
  a.FoldOp(1, 1, 0, 0, 0);
  a.FoldOp(2, 2, 0, 0, 0);
  b.FoldOp(2, 2, 0, 0, 0);
  b.FoldOp(1, 1, 0, 0, 0);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(FnvDigestTest, KnownProperties) {
  FnvDigest digest;
  uint64_t empty = digest.value();
  digest.Fold(0);  // Folding a zero word must still change the digest.
  EXPECT_NE(digest.value(), empty);
  digest.Reset();
  EXPECT_EQ(digest.value(), empty);
}

// --- Recording cap ---

TEST(AuditorTest, RecordsUpToCapButCountsAll) {
  AuditorOptions options;
  options.max_recorded = 3;
  Auditor auditor(options);
  for (int i = 0; i < 10; ++i) {
    auditor.Report(AuditInvariant::kTxnConservation, i, "injected");
  }
  EXPECT_EQ(auditor.violations().size(), 3u);
  EXPECT_EQ(auditor.violation_count(), 10);
}

// --- Waits-for snapshot ---

TEST(WaitsForSnapshotTest, NoCycleOnDag) {
  WaitsForSnapshot graph;
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 3);
  graph.AddEdge(1, 3);
  EXPECT_TRUE(graph.FindCycle().empty());
}

TEST(WaitsForSnapshotTest, FindsCycleMembers) {
  WaitsForSnapshot graph;
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 3);
  graph.AddEdge(3, 1);
  graph.AddEdge(4, 1);  // Off-cycle spur.
  std::vector<TxnId> cycle = graph.FindCycle();
  ASSERT_EQ(cycle.size(), 3u);
  for (TxnId member : cycle) {
    EXPECT_TRUE(member == 1 || member == 2 || member == 3);
  }
}

TEST(WaitsForSnapshotTest, DuplicateEdgesChangeNothing) {
  WaitsForSnapshot dag;
  dag.AddEdge(1, 2);
  dag.AddEdge(1, 2);
  dag.AddEdge(2, 3);
  dag.AddEdge(2, 3);
  EXPECT_TRUE(dag.FindCycle().empty());

  WaitsForSnapshot cyclic;
  cyclic.AddEdge(2, 1);
  cyclic.AddEdge(1, 2);
  cyclic.AddEdge(2, 1);
  cyclic.AddEdge(1, 2);
  EXPECT_EQ(cyclic.FindCycle(), (std::vector<TxnId>{1, 2}));
}

TEST(WaitsForSnapshotTest, SparseLargeIds) {
  // Transaction ids grow without bound over a run; the snapshot indexes
  // only the ids it holds.
  constexpr TxnId kA = 5;
  constexpr TxnId kB = int64_t{1} << 40;
  constexpr TxnId kC = int64_t{1} << 62;
  WaitsForSnapshot graph;
  graph.AddEdge(kC, kA);
  graph.AddEdge(kB, kC);
  graph.AddEdge(kA, kB);
  graph.AddEdge(kA + 1, kC);  // Off-cycle spur.
  // Root kA (the smallest waiter): kA -> kB -> kC -> kA.
  EXPECT_EQ(graph.FindCycle(), (std::vector<TxnId>{kA, kB, kC}));
}

TEST(WaitsForSnapshotTest, ReusableAfterClear) {
  WaitsForSnapshot graph;
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 1);
  EXPECT_EQ(graph.FindCycle(), (std::vector<TxnId>{1, 2}));
  graph.Clear();
  EXPECT_TRUE(graph.empty());
  EXPECT_TRUE(graph.FindCycle().empty());
  graph.AddEdge(7, 8);  // A DAG now: the old cycle must not linger.
  graph.AddEdge(8, 9);
  EXPECT_TRUE(graph.FindCycle().empty());
  graph.Clear();
  graph.AddEdge(30, 10);
  graph.AddEdge(10, 20);
  graph.AddEdge(20, 30);
  EXPECT_EQ(graph.FindCycle(), (std::vector<TxnId>{10, 20, 30}));
}

TEST(WaitsForSnapshotTest, SameCycleOnEveryCallAndInsertionOrder) {
  // Two disjoint cycles, and a root (1) that closes two cycles through its
  // blockers 2 and 3: ascending roots and ascending blockers pick 1 -> 2.
  const std::vector<std::pair<TxnId, TxnId>> edges = {
      {9, 8}, {8, 9}, {1, 3}, {3, 1}, {1, 2}, {2, 1}, {4, 1}};
  WaitsForSnapshot forward;
  for (const auto& [waiter, blocker] : edges) forward.AddEdge(waiter, blocker);
  WaitsForSnapshot backward;
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    backward.AddEdge(it->first, it->second);
  }
  const std::vector<TxnId> expected = {1, 2};
  EXPECT_EQ(forward.FindCycle(), expected);
  EXPECT_EQ(forward.FindCycle(), expected);  // Same snapshot, again.
  EXPECT_EQ(backward.FindCycle(), expected);
}

TEST(WaitsForSnapshotTest, MatchesReferenceOnRandomGraphs) {
  // Random graphs over up to 12 ids, half of them small and half just
  // below 2^62, with repeated edges, self-loops, edges into sinks (ids that
  // wait for nobody) and edges added in random order. One snapshot is
  // cleared and reused across rounds, as the deep check reuses its own.
  Rng rng(19);
  WaitsForSnapshot graph;
  int cycles = 0;
  for (int round = 0; round < 3000; ++round) {
    const int64_t ids = rng.UniformInt(1, 12);
    auto id_of = [](int64_t i) {
      return i % 2 == 0 ? i + 1 : (int64_t{1} << 62) - i;
    };
    std::vector<std::pair<TxnId, TxnId>> edges;
    ReferenceGraph reference;
    const int64_t num_edges = rng.UniformInt(0, 2 * ids);
    for (int64_t e = 0; e < num_edges; ++e) {
      const TxnId waiter = id_of(rng.UniformInt(0, ids - 1));
      const TxnId blocker = id_of(rng.UniformInt(0, ids - 1));
      if (waiter == blocker && !rng.Bernoulli(0.1)) continue;
      reference[waiter].insert(blocker);
      edges.emplace_back(waiter, blocker);
      if (rng.Bernoulli(0.2)) edges.emplace_back(waiter, blocker);
    }
    std::shuffle(edges.begin(), edges.end(), rng.engine());
    graph.Clear();
    for (const auto& [waiter, blocker] : edges) graph.AddEdge(waiter, blocker);
    const std::vector<TxnId> expected = ReferenceWaitsForCycle(reference);
    cycles += expected.empty() ? 0 : 1;
    ASSERT_EQ(graph.FindCycle(), expected) << "round " << round;
    ASSERT_EQ(graph.FindCycle(), expected) << "round " << round << ", again";
  }
  EXPECT_GT(cycles, 500);
  EXPECT_LT(cycles, 2500);
}

// --- Lock-table deep check against a real deadlock ---

TEST(LockManagerAuditTest, CleanTableHasNoViolations) {
  LockManager locks;
  Auditor auditor;
  locks.SetAuditor(&auditor);
  ASSERT_EQ(locks.Request(1, 10, LockMode::kShared, true),
            LockRequestOutcome::kGranted);
  ASSERT_EQ(locks.Request(2, 10, LockMode::kExclusive, true),
            LockRequestOutcome::kWaiting);
  locks.AuditCheck(&auditor, /*doomed=*/{});
  EXPECT_EQ(auditor.violation_count(), 0) << auditor.Summary();
}

TEST(LockManagerAuditTest, UnresolvedDeadlockIsPermanentBlock) {
  LockManager locks;
  Auditor auditor;
  ASSERT_EQ(locks.Request(1, 10, LockMode::kExclusive, true),
            LockRequestOutcome::kGranted);
  ASSERT_EQ(locks.Request(2, 20, LockMode::kExclusive, true),
            LockRequestOutcome::kGranted);
  ASSERT_EQ(locks.Request(1, 20, LockMode::kExclusive, true),
            LockRequestOutcome::kWaiting);
  ASSERT_EQ(locks.Request(2, 10, LockMode::kExclusive, true),
            LockRequestOutcome::kWaiting);
  // Nobody was chosen as a victim: the cycle is a permanent block.
  locks.AuditCheck(&auditor, /*doomed=*/{});
  EXPECT_TRUE(HasViolation(auditor, AuditInvariant::kPermanentBlock))
      << auditor.Summary();
  // With one member doomed (its abort in flight), the cycle is being
  // resolved and must not be reported.
  Auditor resolved;
  locks.AuditCheck(&resolved, /*doomed=*/{2});
  EXPECT_EQ(resolved.violation_count(), 0) << resolved.Summary();
}

// --- Lock-table deep check: one planted fault per structural report ---

using DeepReport = std::tuple<std::string, TxnId, std::string>;

/// Every report `auditor` recorded, sorted, as (invariant name, txn,
/// detail).
std::vector<DeepReport> SortedReports(const Auditor& auditor) {
  std::vector<DeepReport> reports;
  for (const AuditViolation& violation : auditor.violations()) {
    reports.emplace_back(AuditInvariantName(violation.invariant),
                         violation.txn, violation.detail);
  }
  std::sort(reports.begin(), reports.end());
  return reports;
}

/// Every report of one deep check of `locks`.
std::vector<DeepReport> DeepCheckReports(const LockManager& locks) {
  Auditor auditor;
  locks.AuditCheck(&auditor, /*doomed=*/{});
  return SortedReports(auditor);
}

DeepReport Consistency(TxnId txn, const std::string& detail) {
  return {AuditInvariantName(AuditInvariant::kWaitsForConsistency), txn,
          detail};
}

/// Txn 1 holds X on 10 and S on 11; txn 2 holds S on 11 and waits for 10.
void BuildHealthyTable(LockManager* locks) {
  ASSERT_EQ(locks->Request(1, 10, LockMode::kExclusive, true),
            LockRequestOutcome::kGranted);
  ASSERT_EQ(locks->Request(1, 11, LockMode::kShared, true),
            LockRequestOutcome::kGranted);
  ASSERT_EQ(locks->Request(2, 11, LockMode::kShared, true),
            LockRequestOutcome::kGranted);
  ASSERT_EQ(locks->Request(2, 10, LockMode::kShared, true),
            LockRequestOutcome::kWaiting);
  ASSERT_TRUE(DeepCheckReports(*locks).empty());
}

TEST(LockManagerAuditTest, HolderMissingFromHeldIndex) {
  LockManager locks;
  BuildHealthyTable(&locks);
  std::erase(LockManagerAuditPeer(&locks).HeldOf(1), 11);
  EXPECT_EQ(DeepCheckReports(locks),
            std::vector<DeepReport>{Consistency(
                1, "holder of object 11 missing from held index")});
}

TEST(LockManagerAuditTest, EpochWrapClearsStaleStamps) {
  // BuildHealthyTable's check stamps every record it reaches with epoch 1.
  // The next epoch wraps to 0, so the check must clear every stamp and
  // restart at 1: a stale 1 would vouch for the holder record of 11, which
  // the held index no longer lists.
  LockManager locks;
  BuildHealthyTable(&locks);
  LockManagerAuditPeer peer(&locks);
  std::erase(peer.HeldOf(1), 11);
  peer.SetAuditEpoch(UINT32_MAX);
  EXPECT_EQ(DeepCheckReports(locks),
            std::vector<DeepReport>{Consistency(
                1, "holder of object 11 missing from held index")});
}

TEST(LockManagerAuditTest, HeldObjectWithoutTableHolder) {
  LockManager locks;
  BuildHealthyTable(&locks);
  LockManagerAuditPeer(&locks).HeldOf(2).push_back(12);
  EXPECT_EQ(DeepCheckReports(locks),
            std::vector<DeepReport>{Consistency(
                2, "held index lists object 12 without a matching table "
                   "holder")});
}

TEST(LockManagerAuditTest, HeldObjectListedTwice) {
  LockManager locks;
  BuildHealthyTable(&locks);
  LockManagerAuditPeer(&locks).HeldOf(1).push_back(10);
  EXPECT_EQ(DeepCheckReports(locks),
            std::vector<DeepReport>{
                Consistency(1, "held index lists object 10 twice")});
}

TEST(LockManagerAuditTest, TxnListedTwiceAmongHolders) {
  LockManager locks;
  BuildHealthyTable(&locks);
  LockManagerAuditPeer(&locks).AddHolder(11, 2, LockMode::kShared);
  EXPECT_EQ(DeepCheckReports(locks),
            std::vector<DeepReport>{Consistency(
                2, "txn appears twice among holders of object 11")});
}

TEST(LockManagerAuditTest, ExclusiveHolderBesideOtherHolders) {
  LockManager locks;
  BuildHealthyTable(&locks);
  LockManagerAuditPeer peer(&locks);
  peer.AddHolder(10, 3, LockMode::kShared);
  peer.HeldOf(3).push_back(10);
  EXPECT_EQ(DeepCheckReports(locks),
            std::vector<DeepReport>{Consistency(
                1, "object 10 has an exclusive holder alongside 1 other "
                   "holder(s)")});
}

TEST(LockManagerAuditTest, QueuedWaiterMissingFromWaitingIndex) {
  LockManager locks;
  BuildHealthyTable(&locks);
  LockManagerAuditPeer peer(&locks);
  peer.SetWaitingOn(2, -1);
  --peer.waiting_count();
  EXPECT_EQ(DeepCheckReports(locks),
            std::vector<DeepReport>{Consistency(
                2, "queued waiter on object 10 missing from waiting index")});
}

TEST(LockManagerAuditTest, WaitingIndexPointsAtQueueWithoutTheTxn) {
  LockManager locks;
  BuildHealthyTable(&locks);
  LockManagerAuditPeer peer(&locks);
  peer.SetWaitingOn(1, 11);
  ++peer.waiting_count();
  EXPECT_EQ(DeepCheckReports(locks),
            std::vector<DeepReport>{Consistency(
                1, "waiting index points at object 11 whose queue does not "
                   "contain the txn")});
}

TEST(LockManagerAuditTest, UpgradeWaiterHoldingNoLock) {
  LockManager locks;
  BuildHealthyTable(&locks);
  LockManagerAuditPeer peer(&locks);
  peer.PushUpgradeWaiter(10, 3, LockMode::kExclusive);
  peer.SetWaitingOn(3, 10);
  ++peer.waiting_count();
  EXPECT_EQ(DeepCheckReports(locks),
            std::vector<DeepReport>{Consistency(
                3, "upgrade waiter on object 10 holds no lock to upgrade")});
}

TEST(LockManagerAuditTest, UpgradeWaiterInSharedMode) {
  LockManager locks;
  BuildHealthyTable(&locks);
  ASSERT_EQ(locks.Request(3, 11, LockMode::kShared, true),
            LockRequestOutcome::kGranted);
  LockManagerAuditPeer peer(&locks);
  peer.PushUpgradeWaiter(11, 3, LockMode::kShared);
  peer.SetWaitingOn(3, 11);
  ++peer.waiting_count();
  EXPECT_EQ(DeepCheckReports(locks),
            std::vector<DeepReport>{Consistency(
                3, "upgrade waiter on object 11 records a non-exclusive "
                   "mode")});
}

TEST(LockManagerAuditTest, OccupancyFlagOnEmptyGranule) {
  LockManager locks;
  BuildHealthyTable(&locks);
  LockManagerAuditPeer peer(&locks);
  peer.SetOccupiedFlag(20, true);
  ++peer.occupied_count();
  EXPECT_EQ(DeepCheckReports(locks),
            std::vector<DeepReport>{Consistency(
                kInvalidTxn,
                "object 20 occupancy flag disagrees with contents")});
}

TEST(LockManagerAuditTest, ContentsOnUnflaggedGranule) {
  LockManager locks;
  BuildHealthyTable(&locks);
  LockManagerAuditPeer peer(&locks);
  peer.SetOccupiedFlag(11, false);
  --peer.occupied_count();
  EXPECT_EQ(DeepCheckReports(locks),
            std::vector<DeepReport>{Consistency(
                kInvalidTxn,
                "object 11 occupancy flag disagrees with contents")});
}

TEST(LockManagerAuditTest, OrphanHolderOnUnflaggedGranule) {
  // No index reaches the orphan: only a walk of the granules finds it.
  LockManager locks;
  BuildHealthyTable(&locks);
  LockManagerAuditPeer(&locks).AddHolder(30, 5, LockMode::kExclusive);
  std::vector<DeepReport> expected = {
      Consistency(kInvalidTxn,
                  "object 30 occupancy flag disagrees with contents"),
      Consistency(5, "holder of object 30 missing from held index")};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(DeepCheckReports(locks), expected);
}

TEST(LockManagerAuditTest, OccupancyCounterDrift) {
  LockManager locks;
  BuildHealthyTable(&locks);
  ++LockManagerAuditPeer(&locks).occupied_count();
  EXPECT_EQ(DeepCheckReports(locks),
            std::vector<DeepReport>{Consistency(
                kInvalidTxn,
                "occupancy counter 3 disagrees with 2 occupied entries")});
}

TEST(LockManagerAuditTest, WaitingCounterDrift) {
  LockManager locks;
  BuildHealthyTable(&locks);
  ++LockManagerAuditPeer(&locks).waiting_count();
  EXPECT_EQ(DeepCheckReports(locks),
            std::vector<DeepReport>{Consistency(
                kInvalidTxn,
                "waiting counter 2 disagrees with 1 queued waiters")});
}

TEST(LockManagerAuditTest, WaiterWithNoBlockers) {
  LockManager locks;
  BuildHealthyTable(&locks);
  LockManagerAuditPeer peer(&locks);
  peer.RemoveHolder(10, 1);
  std::erase(peer.HeldOf(1), 10);
  const DeepReport stuck = {
      AuditInvariantName(AuditInvariant::kPermanentBlock), 2,
      "waiter on object 10 has no blockers yet was never granted"};
  EXPECT_EQ(DeepCheckReports(locks), std::vector<DeepReport>{stuck});
}

// --- Static locking's deep check: one planted fault per report of its own ---

class StaticLockingAuditTest : public testing::Test {
 protected:
  /// Txn 1 holds X on 10 and S on 11, txn 2 holds S on 11, and txn 3 waits
  /// to read 10.
  void SetUp() override {
    cc_.SetCallbacks(engine_.Callbacks());
    Declare(1, {10, 11}, {10}, CCDecision::kGranted);
    Declare(2, {11}, {}, CCDecision::kGranted);
    Declare(3, {10}, {}, CCDecision::kBlocked);
    ASSERT_TRUE(DeepCheckReports().empty());
  }

  void Declare(TxnId txn, const std::vector<ObjectId>& reads,
               const std::vector<ObjectId>& writes, CCDecision expected) {
    cc_.OnBegin(txn, 0, 0);
    ASSERT_EQ(cc_.Predeclare(txn, reads, writes), expected);
  }

  /// Every report of one deep check of the algorithm and its lock table.
  std::vector<DeepReport> DeepCheckReports() {
    Auditor auditor;
    cc_.SetAuditor(&auditor);
    cc_.AuditCheck();
    cc_.SetAuditor(nullptr);
    return SortedReports(auditor);
  }

  FakeCCEngine engine_{"static locking never wounds"};
  StaticLockingCC cc_;
  StaticLockingAuditPeer peer_{&cc_};
};

TEST_F(StaticLockingAuditTest, WaiterHoldingALock) {
  ASSERT_EQ(peer_.locks().Request(3, 12, LockMode::kShared, false),
            LockRequestOutcome::kGranted);
  EXPECT_EQ(DeepCheckReports(),
            std::vector<DeepReport>{Consistency(
                3, "non-holding txn holds 1 undeclared lock(s)")});
}

TEST_F(StaticLockingAuditTest, HoldingTxnMissingADeclaredLock) {
  peer_.ReadOnlyOf(2).push_back(12);
  EXPECT_EQ(DeepCheckReports(),
            std::vector<DeepReport>{
                Consistency(2, "holding txn lacks its lock on object 12")});
}

TEST_F(StaticLockingAuditTest, HoldingTxnWithAnUndeclaredLock) {
  std::erase(peer_.ReadOnlyOf(1), 11);
  EXPECT_EQ(DeepCheckReports(),
            std::vector<DeepReport>{
                Consistency(1, "holding txn holds 1 undeclared lock(s)")});
}

TEST_F(StaticLockingAuditTest, DeclaredLockInTheWrongMode) {
  std::erase(peer_.WrittenOf(1), 10);
  peer_.ReadOnlyOf(1).push_back(10);
  EXPECT_EQ(DeepCheckReports(),
            std::vector<DeepReport>{Consistency(
                1, "holding txn holds object 10 in the wrong mode")});
}

TEST_F(StaticLockingAuditTest, LockHeldByAnUntrackedTxn) {
  peer_.Forget(2);
  EXPECT_EQ(DeepCheckReports(),
            std::vector<DeepReport>{Consistency(
                kInvalidTxn,
                "lock manager holds 3 lock(s) but tracked transactions "
                "hold 2")});
}

TEST_F(StaticLockingAuditTest, WaiterNotActive) {
  peer_.waiters().push_back(4);
  EXPECT_EQ(DeepCheckReports(),
            std::vector<DeepReport>{
                Consistency(4, "waiter is not an active transaction")});
}

TEST_F(StaticLockingAuditTest, WaiterAlreadyHoldingItsLocks) {
  peer_.waiters().push_back(2);
  const DeepReport holding = {
      AuditInvariantName(AuditInvariant::kPermanentBlock), 2,
      "waiter already holds its locks"};
  EXPECT_EQ(DeepCheckReports(), std::vector<DeepReport>{holding});
}

// --- Full-engine sweep: every algorithm, auditing on ---

class AuditedAlgorithmSweep : public testing::TestWithParam<std::string> {};

TEST_P(AuditedAlgorithmSweep, RunsViolationFree) {
  EngineConfig config;
  config.workload.db_size = 100;  // Hot: exercise conflicts and restarts.
  config.workload.tran_size = 5;
  config.workload.min_size = 2;
  config.workload.max_size = 8;
  config.workload.write_prob = 0.4;
  config.workload.num_terms = 20;
  config.workload.mpl = 10;
  config.workload.ext_think_time = 500 * kMillisecond;
  config.workload.obj_io = FromMillis(5);
  config.workload.obj_cpu = FromMillis(2);
  config.resources = ResourceConfig::Finite(1, 2);
  config.algorithm = GetParam();
  config.seed = 2026;
  config.audit = true;
  Simulator sim;
  ClosedSystem system(&sim, config);
  MetricsReport report = system.RunExperiment(4, 5 * kSecond, 2 * kSecond);
  ASSERT_GT(report.commits, 0);
  ASSERT_TRUE(report.audited);
  EXPECT_GT(report.audit_checks, 0);
  EXPECT_NE(report.replay_digest, 0u);
  EXPECT_EQ(report.audit_violations, 0) << system.auditor()->Summary();
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AuditedAlgorithmSweep,
                         testing::ValuesIn(AllAlgorithms()),
                         [](const testing::TestParamInfo<std::string>& param_info) {
                           return param_info.param;
                         });

// Auditing must not change the simulation: same seed with and without the
// auditor attached yields identical metrics (the auditor is a pure observer).
TEST(AuditOverheadTest, AuditingDoesNotPerturbResults) {
  EngineConfig config;
  config.workload.db_size = 200;
  config.workload.num_terms = 20;
  config.workload.mpl = 10;
  config.workload.ext_think_time = 500 * kMillisecond;
  config.workload.obj_io = FromMillis(5);
  config.workload.obj_cpu = FromMillis(2);
  config.resources = ResourceConfig::Finite(1, 2);
  config.algorithm = "blocking";
  config.seed = 7;
  config.audit = false;
  Simulator plain_sim;
  ClosedSystem plain(&plain_sim, config);
  MetricsReport plain_report = plain.RunExperiment(3, 5 * kSecond, kSecond);

  config.audit = true;
  Simulator audited_sim;
  ClosedSystem audited(&audited_sim, config);
  MetricsReport audited_report =
      audited.RunExperiment(3, 5 * kSecond, kSecond);

  EXPECT_EQ(plain_report.commits, audited_report.commits);
  EXPECT_EQ(plain_report.restarts, audited_report.restarts);
  EXPECT_EQ(plain_report.blocks, audited_report.blocks);
  EXPECT_DOUBLE_EQ(plain_report.throughput.mean,
                   audited_report.throughput.mean);
  EXPECT_EQ(audited_report.audit_violations, 0)
      << audited.auditor()->Summary();
}

}  // namespace
}  // namespace ccsim
