// Randomized stress tests ("fuzz") for the lock manager and the static
// locking table: long random sequences of requests and releases, with
// invariants checked after every step. Deterministic seeds keep failures
// reproducible.
#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "cc/deadlock.h"
#include "cc/lock_manager.h"
#include "reference_cycle.h"
#include "util/random.h"

namespace ccsim {
namespace {

/// Reference cycle search: the straightforward DFS over materialized
/// BlockersOf sets (ascending, excluded ones removed), testing `next ==
/// start` before the visited set. The detector must agree with it exactly.
std::vector<TxnId> ReferenceFindCycle(const LockManager& lm, TxnId start,
                                      const SmallIdSet& excluded) {
  struct Frame {
    TxnId txn;
    std::vector<TxnId> blockers;
    size_t next = 0;
  };
  std::vector<Frame> path;
  SmallIdSet visited = {start};
  auto push = [&](TxnId txn) {
    Frame frame{txn, lm.BlockersOf(txn)};
    std::erase_if(frame.blockers,
                  [&](TxnId b) { return excluded.count(b) > 0; });
    path.push_back(std::move(frame));
  };
  push(start);
  while (!path.empty()) {
    Frame& frame = path.back();
    if (frame.next == frame.blockers.size()) {
      path.pop_back();
      continue;
    }
    const TxnId next = frame.blockers[frame.next++];
    if (next == start) {
      std::vector<TxnId> cycle;
      for (const Frame& member : path) cycle.push_back(member.txn);
      return cycle;
    }
    if (visited.insert(next)) push(next);
  }
  return {};
}

/// Random op mix over a small object space; verifies after each op:
///  * a waiting transaction always has at least one blocker (else the
///    prefix-grant rule should have granted it),
///  * grants returned by ReleaseAll were actually waiting beforehand,
///  * a granted waiter holds the lock it asked for,
///  * no transaction both waits and is absent from the blocker relation,
///  * against a random excluded subset, HasWaitersBlockedBy agrees with its
///    brute-force definition over BlockersOf, and the detector finds the
///    reference search's cycle through every waiter (the one lock manager
///    lives for the whole run, so this checks the search's visit stamps on
///    recycled transaction records),
///  * against a random doomed subset, the deep AuditCheck reports nothing
///    but the reference's waits-for cycle among non-doomed waiters, if any.
class LockFuzzer {
 public:
  // The subsets draw from their own streams, so the op sequence of a seed
  // does not depend on how many subsets are drawn.
  explicit LockFuzzer(uint64_t seed)
      : rng_(seed),
        subset_rng_(~seed),
        doomed_rng_(seed ^ 0x9e3779b97f4a7c15) {}

  /// Deep checks so far that reported a waits-for cycle.
  int cycles_reported() const { return cycles_reported_; }

  void Run(int steps, int num_txns, int num_objects) {
    for (int step = 0; step < steps; ++step) {
      TxnId txn = rng_.UniformInt(1, num_txns);
      if (waiting_.count(txn) > 0 || rng_.Bernoulli(0.25)) {
        // Waiting transactions can only release (deadlock victim style);
        // active ones release with probability 1/4.
        DoRelease(txn);
      } else {
        DoRequest(txn, rng_.UniformInt(1, num_objects),
                  rng_.Bernoulli(0.3) ? LockMode::kExclusive
                                      : LockMode::kShared);
      }
      CheckInvariants(num_txns);
    }
    // Drain: release everything; nobody may remain waiting.
    for (TxnId txn = 1; txn <= num_txns; ++txn) DoRelease(txn);
    EXPECT_EQ(lm_.waiting_txns(), 0u);
    EXPECT_EQ(lm_.locked_objects(), 0u);
  }

 private:
  void DoRequest(TxnId txn, ObjectId obj, LockMode mode) {
    // Skip requests that would be no-ops or invalid per the API contract.
    if (lm_.IsWaiting(txn)) return;
    LockRequestOutcome outcome = lm_.Request(txn, obj, mode, true);
    if (outcome == LockRequestOutcome::kWaiting) {
      waiting_.insert(txn);
      wanted_[txn] = {obj, mode};
    }
  }

  void DoRelease(TxnId txn) {
    std::vector<TxnId> granted = lm_.ReleaseAll(txn);
    waiting_.erase(txn);
    wanted_.erase(txn);
    for (TxnId g : granted) {
      // Only transactions recorded as waiting may be granted, and the grant
      // must deliver the requested lock.
      ASSERT_EQ(waiting_.count(g), 1u) << "grant to non-waiter " << g;
      auto [obj, mode] = wanted_.at(g);
      EXPECT_TRUE(lm_.HoldsAtLeast(g, obj, mode));
      EXPECT_FALSE(lm_.IsWaiting(g));
      waiting_.erase(g);
      wanted_.erase(g);
    }
  }

  void CheckInvariants(int num_txns) {
    ASSERT_EQ(lm_.waiting_txns(), waiting_.size());
    for (TxnId txn : waiting_) {
      ASSERT_TRUE(lm_.IsWaiting(txn));
      // A waiter with no blockers should have been granted.
      EXPECT_FALSE(lm_.BlockersOf(txn).empty()) << "stuck waiter " << txn;
    }
    for (TxnId txn = 1; txn <= num_txns; ++txn) {
      if (waiting_.count(txn) == 0) {
        EXPECT_FALSE(lm_.IsWaiting(txn));
      }
    }
    CheckBlockerQueries(num_txns);
    CheckDeepAudit(num_txns);
  }

  /// The detector's pre-check against brute force over the materialized
  /// BlockersOf sets for every transaction, and its search against the
  /// reference search for every waiter.
  void CheckBlockerQueries(int num_txns) {
    SmallIdSet excluded;
    for (TxnId txn = 1; txn <= num_txns; ++txn) {
      if (subset_rng_.Bernoulli(0.3)) excluded.insert(txn);
    }
    std::unordered_map<TxnId, std::vector<TxnId>> blockers;
    for (TxnId waiter : waiting_) blockers[waiter] = lm_.BlockersOf(waiter);
    for (TxnId txn = 1; txn <= num_txns; ++txn) {
      bool blocks_a_waiter = false;
      for (const auto& [waiter, of_waiter] : blockers) {
        blocks_a_waiter |=
            excluded.count(waiter) == 0 &&
            std::find(of_waiter.begin(), of_waiter.end(), txn) !=
                of_waiter.end();
      }
      EXPECT_EQ(lm_.HasWaitersBlockedBy(txn, excluded), blocks_a_waiter)
          << "txn " << txn;
    }
    for (TxnId waiter : waiting_) {
      EXPECT_EQ(detector_.FindCycle(waiter, excluded),
                ReferenceFindCycle(lm_, waiter, excluded))
          << "txn " << waiter;
    }
  }

  /// The deep check against the reference search over materialized
  /// BlockersOf sets, with doomed waiters and blockers left out.
  void CheckDeepAudit(int num_txns) {
    SmallIdSet doomed;
    for (TxnId txn = 1; txn <= num_txns; ++txn) {
      if (doomed_rng_.Bernoulli(0.2)) doomed.insert(txn);
    }
    ReferenceGraph graph;
    for (TxnId waiter : waiting_) {
      if (doomed.count(waiter) > 0) continue;
      std::set<TxnId>& blockers = graph[waiter];
      for (TxnId blocker : lm_.BlockersOf(waiter)) {
        if (doomed.count(blocker) == 0) blockers.insert(blocker);
      }
    }
    using Report = std::tuple<std::string, TxnId, std::string>;
    std::vector<Report> expected;
    const std::vector<TxnId> cycle = ReferenceWaitsForCycle(graph);
    if (!cycle.empty()) {
      std::string detail = "waits-for cycle with no pending resolution:";
      for (TxnId member : cycle) {
        detail += " ";
        detail += std::to_string(member);
      }
      expected.emplace_back(
          AuditInvariantName(AuditInvariant::kPermanentBlock), cycle.front(),
          detail);
      ++cycles_reported_;
    }
    Auditor auditor;
    lm_.AuditCheck(&auditor, doomed);
    std::vector<Report> reports;
    for (const AuditViolation& violation : auditor.violations()) {
      reports.emplace_back(AuditInvariantName(violation.invariant),
                           violation.txn, violation.detail);
    }
    EXPECT_EQ(reports, expected);
  }

  Rng rng_;
  Rng subset_rng_;
  Rng doomed_rng_;
  int cycles_reported_ = 0;
  LockManager lm_;
  DeadlockDetector detector_{&lm_, VictimPolicy::kYoungest};
  std::unordered_set<TxnId> waiting_;
  std::unordered_map<TxnId, std::pair<ObjectId, LockMode>> wanted_;
};

TEST(LockFuzzTest, SmallHotSpace) {
  LockFuzzer(1).Run(/*steps=*/4000, /*num_txns=*/6, /*num_objects=*/3);
}

TEST(LockFuzzTest, MediumSpace) {
  LockFuzzer(2).Run(4000, 20, 10);
}

TEST(LockFuzzTest, ManyTransactionsFewObjects) {
  LockFuzzer(3).Run(4000, 40, 2);
}

TEST(LockFuzzTest, MultipleSeeds) {
  for (uint64_t seed = 10; seed < 18; ++seed) {
    LockFuzzer(seed).Run(1500, 12, 5);
  }
}

TEST(LockFuzzTest, DeepCheckMeetsUnresolvedCycles) {
  // Nothing resolves deadlocks here: a cycle lasts until one of its members
  // is picked to release, so many deep checks must have had one to report.
  LockFuzzer fuzzer(4);
  fuzzer.Run(4000, 20, 10);
  EXPECT_GT(fuzzer.cycles_reported(), 100);
}

/// Exactness fuzz: on random lock tables (built without resolving, so
/// cycles need not pass through the last requester) and random doomed sets,
/// FindCycle must return the reference's cycle for every transaction, and
/// Resolve must find the same cycles and pick the same victims as the
/// reference loop (youngest member, ties to the larger id). Small tables
/// come first; the wide ones after them (up to 40 transactions over 8
/// objects) give the search deep stacks of wide frames, whose blocker
/// ranges share one scratch vector.
TEST(DeadlockFuzzTest, MatchesReferenceSearchCycleForCycle) {
  struct InputRange {
    int rounds;
    int64_t min_txns, max_txns, max_objects;
    int steps;
  };
  Rng rng(7);
  int cycles_seen = 0;
  size_t longest_wide_cycle = 0;
  for (const InputRange& range :
       {InputRange{300, 2, 10, 5, 40}, InputRange{40, 10, 40, 8, 160}}) {
    const bool wide = range.max_txns > 10;
    for (int round = 0; round < range.rounds; ++round) {
      LockManager lm;
      DeadlockDetector detector(&lm, VictimPolicy::kYoungest);
      const int txns =
          static_cast<int>(rng.UniformInt(range.min_txns, range.max_txns));
      const int objects =
          static_cast<int>(rng.UniformInt(1, range.max_objects));
      TxnSlotMap<SimTime> starts;
      for (TxnId t = 1; t <= txns; ++t) {
        starts.Insert(t) = rng.UniformInt(0, 4);
      }
      for (int step = 0; step < range.steps; ++step) {
        const TxnId txn = rng.UniformInt(1, txns);
        if (lm.IsWaiting(txn)) continue;
        lm.Request(
            txn, rng.UniformInt(1, objects),
            rng.Bernoulli(0.4) ? LockMode::kExclusive : LockMode::kShared,
            true);
      }
      SmallIdSet doomed;
      for (TxnId t = 1; t <= txns; ++t) {
        if (rng.Bernoulli(0.2)) doomed.insert(t);
      }

      for (TxnId txn = 1; txn <= txns; ++txn) {
        ASSERT_EQ(detector.FindCycle(txn, doomed),
                  ReferenceFindCycle(lm, txn, doomed))
            << "round " << round << " txn " << txn;

        const DeadlockResolution resolution =
            detector.Resolve(txn, doomed, starts);
        SmallIdSet excluded = doomed;
        std::vector<int> lengths;
        std::vector<TxnId> victims;
        bool requester_is_victim = false;
        for (;;) {
          const std::vector<TxnId> cycle =
              ReferenceFindCycle(lm, txn, excluded);
          if (cycle.empty()) break;
          EXPECT_EQ(detector.FindCycle(txn, excluded), cycle);
          ++cycles_seen;
          if (wide) {
            longest_wide_cycle = std::max(longest_wide_cycle, cycle.size());
          }
          lengths.push_back(static_cast<int>(cycle.size()));
          TxnId victim = cycle.front();
          for (TxnId member : cycle) {
            if (starts.At(member) > starts.At(victim) ||
                (starts.At(member) == starts.At(victim) && member > victim)) {
              victim = member;
            }
          }
          if (victim == txn) {
            requester_is_victim = true;
            break;
          }
          victims.push_back(victim);
          excluded.insert(victim);
        }
        EXPECT_EQ(resolution.cycles_found, static_cast<int>(lengths.size()));
        EXPECT_EQ(resolution.cycle_lengths, lengths);
        EXPECT_EQ(resolution.victims, victims);
        EXPECT_EQ(resolution.requester_is_victim, requester_is_victim);
      }
    }
  }
  EXPECT_GT(cycles_seen, 100) << "the fuzz built too few deadlocks";
  EXPECT_GE(longest_wide_cycle, 6u) << "the wide tables built no deep cycle";
}

/// Deadlock-detector fuzz: build random wait graphs via the lock manager,
/// resolve from each newly blocked requester, and assert the resolution
/// leaves no cycle through the requester.
TEST(DeadlockFuzzTest, ResolutionAlwaysClearsRequesterCycles) {
  Rng rng(99);
  for (int round = 0; round < 60; ++round) {
    LockManager lm;
    DeadlockDetector detector(&lm, VictimPolicy::kYoungest);
    TxnSlotMap<SimTime> starts;
    const int txns = 8, objects = 5;
    for (TxnId t = 1; t <= txns; ++t) starts.Insert(t) = t;

    SmallIdSet doomed;
    for (int step = 0; step < 80; ++step) {
      TxnId txn = rng.UniformInt(1, txns);
      if (lm.IsWaiting(txn) || doomed.count(txn) > 0) continue;
      ObjectId obj = rng.UniformInt(1, objects);
      LockMode mode = rng.Bernoulli(0.4) ? LockMode::kExclusive
                                         : LockMode::kShared;
      if (lm.Request(txn, obj, mode, true) == LockRequestOutcome::kWaiting) {
        DeadlockResolution resolution = detector.Resolve(txn, doomed, starts);
        if (resolution.requester_is_victim) {
          lm.ReleaseAll(txn);
          continue;
        }
        for (TxnId victim : resolution.victims) doomed.insert(victim);
        // After dooming the victims, no cycle through the requester remains.
        EXPECT_TRUE(detector.FindCycle(txn, doomed).empty());
      }
      // Occasionally execute pending dooms (engine behavior).
      if (rng.Bernoulli(0.3)) {
        for (TxnId victim : doomed) lm.ReleaseAll(victim);
        doomed.clear();
      }
    }
  }
}

}  // namespace
}  // namespace ccsim
