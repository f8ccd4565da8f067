// Unit tests for the concurrency control algorithms, driven directly with
// a fake engine (no simulator).
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cc/dynamic_locking.h"
#include "cc/factory.h"
#include "cc/optimistic.h"
#include "cc/optimistic_forward.h"
#include "fake_cc_engine.h"

namespace ccsim {
namespace {

constexpr TxnId kT1 = 1, kT2 = 2, kT3 = 3;
constexpr ObjectId kA = 10, kB = 20;

// ---------------------------------------------------------------- Blocking

class BlockingTest : public testing::Test {
 protected:
  void SetUp() override { cc_.SetCallbacks(engine_.Callbacks()); }
  FakeCCEngine engine_;
  DynamicLockingCC cc_{ConflictRule::kBlock};
};

TEST_F(BlockingTest, GrantsNonConflictingReads) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 1, 1);
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kGranted);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kGranted);  // S-S compatible.
  EXPECT_EQ(cc_.ReadRequest(kT2, kB), CCDecision::kGranted);
}

TEST_F(BlockingTest, BlocksOnWriteReadConflict) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 1, 1);
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kGranted);
  EXPECT_EQ(cc_.WriteRequest(kT1, kA), CCDecision::kGranted);  // Upgrade OK.
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kBlocked);
  EXPECT_EQ(cc_.stats().lock_conflicts, 1);
}

TEST_F(BlockingTest, CommitReleasesAndGrantsWaiter) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 1, 1);
  cc_.ReadRequest(kT1, kA);
  cc_.WriteRequest(kT1, kA);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kBlocked);
  EXPECT_TRUE(cc_.Validate(kT1));  // Locking never fails validation.
  cc_.Commit(kT1);
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(engine_.granted[0], kT2);
}

TEST_F(BlockingTest, AbortReleasesAndGrantsWaiter) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 1, 1);
  cc_.ReadRequest(kT1, kA);
  cc_.WriteRequest(kT1, kA);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kBlocked);
  cc_.Abort(kT1);
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(engine_.granted[0], kT2);
}

TEST_F(BlockingTest, UpgradeDeadlockRestartsYoungest) {
  cc_.OnBegin(kT1, 0, 0);   // Older.
  cc_.OnBegin(kT2, 5, 5);   // Younger.
  cc_.ReadRequest(kT1, kA);
  cc_.ReadRequest(kT2, kA);
  EXPECT_EQ(cc_.WriteRequest(kT1, kA), CCDecision::kBlocked);
  // T2's upgrade closes the cycle; T2 is youngest => restart the requester.
  EXPECT_EQ(cc_.WriteRequest(kT2, kA), CCDecision::kRestart);
  EXPECT_EQ(cc_.stats().deadlocks_detected, 1);
  EXPECT_EQ(cc_.stats().deadlock_victims, 1);
  EXPECT_TRUE(engine_.wounded.empty());

  // Engine aborts the restarted incarnation; T1's upgrade then proceeds.
  cc_.Abort(kT2);
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(engine_.granted[0], kT1);
}

TEST_F(BlockingTest, UpgradeDeadlockWoundsYoungerWaiter) {
  cc_.OnBegin(kT1, 5, 5);  // Younger.
  cc_.OnBegin(kT2, 0, 0);  // Older.
  cc_.ReadRequest(kT1, kA);
  cc_.ReadRequest(kT2, kA);
  EXPECT_EQ(cc_.WriteRequest(kT1, kA), CCDecision::kBlocked);
  // T2 (older) requests the upgrade; the younger blocked T1 is the victim.
  EXPECT_EQ(cc_.WriteRequest(kT2, kA), CCDecision::kBlocked);
  ASSERT_EQ(engine_.wounded.size(), 1u);
  EXPECT_EQ(engine_.wounded[0], kT1);

  // Engine executes the wound; T2 is then granted.
  cc_.Abort(kT1);
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(engine_.granted[0], kT2);
}

TEST_F(BlockingTest, DoomedVictimNotChosenTwice) {
  cc_.OnBegin(kT1, 5, 5);
  cc_.OnBegin(kT2, 0, 0);
  cc_.OnBegin(kT3, 1, 1);
  cc_.ReadRequest(kT1, kA);
  cc_.ReadRequest(kT2, kA);
  cc_.WriteRequest(kT1, kA);              // T1 upgrade waits on T2.
  cc_.WriteRequest(kT2, kA);              // Cycle; wound T1 (younger).
  ASSERT_EQ(engine_.wounded.size(), 1u);
  // A third reader arriving now must not re-find the same cycle (T1 doomed).
  EXPECT_EQ(cc_.ReadRequest(kT3, kA), CCDecision::kBlocked);
  EXPECT_EQ(engine_.wounded.size(), 1u);
  EXPECT_EQ(cc_.stats().deadlocks_detected, 1);
}

TEST_F(BlockingTest, RestartedTxnReacquiresCleanly) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.ReadRequest(kT1, kA);
  cc_.Abort(kT1);
  cc_.OnBegin(kT1, 0, 7);  // New incarnation, same id.
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kGranted);
  EXPECT_TRUE(cc_.Validate(kT1));
  cc_.Commit(kT1);
}

// -------------------------------------------------------- ImmediateRestart

class ImmediateRestartTest : public testing::Test {
 protected:
  void SetUp() override { cc_.SetCallbacks(engine_.Callbacks()); }
  FakeCCEngine engine_;
  DynamicLockingCC cc_{ConflictRule::kRestart};
};

TEST_F(ImmediateRestartTest, GrantsWithoutConflict) {
  cc_.OnBegin(kT1, 0, 0);
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kGranted);
  EXPECT_EQ(cc_.WriteRequest(kT1, kA), CCDecision::kGranted);
  EXPECT_TRUE(cc_.Validate(kT1));
  cc_.Commit(kT1);
}

TEST_F(ImmediateRestartTest, ConflictMeansRestartNotBlock) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 1, 1);
  cc_.ReadRequest(kT1, kA);
  cc_.WriteRequest(kT1, kA);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kRestart);
  EXPECT_EQ(cc_.stats().lock_conflicts, 1);
  EXPECT_TRUE(engine_.granted.empty());
  EXPECT_TRUE(engine_.wounded.empty());
}

TEST_F(ImmediateRestartTest, UpgradeConflictRestarts) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 1, 1);
  cc_.ReadRequest(kT1, kA);
  cc_.ReadRequest(kT2, kA);
  EXPECT_EQ(cc_.WriteRequest(kT1, kA), CCDecision::kRestart);
  // T1 aborts; T2 can now upgrade.
  cc_.Abort(kT1);
  EXPECT_EQ(cc_.WriteRequest(kT2, kA), CCDecision::kGranted);
}

TEST_F(ImmediateRestartTest, SharedReadersCoexist) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 1, 1);
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kGranted);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kGranted);
}

// --------------------------------------------------------------- Optimistic

class OptimisticTest : public testing::Test {
 protected:
  void SetUp() override { cc_.SetCallbacks(engine_.Callbacks()); }
  FakeCCEngine engine_;
  OptimisticCC cc_;
};

TEST_F(OptimisticTest, NeverBlocksOrRestartsDuringExecution) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kGranted);
  EXPECT_EQ(cc_.WriteRequest(kT1, kA), CCDecision::kGranted);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kGranted);
  EXPECT_EQ(cc_.WriteRequest(kT2, kA), CCDecision::kGranted);
}

TEST_F(OptimisticTest, ValidationFailsOnCommittedWriteDuringLifetime) {
  engine_.now = 0;
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.ReadRequest(kT1, kA);
  cc_.WriteRequest(kT1, kA);
  cc_.ReadRequest(kT2, kA);

  ASSERT_TRUE(cc_.Validate(kT1));
  engine_.now = 100;
  cc_.Commit(kT1);  // Writes kA at t=100, inside T2's lifetime.
  EXPECT_EQ(cc_.LastCommittedWrite(kA), 100);

  engine_.now = 200;
  EXPECT_FALSE(cc_.Validate(kT2));
  EXPECT_EQ(cc_.stats().validation_failures, 1);
}

TEST_F(OptimisticTest, ValidationPassesWhenWritePredatesLifetime) {
  engine_.now = 0;
  cc_.OnBegin(kT1, 0, 0);
  cc_.ReadRequest(kT1, kA);
  cc_.WriteRequest(kT1, kA);
  ASSERT_TRUE(cc_.Validate(kT1));
  engine_.now = 100;
  cc_.Commit(kT1);

  // T2 starts *after* the commit; reading kA is consistent.
  cc_.OnBegin(kT2, 150, 150);
  cc_.ReadRequest(kT2, kA);
  engine_.now = 300;
  EXPECT_TRUE(cc_.Validate(kT2));
}

TEST_F(OptimisticTest, ValidationFailsAgainstInFlightWriter) {
  engine_.now = 0;
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.ReadRequest(kT1, kA);
  cc_.WriteRequest(kT1, kA);
  cc_.ReadRequest(kT2, kA);

  ASSERT_TRUE(cc_.Validate(kT1));  // T1 now flushing kA.
  // T1 has not committed yet, but T2 must still fail: T1's commit will land
  // inside T2's lifetime.
  EXPECT_FALSE(cc_.Validate(kT2));
}

TEST_F(OptimisticTest, ReadOnlyTransactionsAlwaysValidateAgainstOldData) {
  engine_.now = 0;
  cc_.OnBegin(kT1, 0, 0);
  cc_.ReadRequest(kT1, kB);
  engine_.now = 50;
  EXPECT_TRUE(cc_.Validate(kT1));
  cc_.Commit(kT1);
}

TEST_F(OptimisticTest, BlindRestartedIncarnationValidates) {
  engine_.now = 0;
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.ReadRequest(kT1, kA);
  cc_.ReadRequest(kT2, kA);
  cc_.WriteRequest(kT1, kA);
  ASSERT_TRUE(cc_.Validate(kT1));
  engine_.now = 100;
  cc_.Commit(kT1);

  engine_.now = 150;
  EXPECT_FALSE(cc_.Validate(kT2));
  cc_.Abort(kT2);

  // The new incarnation starts after T1's commit and succeeds.
  cc_.OnBegin(kT2, 0, 150);
  cc_.ReadRequest(kT2, kA);
  engine_.now = 250;
  EXPECT_TRUE(cc_.Validate(kT2));
  cc_.Commit(kT2);
}

TEST_F(OptimisticTest, AbortAfterValidationReleasesFlushClaim) {
  engine_.now = 0;
  cc_.OnBegin(kT1, 0, 0);
  cc_.ReadRequest(kT1, kA);
  cc_.WriteRequest(kT1, kA);
  ASSERT_TRUE(cc_.Validate(kT1));
  cc_.Abort(kT1);  // Extension path: abort between validate and commit.

  cc_.OnBegin(kT2, 0, 0);
  cc_.ReadRequest(kT2, kA);
  EXPECT_TRUE(cc_.Validate(kT2)) << "flush claim must be released on abort";
}

TEST_F(OptimisticTest, LastCommittedWriteUnwrittenIsNegative) {
  EXPECT_EQ(cc_.LastCommittedWrite(kB), -1);
}

// ---------------------------------------------------- Forward validation

class ForwardOptimisticTest : public testing::Test {
 protected:
  void SetUp() override { cc_.SetCallbacks(engine_.Callbacks()); }
  FakeCCEngine engine_;
  ForwardOptimisticCC cc_;
};

TEST_F(ForwardOptimisticTest, ValidatorKillsActiveReadersOfItsWrites) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.ReadRequest(kT1, kA);
  cc_.WriteRequest(kT1, kA);
  cc_.ReadRequest(kT2, kA);  // Still running when T1 validates.
  EXPECT_TRUE(cc_.Validate(kT1));
  ASSERT_EQ(engine_.wounded.size(), 1u);
  EXPECT_EQ(engine_.wounded[0], kT2);
  EXPECT_EQ(cc_.stats().wounds, 1);
  cc_.Abort(kT2);  // Engine executes the wound.
  cc_.Commit(kT1);
}

TEST_F(ForwardOptimisticTest, NonOverlappingTransactionsUnharmed) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.ReadRequest(kT1, kA);
  cc_.WriteRequest(kT1, kA);
  cc_.ReadRequest(kT2, kB);
  EXPECT_TRUE(cc_.Validate(kT1));
  EXPECT_TRUE(engine_.wounded.empty());
  cc_.Commit(kT1);
  EXPECT_TRUE(cc_.Validate(kT2));
  cc_.Commit(kT2);
}

TEST_F(ForwardOptimisticTest, ValidatedTransactionsAreNeverWounded) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.ReadRequest(kT1, kA);          // T1 reads what T2 writes...
  EXPECT_TRUE(cc_.Validate(kT1));    // ...but validates first.
  cc_.ReadRequest(kT2, kA);
  cc_.WriteRequest(kT2, kA);
  EXPECT_TRUE(cc_.Validate(kT2));
  EXPECT_TRUE(engine_.wounded.empty()) << "flushing T1 must not be killed";
  cc_.Commit(kT1);
  cc_.Commit(kT2);
}

TEST_F(ForwardOptimisticTest, ReadOfFlushingObjectWaits) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.ReadRequest(kT1, kA);
  cc_.WriteRequest(kT1, kA);
  EXPECT_TRUE(cc_.Validate(kT1));  // T1 flushing kA.
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kBlocked);
  cc_.Commit(kT1);
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(engine_.granted[0], kT2);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kGranted);
  EXPECT_TRUE(cc_.Validate(kT2));  // Reads the post-image: consistent.
  cc_.Commit(kT2);
}

TEST_F(ForwardOptimisticTest, DoomedReaderNotKilledTwice) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.OnBegin(kT3, 0, 0);
  cc_.ReadRequest(kT3, kA);
  cc_.WriteRequest(kT1, kA);
  cc_.WriteRequest(kT2, kB);
  cc_.ReadRequest(kT3, kB);
  EXPECT_TRUE(cc_.Validate(kT1));  // Kills T3 (read kA).
  ASSERT_EQ(engine_.wounded.size(), 1u);
  EXPECT_TRUE(cc_.Validate(kT2));  // T3 already doomed: no second wound.
  EXPECT_EQ(engine_.wounded.size(), 1u);
  cc_.Abort(kT3);
  cc_.Commit(kT1);
  cc_.Commit(kT2);
}

TEST_F(ForwardOptimisticTest, WriteDeclarationOfFlushingObjectWaits) {
  // Regression: under static write locking the engine declares a write
  // *instead of* a read; the declaration must honor the mid-flush rule or a
  // stale read slips past every check (found by the serializability sweep).
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.WriteRequest(kT1, kA);
  ASSERT_TRUE(cc_.Validate(kT1));  // T1 flushing kA.
  EXPECT_EQ(cc_.WriteRequest(kT2, kA), CCDecision::kBlocked);
  cc_.Commit(kT1);
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(cc_.WriteRequest(kT2, kA), CCDecision::kGranted);
  EXPECT_TRUE(cc_.Validate(kT2));
  cc_.Commit(kT2);
}

TEST_F(ForwardOptimisticTest, AbortedWaiterLeavesQueue) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.WriteRequest(kT1, kA);
  EXPECT_TRUE(cc_.Validate(kT1));
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kBlocked);
  cc_.Abort(kT2);  // Dies while waiting (engine-side restart).
  cc_.Commit(kT1);
  EXPECT_TRUE(engine_.granted.empty()) << "no stale wake-up";
}

// ---------------------------------------------------------- WoundWait/WaitDie

class WoundWaitTest : public testing::Test {
 protected:
  void SetUp() override { cc_.SetCallbacks(engine_.Callbacks()); }
  FakeCCEngine engine_;
  DynamicLockingCC cc_{ConflictRule::kWoundWait};
};

TEST_F(WoundWaitTest, OlderRequesterWoundsYoungerHolder) {
  cc_.OnBegin(kT1, 0, 0);    // Older.
  cc_.OnBegin(kT2, 10, 10);  // Younger.
  cc_.ReadRequest(kT2, kA);
  cc_.WriteRequest(kT2, kA);
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kBlocked);
  ASSERT_EQ(engine_.wounded.size(), 1u);
  EXPECT_EQ(engine_.wounded[0], kT2);
  EXPECT_EQ(cc_.stats().wounds, 1);

  cc_.Abort(kT2);  // Engine executes the wound.
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(engine_.granted[0], kT1);
}

TEST_F(WoundWaitTest, YoungerRequesterWaitsQuietly) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 10, 10);
  cc_.ReadRequest(kT1, kA);
  cc_.WriteRequest(kT1, kA);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kBlocked);
  EXPECT_TRUE(engine_.wounded.empty());
}

TEST_F(WoundWaitTest, TimestampSurvivesRestart) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 10, 10);
  cc_.ReadRequest(kT2, kA);
  cc_.WriteRequest(kT2, kA);
  cc_.ReadRequest(kT1, kA);   // Wounds T2.
  cc_.Abort(kT2);
  // T2 restarts with its *original* timestamp and meets T1 again: it waits
  // (younger), it does not wound.
  engine_.wounded.clear();
  cc_.OnBegin(kT2, 10, 99);
  cc_.WriteRequest(kT1, kA);  // T1 upgrades (sole holder now).
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kBlocked);
  EXPECT_TRUE(engine_.wounded.empty());
}

TEST_F(WoundWaitTest, SafetyNetBreaksUpgradeJumpCycle) {
  // An upgrade that jumps the queue adds a wait edge no wound examined; only
  // the cycle search finds the deadlock it closes. Ids run against age so
  // that the oldest and fewest-locks policies would pick O, not Y: the
  // search always restarts the youngest, whatever policy the factory got.
  constexpr TxnId kQ = 1, kY = 2, kH = 3, kO = 4;
  for (VictimPolicy policy : {VictimPolicy::kYoungest, VictimPolicy::kOldest,
                              VictimPolicy::kFewestLocks}) {
    SCOPED_TRACE(static_cast<int>(policy));
    FakeCCEngine engine;
    std::unique_ptr<ConcurrencyControl> cc =
        MakeConcurrencyControl("wound_wait", policy);
    cc->SetCallbacks(engine.Callbacks());
    cc->OnBegin(kO, 0, 0);
    cc->OnBegin(kH, 5, 5);
    cc->OnBegin(kY, 10, 10);
    cc->OnBegin(kQ, 20, 20);
    EXPECT_EQ(cc->ReadRequest(kO, kB), CCDecision::kGranted);
    EXPECT_EQ(cc->ReadRequest(kY, kA), CCDecision::kGranted);
    EXPECT_EQ(cc->ReadRequest(kH, kA), CCDecision::kGranted);
    // Q, the youngest, waits for the readers of A.
    EXPECT_EQ(cc->WriteRequest(kQ, kA), CCDecision::kBlocked);
    // O queues behind Q and wounds it.
    EXPECT_EQ(cc->ReadRequest(kO, kA), CCDecision::kBlocked);
    // Y's upgrade jumps ahead of O and waits for the older H.
    EXPECT_EQ(cc->WriteRequest(kY, kA), CCDecision::kBlocked);
    // H waits for the older O: H -> O -> Y -> H, and no rule wounds anyone.
    EXPECT_EQ(cc->WriteRequest(kH, kB), CCDecision::kBlocked);
    EXPECT_EQ(engine.wounded, (std::vector<TxnId>{kQ, kY}));
    EXPECT_EQ(cc->stats().wounds, 1);
    EXPECT_EQ(cc->stats().deadlocks_detected, 1);
    EXPECT_EQ(cc->stats().deadlock_victims, 1);
  }
}

class WaitDieTest : public testing::Test {
 protected:
  void SetUp() override { cc_.SetCallbacks(engine_.Callbacks()); }
  FakeCCEngine engine_;
  DynamicLockingCC cc_{ConflictRule::kWaitDie};
};

TEST_F(WaitDieTest, OlderRequesterWaits) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 10, 10);
  cc_.ReadRequest(kT2, kA);
  cc_.WriteRequest(kT2, kA);
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kBlocked);
  EXPECT_TRUE(engine_.wounded.empty());
}

TEST_F(WaitDieTest, YoungerRequesterDies) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 10, 10);
  cc_.ReadRequest(kT1, kA);
  cc_.WriteRequest(kT1, kA);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kRestart);
  EXPECT_TRUE(engine_.wounded.empty());
}

TEST_F(WaitDieTest, GrantAfterHolderCommits) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 10, 10);
  cc_.ReadRequest(kT2, kA);
  cc_.WriteRequest(kT2, kA);
  cc_.ReadRequest(kT1, kA);  // Older waits.
  EXPECT_TRUE(cc_.Validate(kT2));
  cc_.Commit(kT2);
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(engine_.granted[0], kT1);
}

// ------------------------------------------------------------------ Factory

TEST(FactoryTest, MakesAllAlgorithms) {
  for (const std::string& name : AllAlgorithms()) {
    auto cc = MakeConcurrencyControl(name);
    ASSERT_NE(cc, nullptr);
    EXPECT_EQ(cc->name(), name);
  }
}

TEST(FactoryTest, PaperAlgorithmsAreTheThree) {
  const auto& algorithms = PaperAlgorithms();
  ASSERT_EQ(algorithms.size(), 3u);
  EXPECT_EQ(algorithms[0], "blocking");
  EXPECT_EQ(algorithms[1], "immediate_restart");
  EXPECT_EQ(algorithms[2], "optimistic");
}

TEST(FactoryTest, DefaultRestartDelays) {
  EXPECT_EQ(DefaultRestartDelayMode("blocking"), RestartDelayMode::kNone);
  EXPECT_EQ(DefaultRestartDelayMode("optimistic"), RestartDelayMode::kNone);
  EXPECT_EQ(DefaultRestartDelayMode("wound_wait"), RestartDelayMode::kNone);
  EXPECT_EQ(DefaultRestartDelayMode("immediate_restart"),
            RestartDelayMode::kAdaptive);
  EXPECT_EQ(DefaultRestartDelayMode("wait_die"), RestartDelayMode::kAdaptive);
}

TEST(FactoryDeathTest, UnknownAlgorithmAborts) {
  EXPECT_DEATH(MakeConcurrencyControl("two_phase_majick"), "unknown");
}

}  // namespace
}  // namespace ccsim
