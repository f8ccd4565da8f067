// Unit tests for static (conservative) two-phase locking.
#include <vector>

#include <gtest/gtest.h>

#include "cc/static_locking.h"
#include "fake_cc_engine.h"

namespace ccsim {
namespace {

constexpr TxnId kT1 = 1, kT2 = 2, kT3 = 3;
constexpr ObjectId kA = 10, kB = 20, kC = 30;

class StaticLockingTest : public testing::Test {
 protected:
  void SetUp() override {
    cc_.SetCallbacks(engine_.Callbacks(/*blame=*/true));
  }

  CCDecision Declare(TxnId txn, std::vector<ObjectId> reads,
                     std::vector<ObjectId> writes) {
    cc_.OnBegin(txn, 0, 0);
    return cc_.Predeclare(txn, reads, writes);
  }

  FakeCCEngine engine_{"static locking never wounds"};
  StaticLockingCC cc_;
};

TEST_F(StaticLockingTest, RequiresPredeclaration) {
  EXPECT_TRUE(cc_.needs_predeclaration());
}

TEST_F(StaticLockingTest, DisjointSetsRunConcurrently) {
  EXPECT_EQ(Declare(kT1, {kA, kB}, {kB}), CCDecision::kGranted);
  EXPECT_EQ(Declare(kT2, {kC}, {kC}), CCDecision::kGranted);
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kGranted);
  EXPECT_EQ(cc_.WriteRequest(kT2, kC), CCDecision::kGranted);
}

TEST_F(StaticLockingTest, SharedReadersCoexist) {
  EXPECT_EQ(Declare(kT1, {kA}, {}), CCDecision::kGranted);
  EXPECT_EQ(Declare(kT2, {kA}, {}), CCDecision::kGranted);
}

TEST_F(StaticLockingTest, WriterExcludesReaders) {
  EXPECT_EQ(Declare(kT1, {kA}, {kA}), CCDecision::kGranted);
  EXPECT_EQ(Declare(kT2, {kA}, {}), CCDecision::kBlocked);
  EXPECT_EQ(cc_.waiting_count(), 1u);

  cc_.Commit(kT1);
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(engine_.granted[0], kT2);
  EXPECT_EQ(cc_.waiting_count(), 0u);
}

TEST_F(StaticLockingTest, ReaderExcludesWriter) {
  EXPECT_EQ(Declare(kT1, {kA}, {}), CCDecision::kGranted);
  EXPECT_EQ(Declare(kT2, {kA, kB}, {kA}), CCDecision::kBlocked);
  cc_.Commit(kT1);
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(engine_.granted[0], kT2);
}

TEST_F(StaticLockingTest, AllOrNothingAcquisition) {
  // T1 holds B exclusively; T2 needs A (free) and B: it must hold NEITHER
  // while waiting — T3 can take A meanwhile.
  EXPECT_EQ(Declare(kT1, {kB}, {kB}), CCDecision::kGranted);
  EXPECT_EQ(Declare(kT2, {kA, kB}, {kA, kB}), CCDecision::kBlocked);
  EXPECT_EQ(Declare(kT3, {kA}, {kA}), CCDecision::kGranted);
  cc_.Commit(kT3);
  // T2 still blocked on B.
  EXPECT_TRUE(engine_.granted.empty());
  cc_.Commit(kT1);
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(engine_.granted[0], kT2);
}

TEST_F(StaticLockingTest, SmallWaiterOvertakesLargeOne) {
  EXPECT_EQ(Declare(kT1, {kA}, {kA}), CCDecision::kGranted);
  // T2 needs A and B; T3 needs only B. When T1 releases A... T2 was first
  // in line, but a release of something T3 needs lets T3 through if T2
  // still cannot run. Here: T1 also blocks nothing for T3, so T3 is granted
  // immediately; this test pins the no-reservation semantics.
  EXPECT_EQ(Declare(kT2, {kA, kB}, {kA, kB}), CCDecision::kBlocked);
  EXPECT_EQ(Declare(kT3, {kB}, {kB}), CCDecision::kGranted);
  cc_.Commit(kT1);
  // T2 needs B which T3 now holds: still blocked.
  EXPECT_TRUE(engine_.granted.empty());
  cc_.Commit(kT3);
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(engine_.granted[0], kT2);
}

TEST_F(StaticLockingTest, AbortOfWaiterLeavesQueue) {
  EXPECT_EQ(Declare(kT1, {kA}, {kA}), CCDecision::kGranted);
  EXPECT_EQ(Declare(kT2, {kA}, {kA}), CCDecision::kBlocked);
  cc_.Abort(kT2);
  EXPECT_EQ(cc_.waiting_count(), 0u);
  cc_.Commit(kT1);
  EXPECT_TRUE(engine_.granted.empty());
}

TEST_F(StaticLockingTest, MultipleWaitersGrantedTogetherWhenCompatible) {
  EXPECT_EQ(Declare(kT1, {kA}, {kA}), CCDecision::kGranted);
  EXPECT_EQ(Declare(kT2, {kA}, {}), CCDecision::kBlocked);
  EXPECT_EQ(Declare(kT3, {kA}, {}), CCDecision::kBlocked);
  cc_.Commit(kT1);
  // Both readers fit simultaneously.
  ASSERT_EQ(engine_.granted.size(), 2u);
  EXPECT_EQ(engine_.granted[0], kT2);
  EXPECT_EQ(engine_.granted[1], kT3);
}

TEST_F(StaticLockingTest, ReadOnlyDeclarationWorks) {
  EXPECT_EQ(Declare(kT1, {kA, kB, kC}, {}), CCDecision::kGranted);
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kGranted);
  EXPECT_TRUE(cc_.Validate(kT1));
  cc_.Commit(kT1);
}

TEST_F(StaticLockingTest, NoDeadlockOnCrossingSets) {
  // The canonical dynamic-2PL deadlock (T1: A then B, T2: B then A) cannot
  // happen: whoever declares second simply waits without holding anything.
  EXPECT_EQ(Declare(kT1, {kA, kB}, {kA, kB}), CCDecision::kGranted);
  EXPECT_EQ(Declare(kT2, {kB, kA}, {kB, kA}), CCDecision::kBlocked);
  cc_.Commit(kT1);
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(engine_.granted[0], kT2);
  cc_.Commit(kT2);
  EXPECT_EQ(cc_.waiting_count(), 0u);
}

// --- Blame: the exact opponent of a blocked predeclaration ---

using Blame = FakeCCEngine::Blame;

TEST_F(StaticLockingTest, BlockedWriteBlamesTheSmallestReader) {
  EXPECT_EQ(Declare(kT3, {kA}, {}), CCDecision::kGranted);
  EXPECT_EQ(Declare(kT2, {kA}, {}), CCDecision::kGranted);
  EXPECT_EQ(Declare(kT1, {kA}, {kA}), CCDecision::kBlocked);
  // The smallest reader, not the first one.
  EXPECT_EQ(engine_.blames,
            (std::vector<Blame>{Blame{kT1, kT2, kA, BlameKind::kBlock}}));
}

TEST_F(StaticLockingTest, BlockedReadBlamesTheWriter) {
  EXPECT_EQ(Declare(kT1, {kA}, {kA}), CCDecision::kGranted);
  EXPECT_EQ(Declare(kT2, {kA}, {}), CCDecision::kBlocked);
  EXPECT_EQ(engine_.blames,
            (std::vector<Blame>{Blame{kT2, kT1, kA, BlameKind::kBlock}}));
}

TEST_F(StaticLockingTest, BlameNamesAWrittenObjectBeforeTheReadOnes) {
  EXPECT_EQ(Declare(kT1, {kB}, {kB}), CCDecision::kGranted);
  EXPECT_EQ(Declare(kT2, {kA}, {}), CCDecision::kGranted);
  // B comes first in T3's reads, but written objects are tested first.
  EXPECT_EQ(Declare(kT3, {kB, kA}, {kA}), CCDecision::kBlocked);
  EXPECT_EQ(engine_.blames,
            (std::vector<Blame>{Blame{kT3, kT2, kA, BlameKind::kBlock}}));
}

// --- Safety checks ---

using StaticLockingDeathTest = StaticLockingTest;

TEST_F(StaticLockingDeathTest, AccessBeforePredeclaredGrantDies) {
  EXPECT_EQ(Declare(kT1, {kA}, {kA}), CCDecision::kGranted);
  EXPECT_EQ(Declare(kT2, {kA}, {kA}), CCDecision::kBlocked);
  EXPECT_DEATH(cc_.ReadRequest(kT2, kA), "access before predeclared grant");
  EXPECT_DEATH(cc_.WriteRequest(kT2, kA), "access before predeclared grant");
}

TEST_F(StaticLockingDeathTest, CommitOfAWaiterDies) {
  EXPECT_EQ(Declare(kT1, {kA}, {kA}), CCDecision::kGranted);
  EXPECT_EQ(Declare(kT2, {kA}, {}), CCDecision::kBlocked);
  EXPECT_DEATH(cc_.Commit(kT2), "commit without locks");
}

}  // namespace
}  // namespace ccsim
