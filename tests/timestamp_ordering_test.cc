// Unit tests for basic and multiversion timestamp ordering, driven directly
// with a fake engine. Timestamps are assigned per OnBegin, so test
// "age" is controlled by begin order.
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cc/basic_to.h"
#include "cc/mvto.h"
#include "fake_cc_engine.h"

namespace ccsim {
namespace {

constexpr TxnId kT1 = 1, kT2 = 2, kT3 = 3;
constexpr ObjectId kA = 10, kB = 20;

// ----------------------------------------------------------------- BasicTO

class BasicToTest : public testing::Test {
 protected:
  void SetUp() override { cc_.SetCallbacks(engine_.Callbacks()); }
  FakeCCEngine engine_{"T/O algorithms never wound"};
  BasicTimestampOrderingCC cc_;
};

TEST_F(BasicToTest, TimestampsIncreaseAcrossBeginsAndRestarts) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  EXPECT_LT(cc_.TimestampOf(kT1), cc_.TimestampOf(kT2));
  uint64_t old_ts = cc_.TimestampOf(kT1);
  cc_.Abort(kT1);
  cc_.OnBegin(kT1, 0, 5);
  EXPECT_GT(cc_.TimestampOf(kT1), old_ts);  // Fresh, larger timestamp.
  EXPECT_GT(cc_.TimestampOf(kT1), cc_.TimestampOf(kT2));
}

TEST_F(BasicToTest, ReadAfterNewerCommittedWriteRestarts) {
  cc_.OnBegin(kT1, 0, 0);  // Older.
  cc_.OnBegin(kT2, 0, 0);  // Newer.
  EXPECT_EQ(cc_.WriteRequest(kT2, kA), CCDecision::kGranted);
  cc_.Commit(kT2);
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kRestart);
  EXPECT_EQ(cc_.stats().timestamp_rejections, 1);
}

TEST_F(BasicToTest, ReadBlocksOnOlderPendingWriteThenProceeds) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  EXPECT_EQ(cc_.WriteRequest(kT1, kA), CCDecision::kGranted);  // Pending.
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kBlocked);
  EXPECT_TRUE(engine_.granted.empty());

  cc_.Commit(kT1);
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(engine_.granted[0], kT2);
  // Re-issued request now succeeds (wts = T1's ts < T2's ts).
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kGranted);
}

TEST_F(BasicToTest, OlderReadIgnoresNewerPendingWrite) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  EXPECT_EQ(cc_.WriteRequest(kT2, kA), CCDecision::kGranted);  // Newer pending.
  // T1 (older) reads the committed state; the pending write does not block it.
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kGranted);
}

TEST_F(BasicToTest, WriteAfterNewerReadRestarts) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kGranted);  // rts = ts(T2).
  EXPECT_EQ(cc_.WriteRequest(kT1, kA), CCDecision::kRestart);
}

TEST_F(BasicToTest, WriteAfterNewerCommittedWriteRestarts) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.WriteRequest(kT2, kA);
  cc_.Commit(kT2);
  EXPECT_EQ(cc_.WriteRequest(kT1, kA), CCDecision::kRestart);
}

TEST_F(BasicToTest, OwnReadDoesNotBlockOwnWrite) {
  cc_.OnBegin(kT1, 0, 0);
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kGranted);
  EXPECT_EQ(cc_.WriteRequest(kT1, kA), CCDecision::kGranted);
  cc_.Commit(kT1);
}

TEST_F(BasicToTest, NewerPrewriteWaitsBehindOlderPending) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  EXPECT_EQ(cc_.WriteRequest(kT1, kA), CCDecision::kGranted);
  EXPECT_EQ(cc_.WriteRequest(kT2, kA), CCDecision::kBlocked);

  cc_.Commit(kT1);
  ASSERT_EQ(engine_.granted.size(), 1u);
  // T2's re-issued prewrite becomes the new pending write.
  EXPECT_EQ(cc_.WriteRequest(kT2, kA), CCDecision::kGranted);
  cc_.Commit(kT2);
}

TEST_F(BasicToTest, OlderPrewriteBehindNewerPendingRestarts) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  EXPECT_EQ(cc_.WriteRequest(kT2, kA), CCDecision::kGranted);  // Newer pending.
  EXPECT_EQ(cc_.WriteRequest(kT1, kA), CCDecision::kRestart);
}

TEST_F(BasicToTest, AbortDiscardsPendingAndWakesWaiters) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.WriteRequest(kT1, kA);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kBlocked);

  cc_.Abort(kT1);
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(engine_.granted[0], kT2);
  // Nothing was published: the read sees the old state and succeeds.
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kGranted);
}

TEST_F(BasicToTest, AbortedWaiterLeavesQueue) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.WriteRequest(kT1, kA);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kBlocked);
  cc_.Abort(kT2);  // Waiter dies while queued (e.g. engine-side restart).
  cc_.Commit(kT1);
  EXPECT_TRUE(engine_.granted.empty());  // No stale wake-up.
}

TEST_F(BasicToTest, IdempotentPrewriteReRequest) {
  cc_.OnBegin(kT1, 0, 0);
  EXPECT_EQ(cc_.WriteRequest(kT1, kA), CCDecision::kGranted);
  EXPECT_EQ(cc_.WriteRequest(kT1, kA), CCDecision::kGranted);
  cc_.Commit(kT1);
}

TEST_F(BasicToTest, RestartWithFreshTimestampSucceeds) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.WriteRequest(kT2, kA);
  cc_.Commit(kT2);
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kRestart);
  cc_.Abort(kT1);
  cc_.OnBegin(kT1, 0, 9);  // New incarnation: newest timestamp.
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kGranted);
}

// -------------------------------------------------------------------- MVTO

class MvtoTest : public testing::Test {
 protected:
  void SetUp() override { cc_.SetCallbacks(engine_.Callbacks()); }
  FakeCCEngine engine_{"T/O algorithms never wound"};
  MultiversionTimestampOrderingCC cc_;
};

TEST_F(MvtoTest, OlderReadSucceedsAgainstNewerCommittedWrite) {
  // The defining difference from basic T/O: the old version is still there.
  cc_.OnBegin(kT1, 0, 0);  // Older.
  cc_.OnBegin(kT2, 0, 0);  // Newer.
  cc_.WriteRequest(kT2, kA);
  cc_.Commit(kT2);
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kGranted);
  ASSERT_EQ(engine_.version_reads.size(), 1u);
  EXPECT_EQ(engine_.version_reads[0].first, kA);
  EXPECT_EQ(engine_.version_reads[0].second, kInvalidTxn);  // Initial version.
}

TEST_F(MvtoTest, NewerReadObservesCommittedVersion) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.WriteRequest(kT1, kA);
  cc_.Commit(kT1);
  cc_.OnBegin(kT2, 0, 0);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kGranted);
  ASSERT_EQ(engine_.version_reads.size(), 1u);
  EXPECT_EQ(engine_.version_reads[0].second, kT1);
}

TEST_F(MvtoTest, ReaderBetweenTwoVersionsSeesTheOlderOne) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.WriteRequest(kT1, kA);
  cc_.Commit(kT1);
  cc_.OnBegin(kT2, 0, 0);  // Reader's timestamp is between T1 and T3.
  cc_.OnBegin(kT3, 0, 0);
  cc_.WriteRequest(kT3, kA);
  cc_.Commit(kT3);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kGranted);
  ASSERT_EQ(engine_.version_reads.size(), 1u);
  EXPECT_EQ(engine_.version_reads[0].second, kT1);
}

TEST_F(MvtoTest, WriteRejectedWhenLaterReaderSawPriorVersion) {
  cc_.OnBegin(kT1, 0, 0);  // Older writer.
  cc_.OnBegin(kT2, 0, 0);  // Newer reader.
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kGranted);  // Reads init.
  // T1's write would create the version T2 *should* have read.
  EXPECT_EQ(cc_.WriteRequest(kT1, kA), CCDecision::kRestart);
  EXPECT_EQ(cc_.stats().timestamp_rejections, 1);
}

TEST_F(MvtoTest, WriteAllowedWhenReadersAreOlder) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kGranted);
  EXPECT_EQ(cc_.WriteRequest(kT2, kA), CCDecision::kGranted);
  cc_.Commit(kT2);
}

TEST_F(MvtoTest, ReaderBlocksOnOlderPendingWrite) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.WriteRequest(kT1, kA);  // Pending older write.
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kBlocked);

  cc_.Commit(kT1);
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kGranted);
  ASSERT_EQ(engine_.version_reads.size(), 1u);
  EXPECT_EQ(engine_.version_reads[0].second, kT1);  // The fresh version.
}

TEST_F(MvtoTest, OlderReaderIgnoresNewerPendingWrite) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.WriteRequest(kT2, kA);  // Newer pending.
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kGranted);
  ASSERT_EQ(engine_.version_reads.size(), 1u);
  EXPECT_EQ(engine_.version_reads[0].second, kInvalidTxn);
}

TEST_F(MvtoTest, ConcurrentPendingWritesCoexist) {
  // No write-write conflicts in a multiversion store.
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  EXPECT_EQ(cc_.WriteRequest(kT1, kA), CCDecision::kGranted);
  EXPECT_EQ(cc_.WriteRequest(kT2, kA), CCDecision::kGranted);
  cc_.Commit(kT2);  // Newer commits first.
  cc_.Commit(kT1);
  EXPECT_EQ(cc_.VersionCount(kA), 3u);  // init + two versions.

  // A fresh reader sees the *timestamp-latest* version (T2), not the one
  // committed last (T1).
  cc_.OnBegin(kT3, 0, 0);
  EXPECT_EQ(cc_.ReadRequest(kT3, kA), CCDecision::kGranted);
  ASSERT_EQ(engine_.version_reads.size(), 1u);
  EXPECT_EQ(engine_.version_reads[0].second, kT2);
}

TEST_F(MvtoTest, AbortDiscardsPendingVersion) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.WriteRequest(kT1, kA);
  cc_.Abort(kT1);
  cc_.OnBegin(kT2, 0, 0);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kGranted);
  ASSERT_EQ(engine_.version_reads.size(), 1u);
  EXPECT_EQ(engine_.version_reads[0].second, kInvalidTxn);
}

TEST_F(MvtoTest, AbortUnblocksWaitingReader) {
  cc_.OnBegin(kT1, 0, 0);
  cc_.OnBegin(kT2, 0, 0);
  cc_.WriteRequest(kT1, kA);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kBlocked);
  cc_.Abort(kT1);
  ASSERT_EQ(engine_.granted.size(), 1u);
  EXPECT_EQ(cc_.ReadRequest(kT2, kA), CCDecision::kGranted);
}

TEST_F(MvtoTest, ReadsNeverRestart) {
  // Exercise a batch of interleavings; no read may ever return kRestart.
  for (int round = 0; round < 10; ++round) {
    TxnId writer = 100 + round * 2;
    TxnId reader = 101 + round * 2;
    cc_.OnBegin(writer, 0, 0);
    cc_.OnBegin(reader, 0, 0);
    cc_.WriteRequest(writer, kB);
    cc_.Commit(writer);
    CCDecision d = cc_.ReadRequest(reader, kB);
    EXPECT_NE(d, CCDecision::kRestart);
    if (d == CCDecision::kGranted) cc_.Commit(reader); else cc_.Abort(reader);
  }
}

TEST_F(MvtoTest, GarbageCollectionBoundsVersionCount) {
  // Sequential writers with no concurrent readers: old versions become
  // unreachable and must be collected once past the threshold.
  for (int i = 0; i < 500; ++i) {
    TxnId txn = 1000 + i;
    cc_.OnBegin(txn, 0, 0);
    cc_.WriteRequest(txn, kA);
    cc_.Commit(txn);
  }
  EXPECT_LE(cc_.VersionCount(kA), 66u);
  // The newest version must survive GC.
  cc_.OnBegin(kT1, 0, 0);
  EXPECT_EQ(cc_.ReadRequest(kT1, kA), CCDecision::kGranted);
  EXPECT_EQ(engine_.version_reads.back().second, 1000 + 499);
}

}  // namespace
}  // namespace ccsim
