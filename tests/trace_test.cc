// Tests for the lifecycle trace subsystem: unit tests for the validator's
// grammar, and engine integration asserting every algorithm emits
// well-formed traces under contention.
#include <iterator>
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "core/closed_system.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace ccsim {
namespace {

TraceRecord R(SimTime t, TxnId txn, int inc, TxnEvent e) {
  return TraceRecord{t, txn, inc, e};
}

TEST(TraceValidatorTest, WellFormedLifetime) {
  std::vector<TraceRecord> records = {
      R(0, 1, 0, TxnEvent::kSubmitted),  R(1, 1, 1, TxnEvent::kActivated),
      R(2, 1, 1, TxnEvent::kBlocked),    R(3, 1, 1, TxnEvent::kResumed),
      R(4, 1, 1, TxnEvent::kRestarted),  R(5, 1, 2, TxnEvent::kActivated),
      R(6, 1, 2, TxnEvent::kCommitted),
  };
  EXPECT_TRUE(ValidateTrace(records).ok);
}

TEST(TraceValidatorTest, InterleavedTransactionsAreIndependent) {
  std::vector<TraceRecord> records = {
      R(0, 1, 0, TxnEvent::kSubmitted), R(0, 2, 0, TxnEvent::kSubmitted),
      R(1, 2, 1, TxnEvent::kActivated), R(1, 1, 1, TxnEvent::kActivated),
      R(2, 1, 1, TxnEvent::kCommitted), R(3, 2, 1, TxnEvent::kCommitted),
  };
  EXPECT_TRUE(ValidateTrace(records).ok);
}

TEST(TraceValidatorTest, CatchesCommitWithoutActivation) {
  std::vector<TraceRecord> records = {
      R(0, 1, 0, TxnEvent::kSubmitted),
      R(1, 1, 1, TxnEvent::kCommitted),
  };
  auto v = ValidateTrace(records);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("commit"), std::string::npos);
}

TEST(TraceValidatorTest, CatchesDoubleBlock) {
  std::vector<TraceRecord> records = {
      R(0, 1, 0, TxnEvent::kSubmitted), R(1, 1, 1, TxnEvent::kActivated),
      R(2, 1, 1, TxnEvent::kBlocked),   R(3, 1, 1, TxnEvent::kBlocked),
  };
  EXPECT_FALSE(ValidateTrace(records).ok);
}

TEST(TraceValidatorTest, CatchesSkippedIncarnation) {
  std::vector<TraceRecord> records = {
      R(0, 1, 0, TxnEvent::kSubmitted),
      R(1, 1, 2, TxnEvent::kActivated),
  };
  auto v = ValidateTrace(records);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("incarnation"), std::string::npos);
}

TEST(TraceValidatorTest, CatchesEventsAfterCommit) {
  std::vector<TraceRecord> records = {
      R(0, 1, 0, TxnEvent::kSubmitted), R(1, 1, 1, TxnEvent::kActivated),
      R(2, 1, 1, TxnEvent::kCommitted), R(3, 1, 1, TxnEvent::kBlocked),
  };
  EXPECT_FALSE(ValidateTrace(records).ok);
}

TEST(TraceValidatorTest, CatchesTimeTravel) {
  std::vector<TraceRecord> records = {
      R(5, 1, 0, TxnEvent::kSubmitted),
      R(4, 1, 1, TxnEvent::kActivated),
  };
  auto v = ValidateTrace(records);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("backwards"), std::string::npos);
}

TEST(TraceValidatorTest, EmptyTraceIsValid) {
  EXPECT_TRUE(ValidateTrace({}).ok);
}

TEST(StreamSinkTest, FormatsReadableLines) {
  std::ostringstream out;
  StreamTraceSink sink(&out);
  sink.Record(R(1500000, 42, 2, TxnEvent::kRestarted));
  std::string line = out.str();
  EXPECT_NE(line.find("txn 42"), std::string::npos);
  EXPECT_NE(line.find("restarted"), std::string::npos);
  EXPECT_NE(line.find("1.5"), std::string::npos);
}

TEST(StreamSinkTest, FormatsEveryEventType) {
  const TxnEvent events[] = {
      TxnEvent::kSubmitted, TxnEvent::kActivated,     TxnEvent::kBlocked,
      TxnEvent::kResumed,   TxnEvent::kInternalThink, TxnEvent::kRestarted,
      TxnEvent::kCommitted,
  };
  std::ostringstream out;
  StreamTraceSink sink(&out);
  SimTime t = 0;
  for (TxnEvent event : events) {
    sink.Record(R(t += 250000, 7, 1, event));
  }
  std::istringstream lines(out.str());
  std::string line;
  size_t n = 0;
  while (std::getline(lines, line)) {
    ASSERT_LT(n, std::size(events));
    // Each line carries time, txn id, incarnation, and the event's name.
    EXPECT_NE(line.find("txn 7"), std::string::npos) << line;
    EXPECT_NE(line.find("inc 1"), std::string::npos) << line;
    EXPECT_NE(line.find(TxnEventName(events[n])), std::string::npos) << line;
    ++n;
  }
  EXPECT_EQ(n, std::size(events));
}

TEST(EngineTraceTest, EveryAlgorithmEmitsWellFormedTraces) {
  for (const std::string& algorithm : AllAlgorithms()) {
    Simulator sim;
    EngineConfig config;
    config.workload.db_size = 80;  // Contended: restarts and blocks occur.
    config.workload.tran_size = 4;
    config.workload.min_size = 2;
    config.workload.max_size = 6;
    config.workload.write_prob = 0.4;
    config.workload.num_terms = 15;
    config.workload.mpl = 8;
    config.workload.obj_io = FromMillis(5);
    config.workload.obj_cpu = FromMillis(2);
    config.resources = ResourceConfig::Finite(1, 2);
    config.algorithm = algorithm;
    MemoryTraceSink sink;
    config.lifecycle_sink = &sink;
    ClosedSystem system(&sim, config);
    system.Prime();
    sim.RunUntil(30 * kSecond);

    ASSERT_GT(sink.records().size(), 100u) << algorithm;
    auto validation = ValidateTrace(sink.records());
    EXPECT_TRUE(validation.ok) << algorithm << ": " << validation.error;

    // Per-committed-transaction property: each transaction that committed
    // was submitted exactly once, was activated once per incarnation, and
    // committed from its last incarnation as its final event.
    std::map<TxnId, std::vector<TraceRecord>> by_txn;
    for (const TraceRecord& r : sink.records()) {
      by_txn[r.txn].push_back(r);
    }
    int committed = 0;
    for (const auto& [txn, records] : by_txn) {
      if (records.back().event != TxnEvent::kCommitted) continue;
      ++committed;
      EXPECT_EQ(records.front().event, TxnEvent::kSubmitted)
          << algorithm << " txn " << txn;
      int activations = 0;
      int submissions = 0;
      for (const TraceRecord& r : records) {
        if (r.event == TxnEvent::kActivated) {
          ++activations;
          EXPECT_EQ(r.incarnation, activations)
              << algorithm << " txn " << txn;
        }
        submissions += r.event == TxnEvent::kSubmitted ? 1 : 0;
      }
      EXPECT_EQ(submissions, 1) << algorithm << " txn " << txn;
      EXPECT_GE(activations, 1) << algorithm << " txn " << txn;
      EXPECT_EQ(records.back().incarnation, activations)
          << algorithm << " txn " << txn;
    }
    EXPECT_GT(committed, 0) << algorithm;
  }
}

TEST(EngineTraceTest, InteractiveWorkloadTracesThinkEvents) {
  Simulator sim;
  EngineConfig config;
  config.workload.db_size = 1000;
  config.workload.num_terms = 10;
  config.workload.mpl = 10;
  config.workload.int_think_time = 500 * kMillisecond;
  config.workload.obj_io = FromMillis(5);
  config.workload.obj_cpu = FromMillis(2);
  config.resources = ResourceConfig::Finite(1, 2);
  MemoryTraceSink sink;
  config.lifecycle_sink = &sink;
  ClosedSystem system(&sim, config);
  system.Prime();
  sim.RunUntil(30 * kSecond);

  int thinks = 0;
  for (const TraceRecord& r : sink.records()) {
    thinks += r.event == TxnEvent::kInternalThink ? 1 : 0;
  }
  EXPECT_GT(thinks, 10);
  EXPECT_TRUE(ValidateTrace(sink.records()).ok);
}

}  // namespace
}  // namespace ccsim
