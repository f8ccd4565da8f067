// Transaction lifecycle tracing.
//
// A sink attached through EngineConfig::lifecycle_sink receives one record
// per lifecycle event: submission, activation, block, resume, internal
// think, restart, commit — the lifecycle subset of the engine's event stream
// (obs/engine_event.h), delivered by a TraceSinkListener. Traces serve
// debugging (StreamTraceSink renders a readable log) and testing
// (MemoryTraceSink lets tests assert that every transaction's event sequence
// is well-formed).
#ifndef CCSIM_OBS_TRACE_H_
#define CCSIM_OBS_TRACE_H_

#include <ostream>
#include <string>
#include <vector>

#include "cc/types.h"
#include "obs/engine_event.h"
#include "sim/time.h"

namespace ccsim {

enum class TxnEvent {
  kSubmitted,      ///< Entered the ready queue (new transaction).
  kActivated,      ///< Admitted under the mpl; incarnation begins.
  kBlocked,        ///< A cc request put it to sleep.
  kResumed,        ///< A blocked request was woken for retry.
  kInternalThink,  ///< Began its intra-transaction think.
  kRestarted,      ///< Incarnation aborted; will re-enter the ready queue.
  kCommitted,      ///< Finished.
};

/// Stable display name for an event.
const char* TxnEventName(TxnEvent event);

struct TraceRecord {
  SimTime time = 0;
  TxnId txn = kInvalidTxn;
  int incarnation = 0;
  TxnEvent event = TxnEvent::kSubmitted;
};

/// Receives every lifecycle record.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Record(const TraceRecord& record) = 0;
};

/// The lifecycle record of an engine event: true, with `record` filled, for
/// the seven kinds a TraceSink sees; false for every other kind.
bool ToTraceRecord(const EngineEvent& event, TraceRecord* record);

/// Hands the lifecycle records of the engine's event stream to a sink.
class TraceSinkListener : public EngineListener {
 public:
  explicit TraceSinkListener(TraceSink* sink) : sink_(sink) {}
  void OnEvent(const EngineEvent& event) override {
    TraceRecord record;
    if (ToTraceRecord(event, &record)) sink_->Record(record);
  }

 private:
  TraceSink* sink_;
};

/// Collects records in memory (tests, post-hoc analysis).
class MemoryTraceSink : public TraceSink {
 public:
  void Record(const TraceRecord& record) override {
    records_.push_back(record);
  }
  const std::vector<TraceRecord>& records() const { return records_; }

 private:
  std::vector<TraceRecord> records_;
};

/// Formats records as text lines, one per event.
class StreamTraceSink : public TraceSink {
 public:
  explicit StreamTraceSink(std::ostream* out) : out_(out) {}
  void Record(const TraceRecord& record) override;

 private:
  std::ostream* out_;
};

/// Result of validating a trace's per-transaction event grammar:
///   Submitted Activated (Blocked Resumed* | InternalThink | Restarted
///   Activated)* Committed?
/// plus: incarnations increase by exactly 1 per Activated, Restarted is
/// always followed by another Activated or nothing (end of run), and
/// Committed is terminal.
struct TraceValidation {
  bool ok = true;
  std::string error;  ///< First violation found.
};

TraceValidation ValidateTrace(const std::vector<TraceRecord>& records);

}  // namespace ccsim

#endif  // CCSIM_OBS_TRACE_H_
