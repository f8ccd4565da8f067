#include "obs/trace.h"

#include <unordered_map>

#include "util/str.h"

namespace ccsim {

const char* TxnEventName(TxnEvent event) {
  switch (event) {
    case TxnEvent::kSubmitted:
      return "submitted";
    case TxnEvent::kActivated:
      return "activated";
    case TxnEvent::kBlocked:
      return "blocked";
    case TxnEvent::kResumed:
      return "resumed";
    case TxnEvent::kInternalThink:
      return "int_think";
    case TxnEvent::kRestarted:
      return "restarted";
    case TxnEvent::kCommitted:
      return "committed";
  }
  return "?";
}

bool ToTraceRecord(const EngineEvent& event, TraceRecord* record) {
  TxnEvent lifecycle;
  switch (event.kind) {
    case EngineEventKind::kSubmit: lifecycle = TxnEvent::kSubmitted; break;
    case EngineEventKind::kActivate: lifecycle = TxnEvent::kActivated; break;
    case EngineEventKind::kBlock: lifecycle = TxnEvent::kBlocked; break;
    case EngineEventKind::kResume: lifecycle = TxnEvent::kResumed; break;
    case EngineEventKind::kThinkStart:
      lifecycle = TxnEvent::kInternalThink;
      break;
    case EngineEventKind::kRestart: lifecycle = TxnEvent::kRestarted; break;
    case EngineEventKind::kCommit: lifecycle = TxnEvent::kCommitted; break;
    default: return false;
  }
  *record = TraceRecord{event.time, event.txn, event.incarnation, lifecycle};
  return true;
}

void StreamTraceSink::Record(const TraceRecord& record) {
  *out_ << StringPrintf("%12.6f txn %-6lld inc %-3d %s\n",
                        ToSeconds(record.time),
                        static_cast<long long>(record.txn), record.incarnation,
                        TxnEventName(record.event));
}

TraceValidation ValidateTrace(const std::vector<TraceRecord>& records) {
  enum class Status { kExpectSubmit, kExpectActivate, kRunning, kBlocked, kDone };
  struct TxnTrace {
    Status status = Status::kExpectSubmit;
    int incarnation = 0;
    int thinks_this_incarnation = 0;
  };
  std::unordered_map<TxnId, TxnTrace> txns;

  auto fail = [](const TraceRecord& r, const char* why) {
    TraceValidation v;
    v.ok = false;
    v.error = StringPrintf("txn %lld inc %d event %s at %f: %s",
                           static_cast<long long>(r.txn), r.incarnation,
                           TxnEventName(r.event), ToSeconds(r.time), why);
    return v;
  };

  SimTime last_time = 0;
  for (const TraceRecord& r : records) {
    if (r.time < last_time) return fail(r, "time went backwards");
    last_time = r.time;
    TxnTrace& t = txns[r.txn];
    switch (r.event) {
      case TxnEvent::kSubmitted:
        if (t.status != Status::kExpectSubmit) {
          return fail(r, "duplicate submission");
        }
        if (r.incarnation != 0) return fail(r, "submitted with incarnation");
        t.status = Status::kExpectActivate;
        break;
      case TxnEvent::kActivated:
        if (t.status != Status::kExpectActivate) {
          return fail(r, "activated while not in the ready queue");
        }
        if (r.incarnation != t.incarnation + 1) {
          return fail(r, "incarnation did not increment by one");
        }
        t.incarnation = r.incarnation;
        t.thinks_this_incarnation = 0;
        t.status = Status::kRunning;
        break;
      case TxnEvent::kBlocked:
        if (t.status != Status::kRunning) return fail(r, "blocked while not running");
        if (r.incarnation != t.incarnation) return fail(r, "stale incarnation");
        t.status = Status::kBlocked;
        break;
      case TxnEvent::kResumed:
        if (t.status != Status::kBlocked) return fail(r, "resumed while not blocked");
        if (r.incarnation != t.incarnation) return fail(r, "stale incarnation");
        t.status = Status::kRunning;
        break;
      case TxnEvent::kInternalThink:
        if (t.status != Status::kRunning) return fail(r, "think while not running");
        if (++t.thinks_this_incarnation > 1) {
          return fail(r, "more than one internal think per incarnation");
        }
        break;
      case TxnEvent::kRestarted:
        if (t.status != Status::kRunning && t.status != Status::kBlocked) {
          return fail(r, "restart of an inactive transaction");
        }
        if (r.incarnation != t.incarnation) return fail(r, "stale incarnation");
        t.status = Status::kExpectActivate;
        break;
      case TxnEvent::kCommitted:
        if (t.status != Status::kRunning) return fail(r, "commit while not running");
        if (r.incarnation != t.incarnation) return fail(r, "stale incarnation");
        t.status = Status::kDone;
        break;
    }
  }
  return TraceValidation{};
}

}  // namespace ccsim
