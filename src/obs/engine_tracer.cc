#include "obs/engine_tracer.h"

#include "util/str.h"

namespace ccsim {

namespace {
constexpr int kTxnPid = 1;
constexpr int kServerPid = 2;
}  // namespace

EngineTracer::EngineTracer(TraceEventWriter* out) : out_(out) {
  out_->NameProcess(kTxnPid, "transactions");
  out_->NameProcess(kServerPid, "servers");
}

EngineTracer::TxnTrack& EngineTracer::TrackFor(TxnId txn) {
  TxnTrack& track = txns_[txn];
  if (!track.named) {
    track.named = true;
    out_->NameThread(kTxnPid, txn,
                     StringPrintf("txn %lld", static_cast<long long>(txn)));
  }
  return track;
}

void EngineTracer::CloseBlocked(TxnTrack& track, TxnId txn, SimTime now) {
  if (track.blocked_since < 0) return;
  out_->Complete(kTxnPid, txn, "blocked", track.blocked_since,
                 now - track.blocked_since);
  track.blocked_since = -1;
}

void EngineTracer::OnEvent(const EngineEvent& event) {
  TraceRecord record;
  if (!ToTraceRecord(event, &record)) return;
  if (event.kind == EngineEventKind::kBlock &&
      event.opponent != kInvalidTxn && event.opponent != event.txn) {
    TrackFor(event.opponent);
    TrackFor(event.txn);
    // One arrow per block event; both halves share the id. The start sits
    // on the holder's open incarnation slice, the end binds to the
    // "blocked" slice the blocked transaction opens at the same instant.
    const uint64_t id = ++next_flow_id_;
    out_->FlowStart(kTxnPid, event.opponent, "waits-for", event.time, id);
    out_->FlowEnd(kTxnPid, event.txn, "waits-for", event.time, id);
  }
  TxnTrack& track = TrackFor(record.txn);
  switch (record.event) {
    case TxnEvent::kSubmitted:
      out_->Instant(kTxnPid, record.txn, "submitted", record.time);
      break;
    case TxnEvent::kActivated:
      track.active = true;
      track.incarnation = record.incarnation;
      track.incarnation_start = record.time;
      break;
    case TxnEvent::kBlocked:
      track.blocked_since = record.time;
      break;
    case TxnEvent::kResumed:
      CloseBlocked(track, record.txn, record.time);
      break;
    case TxnEvent::kInternalThink:
      out_->Instant(kTxnPid, record.txn, "think", record.time);
      break;
    case TxnEvent::kRestarted:
      CloseBlocked(track, record.txn, record.time);
      if (track.active) {
        out_->Complete(kTxnPid, record.txn,
                       StringPrintf("inc %d (aborted)", track.incarnation),
                       track.incarnation_start,
                       record.time - track.incarnation_start);
        track.active = false;
      }
      break;
    case TxnEvent::kCommitted:
      if (track.active) {
        out_->Complete(kTxnPid, record.txn,
                       StringPrintf("inc %d", track.incarnation),
                       track.incarnation_start,
                       record.time - track.incarnation_start);
        track.active = false;
      }
      break;
  }
}

int EngineTracer::RegisterTrack(const std::string& name) {
  const int id = static_cast<int>(server_tracks_.size());
  server_tracks_.push_back(name);
  out_->NameThread(kServerPid, id, name);
  return id;
}

void EngineTracer::OnServiceSpan(int track, SimTime start, SimTime duration) {
  out_->Complete(kServerPid, track, "service", start, duration);
}

void EngineTracer::OnQueueDepth(int track, SimTime now, int depth) {
  out_->Counter(kServerPid, server_tracks_[static_cast<size_t>(track)] +
                                " queue",
                now, static_cast<double>(depth));
}

void EngineTracer::FlushOpen(SimTime end_time) {
  for (auto& [txn, track] : txns_) {
    CloseBlocked(track, txn, end_time);
    if (track.active) {
      out_->Complete(kTxnPid, txn,
                     StringPrintf("inc %d", track.incarnation),
                     track.incarnation_start,
                     end_time - track.incarnation_start);
      track.active = false;
    }
  }
}

}  // namespace ccsim
