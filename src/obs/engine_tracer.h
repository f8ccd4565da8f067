// Converts the lifecycle events of the engine's event stream plus the
// resource model's service spans into a Perfetto-loadable trace:
//
//   process 1 "transactions" — one thread (track) per transaction. Each
//     incarnation is a slice ("inc N", or "inc N (aborted)" for restarted
//     incarnations), with nested "blocked" slices for cc waits and instant
//     markers for submission, internal think, and restart. A block whose
//     event names the holder also draws a "waits-for" flow arrow from the
//     holder's slice to the blocked one.
//   process 2 "servers" — one thread per server pool (cpu, disk0..., log)
//     carrying a slice per service span, plus a "<pool> queue" counter
//     tracking wait-queue depth.
//
// Slices are emitted when they *close* (commit/restart/resume), which the
// trace-event format explicitly permits: viewers sort by timestamp.
#ifndef CCSIM_OBS_ENGINE_TRACER_H_
#define CCSIM_OBS_ENGINE_TRACER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "obs/engine_event.h"
#include "obs/span_sink.h"
#include "obs/trace.h"
#include "obs/trace_json.h"

namespace ccsim {

class EngineTracer : public EngineListener, public ServiceSpanSink {
 public:
  explicit EngineTracer(TraceEventWriter* out);

  // EngineListener — transaction lifecycle. A kBlock event's `opponent`,
  // when set, is the holder the arrow starts from.
  void OnEvent(const EngineEvent& event) override;

  // ServiceSpanSink — resource model.
  int RegisterTrack(const std::string& name) override;
  void OnServiceSpan(int track, SimTime start, SimTime duration) override;
  void OnQueueDepth(int track, SimTime now, int depth) override;

  /// Closes any slices still open at end of run (the closed system never
  /// drains, so most transactions are mid-flight when the run stops).
  void FlushOpen(SimTime end_time);

 private:
  struct TxnTrack {
    bool named = false;
    bool active = false;         ///< Inside an incarnation slice.
    int incarnation = 0;
    SimTime incarnation_start = 0;
    SimTime blocked_since = -1;  ///< -1: not blocked.
  };

  TxnTrack& TrackFor(TxnId txn);
  void CloseBlocked(TxnTrack& track, TxnId txn, SimTime now);

  TraceEventWriter* out_;
  std::unordered_map<TxnId, TxnTrack> txns_;
  std::vector<std::string> server_tracks_;
  uint64_t next_flow_id_ = 0;
};

}  // namespace ccsim

#endif  // CCSIM_OBS_ENGINE_TRACER_H_
