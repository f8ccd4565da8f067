// Per-layer observation of one simulated point, from outside the engine.
//
// The engine already exposes every hook this needs: EngineConfig::cc_factory
// (a timing decorator around the real algorithm), EngineConfig::
// lifecycle_sink (transaction lifecycle records) and ResourceManager::
// AttachSpanSink (resource service spans). A LayerTracer is all three sinks
// for one point. It counts at every hook and, when asked, keeps the spans in
// memory so they can be self-checked and written out when the run ends.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cc/concurrency_control.h"
#include "core/closed_system.h"
#include "obs/span_sink.h"
#include "obs/trace.h"

namespace perfbench {

using ccsim::SimTime;
using ccsim::TxnId;

/// The ConcurrencyControl entry points the decorator times.
enum class CcOp : uint8_t {
  kBegin,
  kPredeclare,
  kRead,
  kWrite,
  kValidate,
  kCommit,
  kAbort
};

/// What a timed call answered; kNone for calls that decide nothing.
enum class CcOutcome : uint8_t { kNone, kGranted, kBlocked, kRestart };

/// One cc call: host-time duration, simulated instant, and the incarnation
/// (its parent span) current when the call was made.
struct CcSpan {
  TxnId txn = 0;
  int32_t incarnation = 0;
  CcOp op = CcOp::kBegin;
  CcOutcome outcome = CcOutcome::kNone;
  SimTime sim_time = 0;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

/// One resource service, in simulated time. The span sink names only the
/// pool, so service spans are keyed by pool, not by transaction.
struct ServiceSpan {
  int32_t track = 0;
  SimTime start = 0;
  SimTime duration = 0;
};

/// Counters kept at every hook, spans or not.
struct LayerCounts {
  int64_t cc_calls = 0;
  int64_t cc_ns = 0;
  int64_t cc_decisions = 0;  ///< Calls that answered grant/block/restart.
  int64_t cc_granted = 0;
  int64_t activations = 0;   ///< kActivated records: incarnations begun.
  int64_t blocks = 0;        ///< kBlocked records.
  int64_t lifecycle_records = 0;
  int64_t services = 0;
  int64_t queue_events = 0;

  LayerCounts& operator+=(const LayerCounts& o) {
    cc_calls += o.cc_calls;
    cc_ns += o.cc_ns;
    cc_decisions += o.cc_decisions;
    cc_granted += o.cc_granted;
    activations += o.activations;
    blocks += o.blocks;
    lifecycle_records += o.lifecycle_records;
    services += o.services;
    queue_events += o.queue_events;
    return *this;
  }
};

class LayerTracer : public ccsim::TraceSink, public ccsim::ServiceSpanSink {
 public:
  explicit LayerTracer(bool keep_spans) : keep_spans_(keep_spans) {}

  // TraceSink.
  void Record(const ccsim::TraceRecord& record) override;
  // ServiceSpanSink.
  int RegisterTrack(const std::string& name) override;
  void OnServiceSpan(int track, SimTime start, SimTime duration) override;
  void OnQueueDepth(int track, SimTime now, int depth) override;

  /// Called by the cc decorator after every timed call.
  void RecordCcCall(TxnId txn, CcOp op, CcOutcome outcome, SimTime sim_time,
                    int64_t start_ns, int64_t dur_ns);

  const LayerCounts& counts() const { return counts_; }
  const std::vector<ccsim::TraceRecord>& lifecycle() const { return lifecycle_; }
  const std::vector<CcSpan>& cc_spans() const { return cc_spans_; }
  const std::vector<ServiceSpan>& service_spans() const {
    return service_spans_;
  }
  const std::vector<std::string>& tracks() const { return tracks_; }

 private:
  bool keep_spans_;
  LayerCounts counts_;
  /// Incarnation most recently activated, indexed by transaction id.
  std::vector<int32_t> incarnation_of_;
  std::vector<ccsim::TraceRecord> lifecycle_;
  std::vector<CcSpan> cc_spans_;
  std::vector<ServiceSpan> service_spans_;
  std::vector<std::string> tracks_;
};

/// An EngineConfig::cc_factory that builds the configured algorithm and
/// wraps it in a decorator timing every call into `tracer`. The decorator
/// forwards capacity hints, predeclaration, the audit hooks and the engine
/// callbacks, and copies the algorithm's stats() back after every call, so
/// the engine sees the algorithm unchanged.
std::function<std::unique_ptr<ccsim::ConcurrencyControl>(
    const ccsim::EngineConfig&)>
TimedCcFactory(LayerTracer* tracer);

/// Monotonic host clock in ns, the time base of CcSpan.
int64_t NowNs();

/// The trace self-test for one traced point: every cc span lies inside its
/// incarnation's simulated lifetime, cc spans never overlap in host time
/// (so their sum is not double counted), the cc and non-cc shares of the
/// run's wall time add up to 1, and the span counts equal the counters the
/// printed metrics come from. Returns "" when every check passes, else the
/// first failure.
std::string CheckTrace(const LayerTracer& tracer, int64_t run_wall_ns,
                       SimTime end_time);

/// Writes the kept spans as tab-separated lines (format in README.md).
void WriteTrace(std::FILE* out, int point, const LayerTracer& tracer,
                SimTime end_time);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
