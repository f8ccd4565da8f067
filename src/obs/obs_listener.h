// Observability as a listener on the engine's event stream
// (docs/OBSERVABILITY.md).
//
// When EngineConfig::obs is enabled the engine builds one ObsListener, and
// everything observability reports hangs off it: the stats registry and the
// engine counters, the per-phase response-time breakdown (obs/phase.h),
// blame attribution (obs/blame.h), the hot-granule sketch
// (obs/contention.h), blocking-chain depth, the time-series sampler and the
// Perfetto trace. Its per-transaction state lives in its own slot map, fed
// only by engine events, so it cannot steer the simulation.
#ifndef CCSIM_OBS_OBS_LISTENER_H_
#define CCSIM_OBS_OBS_LISTENER_H_

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "obs/blame.h"
#include "obs/contention.h"
#include "obs/engine_event.h"
#include "obs/engine_tracer.h"
#include "obs/obs_config.h"
#include "obs/phase.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/trace_json.h"
#include "sim/simulator.h"
#include "util/dense_table.h"

namespace ccsim {

class ObsListener : public EngineListener {
 public:
  /// `registry` arrives holding the engine's population gauges, which lead
  /// the sampler's columns. The listener adds the engine counters, the
  /// generic cc gauges over `cc_stats` and the blame histograms, and opens
  /// the Perfetto trace when `config` asks for one; the engine then adds
  /// the cc algorithm's and the resource pools' instruments. `config`'s
  /// paths must already be resolved (ResolveObsPaths).
  ObsListener(Simulator* sim, const ObsConfig& config,
              std::unique_ptr<StatsRegistry> registry,
              const CCStats* cc_stats);

  void OnEvent(const EngineEvent& event) override;

  StatsRegistry* registry() const { return registry_.get(); }
  /// The Perfetto exporter, for the resource pools' service spans; nullptr
  /// unless tracing, and again once the run has ended.
  ServiceSpanSink* span_sink() const { return perfetto_.get(); }

  /// The measurement window's per-commit phase means and blame aggregates.
  void Report(PhaseBreakdown* phases, BlameBreakdown* blame) const;

 private:
  /// Integer-µs phase buckets (obs/phase.h).
  struct PhaseSums {
    SimTime ready = 0, restart_delay = 0, wasted = 0;
    SimTime cc_block = 0, cpu = 0, disk = 0, res_wait = 0, think = 0;
    SimTime other = 0;
  };
  /// (opponent, µs): one blame charge.
  using Charge = std::pair<TxnId, SimTime>;

  /// One live transaction, from submission to commit.
  struct TxnObs {
    /// ready, restart_delay and wasted cover the whole transaction; the
    /// other buckets cover the current incarnation (reset at activation).
    PhaseSums ph;
    SimTime ready_since = 0;        ///< Entered the ready queue.
    SimTime incarnation_start = 0;  ///< The current incarnation began.
    SimTime blocked_since = 0;      ///< The last cc block began.
    /// Opponent of the most recent restart-causing conflict (wound, denial,
    /// validation failure, timestamp rejection). Reset at activation.
    TxnId opponent = kInvalidTxn;
    /// Holder behind the current (or just-resolved) cc block.
    TxnId block_opponent = kInvalidTxn;
    /// (holder, µs) per resolved block of the current incarnation; folded
    /// into the ledger at commit, discarded at restart — exactly the
    /// lifecycle of ph.cc_block, so the blocked-µs identity is exact.
    std::vector<Charge> block_charges;
    /// (aborter, µs) per restarted incarnation, folded at commit — exactly
    /// the lifecycle of ph.wasted.
    std::vector<Charge> wasted_charges;

    /// Slot reuse: default state, buffers' capacity kept.
    void Recycle() {
      ph = PhaseSums{};
      ready_since = incarnation_start = blocked_since = 0;
      opponent = block_opponent = kInvalidTxn;
      block_charges.clear();
      wasted_charges.clear();
    }
  };

  void OnBlock(const EngineEvent& event);
  void OnCommit(const EngineEvent& event);
  void OnRestart(const EngineEvent& event);
  /// Finishes the sampler CSV/.gp, the trace.json and the hot-granule CSV
  /// (hard error on a failed write).
  void FinishArtifacts(SimTime now);

  Simulator* sim_;
  ObsConfig config_;
  std::unique_ptr<StatsRegistry> registry_;
  std::unique_ptr<TraceEventWriter> trace_writer_;
  std::unique_ptr<EngineTracer> perfetto_;
  std::unique_ptr<TimeSeriesSampler> sampler_;
  ObsCounter* commits_ = nullptr;
  std::array<ObsCounter*, 3> restarts_{};  ///< By RestartCause.
  std::array<ObsCounter*, 3> decisions_{};  ///< By CCDecision.
  ObsCounter* wasted_cpu_us_ = nullptr;
  ObsCounter* wasted_disk_us_ = nullptr;
  Histogram* chain_depth_hist_ = nullptr;
  Histogram* genealogy_hist_ = nullptr;

  TxnSlotMap<TxnObs> txns_;
  /// Measurement-window sums, folded per commit and reported as means over
  /// the window's commits.
  PhaseSums sums_;
  int64_t measured_commits_ = 0;
  /// Blame aggregation over the measurement window, folded per commit.
  BlameLedger blame_ledger_;
  ContentionProfiler contention_;
  /// Waits-for edges (blocked -> holder) for chain-depth sampling.
  TxnSlotMap<TxnId> waits_for_;
};

}  // namespace ccsim

#endif  // CCSIM_OBS_OBS_LISTENER_H_
