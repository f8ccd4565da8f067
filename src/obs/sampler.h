// Simulated-time time-series sampler.
//
// Snapshots every instrument of a StatsRegistry at a fixed simulated-time
// interval into a per-point CSV (column schema = the registry's registration
// order), and on Finish() writes a companion gnuplot script that plots every
// series against time — the queue-dynamics view of a run.
//
// The sampler is a pure observer: its tick event reads gauges, draws no
// random numbers, and mutates no model state, so enabling it cannot change
// any simulation metric. Ticks are keyed to *simulated* time, so same-seed
// runs produce byte-identical CSVs.
#ifndef CCSIM_OBS_SAMPLER_H_
#define CCSIM_OBS_SAMPLER_H_

#include <string>

#include "obs/registry.h"
#include "sim/simulator.h"
#include "util/csv.h"

namespace ccsim {

class TimeSeriesSampler : private EventHandler {
 public:
  /// Opens `csv_path` and writes the header row; check ok(). Sampling does
  /// not start until Start().
  TimeSeriesSampler(Simulator* sim, const StatsRegistry* registry,
                    std::string csv_path, SimTime interval);

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  bool ok() const { return csv_.ok(); }

  /// Takes the first sample at the current simulated time and schedules a
  /// tick every `interval` thereafter.
  void Start();

  /// Flushes the CSV and writes the companion `.gp` next to it (csv path
  /// with the extension replaced by .gp). Returns false if any write
  /// failed. Call exactly once; cancels the pending tick, so the simulator
  /// may outlive the sampler.
  bool Finish();

 private:
  /// The tick: samples, then schedules the next tick.
  void OnEvent(const Event&) override { Sample(); }
  void Sample();

  Simulator* sim_;
  const StatsRegistry* registry_;
  std::string csv_path_;
  SimTime interval_;
  CsvWriter csv_;
  EventId pending_ = kInvalidEventId;  ///< The next tick.
  bool finished_ = false;
};

}  // namespace ccsim

#endif  // CCSIM_OBS_SAMPLER_H_
