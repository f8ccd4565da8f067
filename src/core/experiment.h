// Experiment orchestration: run one configuration, or sweep algorithms ×
// multiprogramming levels the way every figure in the paper does.
//
// Sweeps and replications run their points concurrently across CCSIM_JOBS
// worker threads (default: hardware concurrency; see docs/EXECUTION.md).
// Every point owns a private Simulator and gets its seed derived *up front*
// from the master seed, so results are bit-identical regardless of the job
// count or the order in which workers finish. CCSIM_JOBS=1 runs the points
// inline on the calling thread — the plain serial path.
#ifndef CCSIM_CORE_EXPERIMENT_H_
#define CCSIM_CORE_EXPERIMENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/closed_system.h"
#include "core/metrics.h"
#include "exec/watchdog.h"
#include "util/status.h"

namespace ccsim {

/// Statistical effort of a run. Defaults mirror the paper (20 batches); the
/// environment variables CCSIM_BATCHES, CCSIM_BATCH_SECONDS, and
/// CCSIM_WARMUP_SECONDS override them for quicker or tighter runs.
struct RunLengths {
  int batches = 20;
  SimTime batch_length = 15 * kSecond;
  SimTime warmup = 30 * kSecond;

  /// Applies the environment overrides to these values.
  static RunLengths FromEnv(RunLengths defaults);
};

/// One full sweep: every algorithm at every mpl, a fresh simulator per point.
struct SweepConfig {
  EngineConfig base;  ///< mpl, algorithm, and seed fields are overridden per point.
  std::vector<std::string> algorithms;
  std::vector<int> mpls;
  RunLengths lengths;
  /// Worker threads for the sweep: 0 defers to CCSIM_JOBS / hardware
  /// concurrency (exec/jobs.h); 1 forces the serial path. The job count
  /// never changes the results, only the wall-clock time.
  int jobs = 0;
};

/// The paper's mpl sweep: 5, 10, 25, 50, 75, 100, 200. CCSIM_MPLS (a
/// comma-separated list of positive integers) overrides it.
std::vector<int> PaperMplLevels();

/// The first `count` outputs of a SplitMix64 walk seeded with `master_seed`:
/// the per-point seeds used by RunSweep and RunReplications. Computed up
/// front, so seeds depend only on (master_seed, point index) — never on
/// execution order or job count.
std::vector<uint64_t> DeriveSeeds(uint64_t master_seed, size_t count);

/// Runs a single configuration to completion and returns its report.
/// Engine-internal invariant failures abort the process (fail-stop); use
/// TryRunOnePoint when a failure should be recoverable.
MetricsReport RunOnePoint(const EngineConfig& config, const RunLengths& lengths);

/// Recoverable variant of RunOnePoint: the point runs under a check trap and
/// the given budget, and every failure mode becomes a Status instead of a
/// process abort —
///   * a CCSIM_CHECK trip (invalid config, engine invariant) → kInternal;
///   * a tripped event budget → kDeadlineExceeded,
///     with diagnostics (simulated time, events fired, transaction census);
///   * audit violations in a completed run (config.audit) → kInternal.
/// The trap only covers this call on this thread; nested engine code keeps
/// its fail-stop semantics when called any other way.
StatusOr<MetricsReport> TryRunOnePoint(const EngineConfig& config,
                                       const RunLengths& lengths,
                                       const PointBudget& budget = {});

/// Outcome of one point of a checked run (RunPointsChecked / RunSweepChecked).
struct PointResult {
  size_t index = 0;       ///< Position in the input config vector.
  EngineConfig config;    ///< The exact config the point ran with.
  Status status;          ///< Ok => `report` is valid.
  MetricsReport report;   ///< Default-constructed when !status.ok().

  bool ok() const { return status.ok(); }
};

/// Outcome of a whole checked run: one PointResult per input config, in
/// input order, successes and failures side by side.
struct SweepOutcome {
  std::vector<PointResult> points;

  /// True when every point succeeded.
  bool ok() const;
  /// The failed points, in input order.
  std::vector<const PointResult*> failures() const;
  /// Reports of the successful points only, in input order.
  std::vector<MetricsReport> SuccessfulReports() const;
  /// Human-readable digest of every failure ("" when ok()): one line per
  /// failed point with its algorithm, mpl, seed, and status.
  std::string FailureSummary() const;
};

/// Runs every config through its own Simulator (configs are taken verbatim —
/// no seed derivation here) across up to `jobs` worker threads (0 = the
/// CCSIM_JOBS policy). Results come back in input order. `progress`
/// (optional) receives (input index, report) as each point completes;
/// completion order is unspecified under jobs > 1, but calls are serialized
/// (never concurrent with each other).
std::vector<MetricsReport> RunPoints(
    const std::vector<EngineConfig>& configs, const RunLengths& lengths,
    int jobs = 0,
    const std::function<void(size_t, const MetricsReport&)>& progress = nullptr);

/// Fault-tolerant RunPoints: each point runs via TryRunOnePoint under the
/// environment budgets (PointBudget::FromEnv), so one poisoned or livelocked
/// config fails its own point while every other point still completes.
/// `progress` (optional) receives each PointResult as it settles
/// (serialized; order unspecified under jobs > 1). Every point's artifact
/// names are fixed before any point runs; a point whose name an earlier
/// point took gets a _p<index> suffix.
SweepOutcome RunPointsChecked(
    const std::vector<EngineConfig>& configs, const RunLengths& lengths,
    int jobs = 0,
    const std::function<void(const PointResult&)>& progress = nullptr);

/// Fault-tolerant RunSweep: same point construction and seed derivation as
/// RunSweep, run through RunPointsChecked.
SweepOutcome RunSweepChecked(
    const SweepConfig& sweep,
    const std::function<void(const PointResult&)>& progress = nullptr);

/// Runs the full sweep; reports are ordered algorithm-major, mpl-minor.
/// Point i of that ordering runs with DeriveSeeds(base.seed, n)[i], so every
/// point is an independent sample and the sweep is reproducible point-by-
/// point at any job count. `progress` (optional) receives each report as it
/// completes (serialized; order unspecified under sweep.jobs > 1).
std::vector<MetricsReport> RunSweep(
    const SweepConfig& sweep,
    const std::function<void(const MetricsReport&)>& progress = nullptr);

/// Result of the independent-replications method: `replications` full runs
/// with derived seeds, combined into cross-replication Student-t intervals.
/// Replications are the textbook alternative to batch means — immune to
/// residual correlation between batches, at the price of paying the warmup
/// once per replication. The engine's batch-means intervals can be checked
/// against these (see the methodology tests).
struct ReplicatedEstimate {
  IntervalEstimate throughput;     ///< Across replication means.
  IntervalEstimate response_mean;  ///< Across replication means.
  std::vector<MetricsReport> replications;
};

/// Runs `replications` independent copies of `config` (replication r's seed
/// is DeriveSeeds(config.seed, n)[r]) and combines them. Each replication
/// uses the given lengths; its internal batching only affects its own point
/// estimates. `jobs` as in RunPoints; the estimate is identical at any job
/// count.
ReplicatedEstimate RunReplications(const EngineConfig& config,
                                   const RunLengths& lengths,
                                   int replications, int jobs = 0);

}  // namespace ccsim

#endif  // CCSIM_CORE_EXPERIMENT_H_
