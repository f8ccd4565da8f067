#include "core/experiment.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "exec/jobs.h"
#include "exec/thread_pool.h"
#include "obs/obs_config.h"
#include "util/check.h"
#include "util/env.h"
#include "util/random.h"
#include "util/str.h"

namespace ccsim {

RunLengths RunLengths::FromEnv(RunLengths defaults) {
  RunLengths lengths = defaults;
  lengths.batches =
      static_cast<int>(GetEnvInt("CCSIM_BATCHES", lengths.batches));
  lengths.batch_length = FromSeconds(
      GetEnvDouble("CCSIM_BATCH_SECONDS", ToSeconds(lengths.batch_length)));
  lengths.warmup = FromSeconds(
      GetEnvDouble("CCSIM_WARMUP_SECONDS", ToSeconds(lengths.warmup)));
  CCSIM_CHECK_GE(lengths.batches, 2) << "need >= 2 batches for intervals";
  CCSIM_CHECK_GT(lengths.batch_length, 0);
  CCSIM_CHECK_GE(lengths.warmup, 0);
  return lengths;
}

std::vector<int> PaperMplLevels() {
  auto raw = GetEnv("CCSIM_MPLS");
  if (!raw.has_value()) return {5, 10, 25, 50, 75, 100, 200};
  std::vector<int> mpls;
  for (const std::string& field : Split(*raw, ',')) {
    auto parsed = ParseInt(field);
    CCSIM_CHECK(parsed.has_value())
        << "CCSIM_MPLS entry \"" << field << "\" is not an integer";
    CCSIM_CHECK_GT(*parsed, 0)
        << "CCSIM_MPLS entry \"" << field
        << "\" must be a positive multiprogramming level";
    mpls.push_back(static_cast<int>(*parsed));
  }
  CCSIM_CHECK(!mpls.empty());
  return mpls;
}

std::vector<uint64_t> DeriveSeeds(uint64_t master_seed, size_t count) {
  std::vector<uint64_t> seeds;
  seeds.reserve(count);
  uint64_t state = master_seed;
  for (size_t i = 0; i < count; ++i) seeds.push_back(SplitMix64(state));
  return seeds;
}

MetricsReport RunOnePoint(const EngineConfig& config, const RunLengths& lengths) {
  Simulator sim;
  ClosedSystem system(&sim, config);
  return system.RunExperiment(lengths.batches, lengths.batch_length,
                              lengths.warmup);
}

StatusOr<MetricsReport> TryRunOnePoint(const EngineConfig& config,
                                       const RunLengths& lengths,
                                       const PointBudget& budget) {
  // Any CCSIM_CHECK that trips below here — in the config validation, the
  // engine, or the cc algorithm — throws instead of aborting, but only on
  // this thread inside this call.
  ScopedCheckTrap trap;
  try {
    Simulator sim;
    ClosedSystem system(&sim, config);
    // Opt-in progress heartbeat: the sim/engine thread publishes into the
    // cell with relaxed stores; the reporter thread only reads, so the line
    // below can tear across fields but never perturb the simulation.
    ProgressCell progress;
    std::unique_ptr<HeartbeatThread> heartbeat;
    if (budget.heartbeat_seconds > 0.0) {
      sim.SetProgressCell(&progress);
      system.SetProgressCell(&progress);
      const std::string label = StringPrintf(
          "%s mpl=%d seed=%llu", config.algorithm.c_str(), config.workload.mpl,
          static_cast<unsigned long long>(config.seed));
      heartbeat = std::make_unique<HeartbeatThread>(
          budget.heartbeat_seconds, [&progress, label] {
            std::fprintf(
                stderr, "[heartbeat] %s: sim=%.1fs events=%llu commits=%lld\n",
                label.c_str(),
                ToSeconds(progress.sim_time_us.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    progress.events.load(std::memory_order_relaxed)),
                static_cast<long long>(
                    progress.commits.load(std::memory_order_relaxed)));
          });
    }
    if (!budget.unlimited()) {
      RunGuard guard;
      guard.max_events = budget.max_events;
      guard.on_violation = [&sim, &system](const char* reason) {
        throw PointTimeout(StringPrintf(
            "%s at simulated time %.3f s after %llu events; %s", reason,
            ToSeconds(sim.Now()),
            static_cast<unsigned long long>(sim.events_fired()),
            system.DescribeCensus().c_str()));
      };
      sim.SetRunGuard(std::move(guard));
    }
    MetricsReport report = system.RunExperiment(
        lengths.batches, lengths.batch_length, lengths.warmup);
    if (report.audited && report.audit_violations > 0) {
      return Status::Internal(StringPrintf(
          "audit detected %lld violation(s) in %lld checks: %s",
          static_cast<long long>(report.audit_violations),
          static_cast<long long>(report.audit_checks),
          system.auditor()->Summary().c_str()));
    }
    return report;
  } catch (const PointTimeout& timeout) {
    return Status::DeadlineExceeded(timeout.what());
  } catch (const CheckFailure& failure) {
    return Status::Internal(failure.what());
  } catch (const std::exception& e) {
    return Status::Internal(std::string("unexpected exception: ") + e.what());
  }
}

bool SweepOutcome::ok() const {
  for (const PointResult& point : points) {
    if (!point.ok()) return false;
  }
  return true;
}

std::vector<const PointResult*> SweepOutcome::failures() const {
  std::vector<const PointResult*> failed;
  for (const PointResult& point : points) {
    if (!point.ok()) failed.push_back(&point);
  }
  return failed;
}

std::vector<MetricsReport> SweepOutcome::SuccessfulReports() const {
  std::vector<MetricsReport> reports;
  for (const PointResult& point : points) {
    if (point.ok()) reports.push_back(point.report);
  }
  return reports;
}

std::string SweepOutcome::FailureSummary() const {
  std::string summary;
  for (const PointResult* point : failures()) {
    summary += StringPrintf(
        "point %zu (%s mpl=%d seed=%llu): %s\n", point->index,
        point->config.algorithm.c_str(), point->config.workload.mpl,
        static_cast<unsigned long long>(point->config.seed),
        point->status.ToString().c_str());
  }
  return summary;
}

namespace {

/// "dir/ts_x.csv" -> "dir/ts_x_p<index>.csv".
std::string WithPointSuffix(const std::string& path, size_t index) {
  const size_t slash = path.rfind('/');
  size_t dot = path.rfind('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    dot = path.size();
  }
  return path.substr(0, dot) + StringPrintf("_p%zu", index) + path.substr(dot);
}

}  // namespace

SweepOutcome RunPointsChecked(
    const std::vector<EngineConfig>& configs, const RunLengths& lengths,
    int jobs, const std::function<void(const PointResult&)>& progress) {
  // Environment-dependent policy is read once, on the calling thread —
  // getenv from pool workers would race with setenv in tests.
  const PointBudget budget = PointBudget::FromEnv();

  // Every point starts pre-failed: a point's entry only turns OK when its
  // body actually completes. Without this, an exception that escapes a task
  // *around* TryRunOnePoint (a throwing progress callback, or a
  // std::bad_alloc in the task wrapper itself) would leave the point it
  // consumed — and, on the serial path, every point after it — looking
  // successful with an all-zero report.
  const char* kNeverRan =
      "point never ran: the sweep was interrupted before a worker finished it";
  SweepOutcome outcome;
  outcome.points.resize(configs.size());
  std::set<std::string> taken_paths;
  for (size_t i = 0; i < configs.size(); ++i) {
    PointResult& point = outcome.points[i];
    point.index = i;
    point.config = configs[i];
    // Observability knobs and per-point artifact paths resolve here, on the
    // calling thread (env discipline again), so pool workers never touch the
    // environment and every point's csv/trace name is fixed up front.
    ObsConfig& obs = point.config.obs;
    obs = ObsConfig::FromEnv(obs);
    ResolveObsPaths(&obs, point.config.algorithm, point.config.workload.mpl,
                    point.config.seed);
    // Points sharing (algorithm, mpl, seed) would write the same files: the
    // first keeps the name, a later one gets a _p<index> suffix.
    for (std::string* path :
         {&obs.sample_path, &obs.hot_path, &obs.trace_path}) {
      if (!path->empty() && !taken_paths.insert(*path).second) {
        *path = WithPointSuffix(*path, i);
        taken_paths.insert(*path);
      }
    }
    point.status = Status::Internal(kNeverRan);
  }

  std::mutex progress_mu;
  auto run_point = [&](int64_t i) {
    PointResult& point = outcome.points[static_cast<size_t>(i)];
    StatusOr<MetricsReport> result =
        TryRunOnePoint(point.config, lengths, budget);
    if (result.ok()) {
      point.report = std::move(result).value();
      point.status = Status::Ok();
    } else {
      point.status = result.status();
    }
    if (progress) {
      std::lock_guard<std::mutex> lock(progress_mu);
      progress(point);
    }
  };
  try {
    ParallelFor(static_cast<int64_t>(configs.size()), ResolveJobs(jobs),
                run_point);
  } catch (const std::exception& e) {
    // Points that completed keep their results (on a pool, every task still
    // ran: ThreadPool::Wait rethrows only after the queue drains). The ones
    // the escaped exception consumed or cut off keep their pre-failed
    // status, upgraded with the cause.
    for (PointResult& point : outcome.points) {
      if (!point.ok() && point.status.message() == kNeverRan) {
        point.status = Status::Internal(
            std::string(kNeverRan) + " (worker exception: " + e.what() + ")");
      }
    }
  }
  return outcome;
}

std::vector<MetricsReport> RunPoints(
    const std::vector<EngineConfig>& configs, const RunLengths& lengths,
    int jobs,
    const std::function<void(size_t, const MetricsReport&)>& progress) {
  // The unchecked entry point keeps its fail-stop contract by running the
  // checked path and treating any failed point as fatal (it still gains
  // the event budget's diagnostics from CCSIM_MAX_EVENTS).
  std::function<void(const PointResult&)> checked_progress;
  if (progress) {
    checked_progress = [&progress](const PointResult& point) {
      if (point.ok()) progress(point.index, point.report);
    };
  }
  SweepOutcome outcome =
      RunPointsChecked(configs, lengths, jobs, checked_progress);
  CCSIM_CHECK(outcome.ok()) << "point failure in an unchecked run:\n"
                            << outcome.FailureSummary();
  std::vector<MetricsReport> reports;
  reports.reserve(outcome.points.size());
  for (PointResult& point : outcome.points) {
    reports.push_back(std::move(point.report));
  }
  return reports;
}

namespace {

// Every point configuration — including its seed — is built before anything
// runs: point i's seed depends only on (base.seed, i), never on which worker
// gets there first.
std::vector<EngineConfig> BuildSweepConfigs(const SweepConfig& sweep) {
  std::vector<EngineConfig> configs;
  configs.reserve(sweep.algorithms.size() * sweep.mpls.size());
  for (const std::string& algorithm : sweep.algorithms) {
    for (int mpl : sweep.mpls) {
      EngineConfig config = sweep.base;
      config.algorithm = algorithm;
      config.workload.mpl = mpl;
      configs.push_back(config);
    }
  }
  std::vector<uint64_t> seeds = DeriveSeeds(sweep.base.seed, configs.size());
  for (size_t i = 0; i < configs.size(); ++i) configs[i].seed = seeds[i];
  return configs;
}

}  // namespace

std::vector<MetricsReport> RunSweep(
    const SweepConfig& sweep,
    const std::function<void(const MetricsReport&)>& progress) {
  std::function<void(size_t, const MetricsReport&)> indexed_progress;
  if (progress) {
    indexed_progress = [&progress](size_t, const MetricsReport& report) {
      progress(report);
    };
  }
  return RunPoints(BuildSweepConfigs(sweep), sweep.lengths, sweep.jobs,
                   indexed_progress);
}

SweepOutcome RunSweepChecked(
    const SweepConfig& sweep,
    const std::function<void(const PointResult&)>& progress) {
  return RunPointsChecked(BuildSweepConfigs(sweep), sweep.lengths, sweep.jobs,
                          progress);
}

ReplicatedEstimate RunReplications(const EngineConfig& config,
                                   const RunLengths& lengths,
                                   int replications, int jobs) {
  CCSIM_CHECK_GE(replications, 2) << "need >= 2 replications for an interval";
  std::vector<uint64_t> seeds =
      DeriveSeeds(config.seed, static_cast<size_t>(replications));
  std::vector<EngineConfig> configs(static_cast<size_t>(replications), config);
  for (int r = 0; r < replications; ++r) {
    configs[static_cast<size_t>(r)].seed = seeds[static_cast<size_t>(r)];
  }
  ReplicatedEstimate estimate;
  estimate.replications = RunPoints(configs, lengths, jobs);
  // Combine in replication order (the order is part of the estimate's
  // definition, though Student-t statistics are order-invariant anyway).
  BatchMeans throughput, response;
  for (const MetricsReport& report : estimate.replications) {
    throughput.AddBatch(report.throughput.mean);
    response.AddBatch(report.response_mean.mean);
  }
  estimate.throughput = throughput.Estimate();
  estimate.response_mean = response.Estimate();
  return estimate;
}

}  // namespace ccsim
