// The complete physical model: one CPU pool plus a partitioned disk array
// (one FCFS queue per disk, disk chosen uniformly at random per access), with
// an infinite-resources mode that turns every request into a pure delay.
#ifndef CCSIM_RES_RESOURCES_H_
#define CCSIM_RES_RESOURCES_H_

#include <memory>
#include <vector>

#include "obs/registry.h"
#include "obs/span_sink.h"
#include "res/server_pool.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace ccsim {

/// Physical configuration. `infinite` overrides the counts. The optional
/// fault windows (docs/FAULTS.md, "Fault windows") are simulated-fault
/// scenarios: `disk_fault` arms the same window on every disk in the array
/// (the whole farm behind one controller), `cpu_fault` on the CPU pool.
struct ResourceConfig {
  bool infinite = false;
  int num_cpus = 1;
  int num_disks = 2;
  FaultWindow disk_fault;
  FaultWindow cpu_fault;

  static ResourceConfig Infinite() {
    return ResourceConfig{true, 0, 0, {}, {}};
  }
  static ResourceConfig Finite(int cpus, int disks) {
    return ResourceConfig{false, cpus, disks, {}, {}};
  }
};

/// Owns the CPU pool and disk array and routes service requests. Every pool
/// reports its completions to the one ServiceSink given at construction.
class ResourceManager {
 public:
  /// `disk_rng` drives the uniform random disk choice. `sink` (not owned)
  /// receives every completed request.
  ResourceManager(Simulator* sim, const ResourceConfig& config, Rng disk_rng,
                  ServiceSink* sink);

  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  const ResourceConfig& config() const { return config_; }

  /// CPU service; cc requests are prioritized over normal work. Each
  /// Request* call serves `request.service` µs (ServerPool::Request).
  void RequestCpu(ServicePriority priority, const ServiceRequest& request);

  /// Disk service at a uniformly random disk (the partitioned-database
  /// assumption: each access is equally likely to hit any partition).
  void RequestDisk(const ServiceRequest& request);

  /// Disk service at a specific disk (tests and specialized workloads).
  void RequestDiskAt(int disk, const ServiceRequest& request);

  /// Service on the dedicated sequential log disk (commit records). The log
  /// disk is created on first use — one FCFS server, or a pure delay under
  /// infinite resources — and is not counted in DiskUtilization().
  void RequestLog(const ServiceRequest& request);

  /// Log-disk utilization over the current window (0 if the log disk was
  /// never used or resources are infinite).
  double LogUtilization(SimTime now);

  /// The log pool, or nullptr if never used (tests).
  ServerPool* log_disk() { return log_.get(); }

  int num_disks() const { return static_cast<int>(disks_.size()); }

  ServerPool& cpu() { return *cpu_; }
  ServerPool& disk(int i) { return *disks_[static_cast<size_t>(i)]; }

  /// CPU utilization fraction over the current window (0 if infinite).
  double CpuUtilization(SimTime now);

  /// Mean utilization fraction across all disks over the current window
  /// (0 if infinite).
  double DiskUtilization(SimTime now);

  /// Starts a new measurement window on every pool.
  void ResetWindow(SimTime now);

  /// Requests delayed by fault windows so far, summed across every pool,
  /// and the total injected delay in simulated µs (docs/FAULTS.md).
  int64_t faulted_requests() const;
  SimTime fault_delay() const;

  /// Registers per-pool gauges (busy servers, queue depth, and — when a
  /// fault window is armed — requests the window has delayed) into the
  /// observability registry. The log pool may not exist yet; its gauges read
  /// 0 until first use.
  void RegisterStats(StatsRegistry* registry);

  /// Attaches an observability span sink to every pool (nullptr detaches);
  /// a log pool created later attaches on creation.
  void AttachSpanSink(ServiceSpanSink* sink);

 private:
  Simulator* sim_;
  ServiceSink* sink_;
  ResourceConfig config_;
  Rng disk_rng_;
  std::unique_ptr<ServerPool> cpu_;
  std::vector<std::unique_ptr<ServerPool>> disks_;
  std::unique_ptr<ServerPool> log_;
  ServiceSpanSink* span_sink_ = nullptr;
};

}  // namespace ccsim

#endif  // CCSIM_RES_RESOURCES_H_
