#include "res/resources.h"

#include <utility>

#include "util/check.h"
#include "util/str.h"

namespace ccsim {

ResourceManager::ResourceManager(Simulator* sim, const ResourceConfig& config,
                                 Rng disk_rng, ServiceSink* sink)
    : sim_(sim), sink_(sink), config_(config), disk_rng_(std::move(disk_rng)) {
  if (config_.infinite) {
    cpu_ = std::make_unique<ServerPool>(sim_, sink_, 0, /*infinite=*/true,
                                        "cpu");
    // One infinite pool stands in for the whole disk farm: with no queuing
    // the partitioning is unobservable.
    disks_.push_back(std::make_unique<ServerPool>(sim_, sink_, 0,
                                                  /*infinite=*/true, "disk"));
  } else {
    CCSIM_CHECK_GE(config_.num_cpus, 1);
    CCSIM_CHECK_GE(config_.num_disks, 1);
    cpu_ = std::make_unique<ServerPool>(sim_, sink_, config_.num_cpus,
                                        /*infinite=*/false, "cpu");
    for (int i = 0; i < config_.num_disks; ++i) {
      disks_.push_back(std::make_unique<ServerPool>(
          sim_, sink_, 1, /*infinite=*/false, StringPrintf("disk%d", i)));
    }
  }
  // Arm the simulated fault windows last, so the drain events they schedule
  // exist regardless of the finite/infinite topology above. One disk_fault
  // window covers the whole array: the scenario is "the controller stalls",
  // not "one platter does".
  if (config_.cpu_fault.enabled()) cpu_->SetFaultWindow(config_.cpu_fault);
  if (config_.disk_fault.enabled()) {
    for (auto& disk : disks_) disk->SetFaultWindow(config_.disk_fault);
  }
}

void ResourceManager::RequestCpu(ServicePriority priority,
                                 const ServiceRequest& request) {
  cpu_->Request(priority, request);
}

void ResourceManager::RequestDisk(const ServiceRequest& request) {
  int disk = disks_.size() == 1
                 ? 0
                 : static_cast<int>(disk_rng_.UniformInt(
                       0, static_cast<int64_t>(disks_.size()) - 1));
  RequestDiskAt(disk, request);
}

void ResourceManager::RequestDiskAt(int disk, const ServiceRequest& request) {
  CCSIM_CHECK_GE(disk, 0);
  CCSIM_CHECK_LT(disk, num_disks());
  disks_[static_cast<size_t>(disk)]->Request(ServicePriority::kNormal, request);
}

void ResourceManager::RequestLog(const ServiceRequest& request) {
  if (log_ == nullptr) {
    log_ = std::make_unique<ServerPool>(sim_, sink_, 1, config_.infinite,
                                        "log");
    if (span_sink_ != nullptr) log_->AttachSpanSink(span_sink_);
  }
  log_->Request(ServicePriority::kNormal, request);
}

double ResourceManager::LogUtilization(SimTime now) {
  return log_ == nullptr ? 0.0 : log_->Utilization(now);
}

double ResourceManager::CpuUtilization(SimTime now) {
  return cpu_->Utilization(now);
}

double ResourceManager::DiskUtilization(SimTime now) {
  if (config_.infinite) return 0.0;
  double sum = 0.0;
  for (auto& disk : disks_) {
    sum += disk->Utilization(now);
  }
  return sum / static_cast<double>(disks_.size());
}

void ResourceManager::ResetWindow(SimTime now) {
  cpu_->ResetWindow(now);
  for (auto& disk : disks_) {
    disk->ResetWindow(now);
  }
  if (log_ != nullptr) log_->ResetWindow(now);
}

int64_t ResourceManager::faulted_requests() const {
  int64_t total = cpu_->faulted_requests();
  for (const auto& disk : disks_) total += disk->faulted_requests();
  return total;
}

SimTime ResourceManager::fault_delay() const {
  SimTime total = cpu_->fault_delay();
  for (const auto& disk : disks_) total += disk->fault_delay();
  return total;
}

void ResourceManager::RegisterStats(StatsRegistry* registry) {
  auto add_pool = [registry](const std::string& name, const ServerPool* pool) {
    registry->AddGauge(name + "_busy", [pool] {
      return static_cast<double>(pool->busy_servers());
    });
    registry->AddGauge(name + "_q", [pool] {
      return static_cast<double>(pool->queue_length());
    });
    // Fault-window exposure only when armed, so an unfaulted run's gauge
    // set — and therefore its sampler CSV header — is byte-identical to
    // builds without the fault subsystem.
    if (pool->fault_window().enabled()) {
      registry->AddGauge(name + "_faulted", [pool] {
        return static_cast<double>(pool->faulted_requests());
      });
    }
  };
  add_pool("cpu", cpu_.get());
  for (auto& disk : disks_) add_pool(disk->name(), disk.get());
  // The log pool is created lazily on first use; read through the owner.
  registry->AddGauge("log_busy", [this] {
    return log_ == nullptr ? 0.0 : static_cast<double>(log_->busy_servers());
  });
  registry->AddGauge("log_q", [this] {
    return log_ == nullptr ? 0.0 : static_cast<double>(log_->queue_length());
  });
}

void ResourceManager::AttachSpanSink(ServiceSpanSink* sink) {
  span_sink_ = sink;
  cpu_->AttachSpanSink(sink);
  for (auto& disk : disks_) disk->AttachSpanSink(sink);
  if (log_ != nullptr) log_->AttachSpanSink(sink);
}

}  // namespace ccsim
