// Physical resource servers (Figure 2 of the paper).
//
// A ServerPool models k identical servers fed by one global queue with two
// priority classes (concurrency control requests are served before normal
// work, FCFS within class) — this is the paper's CPU model. A pool with one
// server is the building block of the partitioned-disk model. A pool may be
// configured as *infinite*, in which case every request is a pure service
// delay with no queuing — the paper's "infinite resources" assumption.
#ifndef CCSIM_RES_SERVER_POOL_H_
#define CCSIM_RES_SERVER_POOL_H_

#include <cstdint>
#include <string>

#include "obs/span_sink.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "stats/time_weighted.h"
#include "stats/welford.h"
#include "util/dense_table.h"

namespace ccsim {

/// Service priority classes. Lower enumerator = served first.
enum class ServicePriority { kConcurrencyControl = 0, kNormal = 1 };

/// Simulated resource-fault scenarios (docs/FAULTS.md, "Fault windows"):
/// first-class workloads for studying graceful degradation, not injected
/// errors — the pool stays consistent and every request eventually
/// completes, later.
enum class FaultWindowKind : uint8_t {
  kNone = 0,
  /// Stall: during the window no *new* service starts — arrivals queue even
  /// with idle servers, and freed servers sit idle — but in-flight requests
  /// complete normally. Models a controller pausing its queue (firmware
  /// hiccup, SSD garbage-collection stall).
  kStall,
  /// Outage: a stall whose in-flight requests also freeze — any completion
  /// that would land inside the window is held until the window ends.
  /// Models the device dropping off the bus and coming back.
  kOutage,
};

/// One [start, end) window of simulated time during which the fault holds.
struct FaultWindow {
  FaultWindowKind kind = FaultWindowKind::kNone;
  SimTime start = 0;
  SimTime end = 0;

  bool enabled() const { return kind != FaultWindowKind::kNone; }
  bool active(SimTime now) const {
    return enabled() && now >= start && now < end;
  }
};

/// One service request, handed back unchanged to the pool's ServiceSink when
/// the service completes. A plain record rather than a completion callback:
/// the completion event carries it as its payload (sim/simulator.h Event), so
/// a service costs no heap allocation. The pool reads only `service` and
/// stamps `requested_at`; `kind`, `incarnation` and `txn` are the
/// requester's opaque payload.
struct ServiceRequest {
  /// Requester-defined tag (the engine's step kind); opaque to the pool.
  uint8_t kind = 0;
  int32_t incarnation = 0;
  /// Requester-defined subject (a transaction id, or any other handle).
  int64_t txn = 0;
  /// Service demand in µs; must be > 0 when handed to a pool.
  SimTime service = 0;
  /// When the request entered the pool; set by ServerPool::Request.
  SimTime requested_at = 0;
};

/// Receives completed service requests.
class ServiceSink {
 public:
  /// Called at the completion instant, after the freed server has been
  /// handed to the next waiter.
  virtual void OnServiceDone(const ServiceRequest& request) = 0;

 protected:
  ~ServiceSink() = default;
};

/// k identical servers with a shared two-class FCFS queue, or an infinite
/// server bank when constructed with `infinite = true`.
class ServerPool : private EventHandler {
 public:
  /// `num_servers` is ignored when `infinite` is true. Requires
  /// num_servers >= 1 otherwise. Completed requests go to `sink` (not
  /// owned; must outlive the pool's pending events).
  ServerPool(Simulator* sim, ServiceSink* sink, int num_servers, bool infinite,
             std::string name = "pool");

  ServerPool(const ServerPool&) = delete;
  ServerPool& operator=(const ServerPool&) = delete;

  /// Requests `request.service` µs of service; the sink receives `request`
  /// at completion, with `requested_at` set to now. Requires service > 0
  /// (zero-cost steps are the caller's business).
  void Request(ServicePriority priority, ServiceRequest request);

  /// Arms one simulated fault window (docs/FAULTS.md). Must be called
  /// before the simulation advances into the window; requires
  /// 0 <= start < end and at most one window per pool. Schedules the
  /// deterministic drain event at `window.end`, so arming a window is
  /// itself part of the simulated workload (an unarmed pool's event
  /// sequence is untouched).
  void SetFaultWindow(const FaultWindow& window);

  const FaultWindow& fault_window() const { return fault_; }

  /// Requests delayed by the fault window so far (start deferred into the
  /// queue, or — outage — completion held to the window end).
  int64_t faulted_requests() const { return faulted_requests_; }

  /// Total extra delay the window injected, in simulated µs, summed over
  /// faulted requests (queue-deferral time plus held-completion time).
  SimTime fault_delay() const { return fault_delay_; }

  bool infinite() const { return infinite_; }
  int num_servers() const { return num_servers_; }
  const std::string& name() const { return name_; }

  /// Servers currently serving a request.
  int busy_servers() const { return busy_servers_; }

  /// Requests waiting in queue (all classes).
  size_t queue_length() const {
    return cc_queue_.size() + normal_queue_.size();
  }

  int64_t completed_requests() const { return completed_requests_; }

  /// Mean busy servers over the current measurement window. Divide by
  /// num_servers() for a utilization fraction (finite pools only).
  double MeanBusyServers(SimTime now) { return busy_time_.Average(now); }

  /// Utilization fraction in the current window; 0 for infinite pools where
  /// the notion is meaningless.
  double Utilization(SimTime now) {
    return infinite_ ? 0.0
                     : MeanBusyServers(now) / static_cast<double>(num_servers_);
  }

  /// Mean queue length over the current window.
  double MeanQueueLength(SimTime now) { return queue_len_.Average(now); }

  /// Waiting-time statistics (time in queue, excluding service).
  const Welford& wait_time_stats() const { return wait_times_; }

  /// Starts a new measurement window (batch boundary).
  void ResetWindow(SimTime now);

  /// Attaches an observability sink (nullptr detaches); the pool registers
  /// itself as a track and reports every service span and queue-depth
  /// change. Detached (the default), each hook is one null check.
  void AttachSpanSink(ServiceSpanSink* sink);

 private:
  /// The pool's timed events.
  enum EventKind : uint8_t {
    kServiceComplete,  ///< The payload is the completed ServiceRequest.
    kFaultWindowEnd,
  };
  void OnEvent(const Event& event) override;

  void Enqueue(ServicePriority priority, const ServiceRequest& request);
  /// Pops the next waiter (cc class first), starts its service, and
  /// returns it.
  ServiceRequest StartNextWaiter();
  void BeginService(const ServiceRequest& request);
  void OnServiceComplete(const ServiceRequest& request);
  /// Fires at fault_.end: hands idle capacity to everything the window made
  /// wait (all of it, for an infinite pool).
  void DrainAfterFaultWindow();

  Simulator* sim_;
  ServiceSink* sink_;
  int num_servers_;
  bool infinite_;
  std::string name_;

  int busy_servers_ = 0;
  RingQueue<ServiceRequest> cc_queue_;
  RingQueue<ServiceRequest> normal_queue_;

  FaultWindow fault_;
  int64_t faulted_requests_ = 0;
  SimTime fault_delay_ = 0;

  int64_t completed_requests_ = 0;
  TimeWeightedValue busy_time_;
  TimeWeightedValue queue_len_;
  Welford wait_times_;

  ServiceSpanSink* span_sink_ = nullptr;
  int span_track_ = -1;
};

}  // namespace ccsim

#endif  // CCSIM_RES_SERVER_POOL_H_
