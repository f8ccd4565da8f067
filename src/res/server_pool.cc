#include "res/server_pool.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace ccsim {

ServerPool::ServerPool(Simulator* sim, ServiceSink* sink, int num_servers,
                       bool infinite, std::string name)
    : sim_(sim),
      sink_(sink),
      num_servers_(infinite ? 0 : num_servers),
      infinite_(infinite),
      name_(std::move(name)),
      busy_time_(sim->Now()),
      queue_len_(sim->Now()) {
  CCSIM_CHECK(sink != nullptr) << "pool " << name_ << " needs a sink";
  CCSIM_CHECK(infinite || num_servers >= 1)
      << "finite pool " << name_ << " needs at least one server";
}

void ServerPool::Request(ServicePriority priority, ServiceRequest request) {
  CCSIM_CHECK_GT(request.service, 0) << "zero-cost service in pool " << name_;
  request.requested_at = sim_->Now();
  // Inside a fault window nothing starts: the request queues even with idle
  // servers (infinite pools included — their only queue use), and the drain
  // event at the window end picks it up. Deferral time is attributed to
  // fault_delay() at drain.
  if (fault_.active(sim_->Now())) {
    ++faulted_requests_;
    Enqueue(priority, request);
    return;
  }
  if (infinite_ || busy_servers_ < num_servers_) {
    wait_times_.Add(0.0);
    BeginService(request);
    return;
  }
  Enqueue(priority, request);
}

void ServerPool::Enqueue(ServicePriority priority,
                         const ServiceRequest& request) {
  (priority == ServicePriority::kConcurrencyControl ? cc_queue_
                                                    : normal_queue_)
      .push_back(request);
  queue_len_.Set(sim_->Now(), static_cast<double>(queue_length()));
  if (span_sink_ != nullptr) {
    span_sink_->OnQueueDepth(span_track_, sim_->Now(),
                             static_cast<int>(queue_length()));
  }
}

ServiceRequest ServerPool::StartNextWaiter() {
  RingQueue<ServiceRequest>& queue =
      !cc_queue_.empty() ? cc_queue_ : normal_queue_;
  const ServiceRequest next = queue.front();
  queue.pop_front();
  queue_len_.Set(sim_->Now(), static_cast<double>(queue_length()));
  if (span_sink_ != nullptr) {
    span_sink_->OnQueueDepth(span_track_, sim_->Now(),
                             static_cast<int>(queue_length()));
  }
  wait_times_.Add(ToSeconds(sim_->Now() - next.requested_at));
  BeginService(next);
  return next;
}

void ServerPool::BeginService(const ServiceRequest& request) {
  ++busy_servers_;
  busy_time_.Set(sim_->Now(), static_cast<double>(busy_servers_));
  SimTime service_time = request.service;
  // Outage hold: a completion that would land inside the window is held to
  // the window end — the server stays busy and the request simply takes
  // longer, modelling in-flight work frozen on a device that dropped off.
  // The record keeps its nominal `service`; the hold shows up as waiting.
  if (fault_.kind == FaultWindowKind::kOutage) {
    const SimTime completes = sim_->Now() + service_time;
    if (completes >= fault_.start && completes < fault_.end) {
      ++faulted_requests_;
      fault_delay_ += fault_.end - completes;
      service_time = fault_.end - sim_->Now();
    }
  }
  if (span_sink_ != nullptr) {
    span_sink_->OnServiceSpan(span_track_, sim_->Now(), service_time);
  }
  sim_->Schedule(service_time, {.handler = this,
                                .kind = kServiceComplete,
                                .byte = request.kind,
                                .word = request.incarnation,
                                .arg0 = request.txn,
                                .arg1 = request.service,
                                .arg2 = request.requested_at});
}

void ServerPool::OnEvent(const Event& event) {
  if (event.kind == kFaultWindowEnd) {
    DrainAfterFaultWindow();
    return;
  }
  OnServiceComplete({.kind = event.byte,
                     .incarnation = event.word,
                     .txn = event.arg0,
                     .service = event.arg1,
                     .requested_at = event.arg2});
}

void ServerPool::OnServiceComplete(const ServiceRequest& request) {
  --busy_servers_;
  CCSIM_CHECK_GE(busy_servers_, 0);
  busy_time_.Set(sim_->Now(), static_cast<double>(busy_servers_));
  ++completed_requests_;

  // Hand the freed server to the highest-priority waiter before reporting
  // the completion, so that queue statistics reflect the instant of
  // transfer. During a stall window the freed server idles instead — the
  // drain event at the window end performs the deferred handoffs. (Under an
  // outage no completion can land here: BeginService held them past the
  // window.)
  if (!infinite_ && !fault_.active(sim_->Now()) && queue_length() > 0) {
    StartNextWaiter();
  }
  sink_->OnServiceDone(request);
}

void ServerPool::SetFaultWindow(const FaultWindow& window) {
  CCSIM_CHECK(window.enabled())
      << "SetFaultWindow(kNone) on pool " << name_;
  CCSIM_CHECK(!fault_.enabled())
      << "pool " << name_ << " already has a fault window";
  CCSIM_CHECK_GE(window.start, 0);
  CCSIM_CHECK_GT(window.end, window.start)
      << "empty fault window on pool " << name_;
  CCSIM_CHECK_GE(window.start, sim_->Now())
      << "fault window on pool " << name_ << " starts in the past";
  fault_ = window;
  sim_->Schedule(fault_.end - sim_->Now(),
                 {.handler = this, .kind = kFaultWindowEnd});
}

void ServerPool::DrainAfterFaultWindow() {
  // The window just closed (now == fault_.end, so active() is false): start
  // everything the window made wait, capacity permitting. Waiters that were
  // already queued when the window opened count as faulted here — their
  // wait since the window start is attributable to it; arrivals during the
  // window were counted at Request time.
  while ((infinite_ || busy_servers_ < num_servers_) && queue_length() > 0) {
    const ServiceRequest next = StartNextWaiter();
    if (next.requested_at < fault_.start) ++faulted_requests_;
    fault_delay_ += sim_->Now() - std::max(next.requested_at, fault_.start);
  }
}

void ServerPool::ResetWindow(SimTime now) {
  busy_time_.ResetWindow(now);
  queue_len_.ResetWindow(now);
  wait_times_.Reset();
}

void ServerPool::AttachSpanSink(ServiceSpanSink* sink) {
  span_sink_ = sink;
  span_track_ = sink != nullptr ? sink->RegisterTrack(name_) : -1;
}

}  // namespace ccsim
