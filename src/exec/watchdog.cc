#include "exec/watchdog.h"

#include <chrono>

#include "util/check.h"
#include "util/env.h"

namespace ccsim {

PointBudget PointBudget::FromEnv() {
  PointBudget budget;
  int64_t max_events = GetEnvInt("CCSIM_MAX_EVENTS", 0);
  CCSIM_CHECK_GE(max_events, 0)
      << "CCSIM_MAX_EVENTS must be >= 0 (0 = unlimited), got " << max_events;
  budget.max_events = static_cast<uint64_t>(max_events);
  budget.heartbeat_seconds = GetEnvDouble("CCSIM_HEARTBEAT_SECONDS", 0.0);
  CCSIM_CHECK_GE(budget.heartbeat_seconds, 0.0)
      << "CCSIM_HEARTBEAT_SECONDS must be >= 0 (0 = disabled), got "
      << budget.heartbeat_seconds;
  return budget;
}

HeartbeatThread::HeartbeatThread(double seconds, std::function<void()> tick) {
  if (seconds <= 0.0) return;
  armed_ = true;
  auto period = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
  thread_ = std::thread([this, period, tick = std::move(tick)] {
    std::unique_lock<std::mutex> lock(mu_);
    auto next = std::chrono::steady_clock::now() + period;
    while (!cv_.wait_until(lock, next, [this] { return cancelled_; })) {
      // Tick outside the lock so a slow callback cannot delay cancellation.
      lock.unlock();
      tick();
      lock.lock();
      next += period;
    }
  });
}

HeartbeatThread::~HeartbeatThread() {
  if (!armed_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

}  // namespace ccsim
