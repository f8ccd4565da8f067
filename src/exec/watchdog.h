// Per-point execution budget and the progress heartbeat
// (docs/EXECUTION.md, "Failure semantics").
//
// The paper's most interesting operating points — thrashing at mpl 200,
// restart-storm regimes — are exactly the ones that can run pathologically
// long or livelock outright (a zero-delay restart chain generates events at
// one simulated instant forever). A sweep worker stuck in such a point would
// otherwise hang its slot for the rest of the run. One budget bounds every
// point: a simulated-event ceiling, checked inside the event loop
// (Simulator::RunGuard), which catches livelock deterministically. A tripped
// budget surfaces as PointTimeout, which TryRunOnePoint converts into a
// kDeadlineExceeded Status carrying diagnostics (last event time, event
// count, transaction census).
//
// The opt-in heartbeat (HeartbeatThread) only reports a running point's
// progress; it never stops one.
#ifndef CCSIM_EXEC_WATCHDOG_H_
#define CCSIM_EXEC_WATCHDOG_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace ccsim {

/// The budget applied to one simulation point. Zero means unlimited.
struct PointBudget {
  /// Ceiling on simulated events per point (CCSIM_MAX_EVENTS).
  uint64_t max_events = 0;
  /// Opt-in progress heartbeat period in wall-clock seconds
  /// (CCSIM_HEARTBEAT_SECONDS); 0 disables. Purely observational — the
  /// reporter thread reads relaxed atomics the event loop publishes, so a
  /// heartbeat can never change a result.
  double heartbeat_seconds = 0.0;

  bool unlimited() const { return max_events == 0; }

  /// Reads CCSIM_MAX_EVENTS and CCSIM_HEARTBEAT_SECONDS; negative or
  /// malformed values are a hard error (util/env.h semantics).
  static PointBudget FromEnv();
};

/// Thrown (out of the event loop, via RunGuard::on_violation) when a point
/// budget trips. what() carries the full diagnostic line.
class PointTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A periodic wall-clock ticker: calls `tick` every `seconds` on a
/// background thread until destruction (which cancels and joins without a
/// final tick). With seconds <= 0 the ticker is inert and no thread is
/// spawned. Drives the opt-in progress heartbeat (CCSIM_HEARTBEAT_SECONDS):
/// the callback typically reads a ProgressCell and prints one status line.
class HeartbeatThread {
 public:
  HeartbeatThread(double seconds, std::function<void()> tick);
  ~HeartbeatThread();

  HeartbeatThread(const HeartbeatThread&) = delete;
  HeartbeatThread& operator=(const HeartbeatThread&) = delete;

 private:
  bool armed_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
  bool cancelled_ = false;
  std::thread thread_;
};

}  // namespace ccsim

#endif  // CCSIM_EXEC_WATCHDOG_H_
