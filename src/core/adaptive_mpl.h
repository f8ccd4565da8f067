// Adaptive multiprogramming-level control (the paper's "open problem").
//
// The paper concludes that the mpl should be actively managed: blocking and
// optimistic strategies thrash when it is set too high, and the restart delay
// only limits it as a crude side effect. This controller is a simple
// hill-climbing feedback loop over observed throughput: every `interval` it
// measures committed throughput, keeps moving the mpl in the same direction
// while throughput improves, and reverses direction when it degrades.
#ifndef CCSIM_CORE_ADAPTIVE_MPL_H_
#define CCSIM_CORE_ADAPTIVE_MPL_H_

#include "core/closed_system.h"
#include "sim/simulator.h"

namespace ccsim {

class AdaptiveMplController : private EventHandler {
 public:
  struct Options {
    SimTime interval = 30 * kSecond;  ///< Observation window per adjustment.
    int min_mpl = 2;
    int max_mpl = 200;
    int step = 5;                     ///< Mpl change per adjustment.
    /// Relative throughput change below which the controller holds still
    /// (hysteresis against noise).
    double tolerance = 0.02;
  };

  AdaptiveMplController(Simulator* sim, ClosedSystem* system, Options options);

  /// Schedules the first adjustment tick. Call once, before or after Prime().
  void Start();

  int adjustments_made() const { return adjustments_; }

 private:
  /// The adjustment tick.
  void OnEvent(const Event&) override { Tick(); }
  void Tick();

  Simulator* sim_;
  ClosedSystem* system_;
  Options options_;
  int64_t commits_at_last_tick_ = 0;
  double last_throughput_ = -1.0;
  int direction_ = +1;
  int adjustments_ = 0;
};

}  // namespace ccsim

#endif  // CCSIM_CORE_ADAPTIVE_MPL_H_
