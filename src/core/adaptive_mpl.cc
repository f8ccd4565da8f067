#include "core/adaptive_mpl.h"

#include <algorithm>

#include "util/check.h"

namespace ccsim {

AdaptiveMplController::AdaptiveMplController(Simulator* sim,
                                             ClosedSystem* system,
                                             Options options)
    : sim_(sim), system_(system), options_(options) {
  CCSIM_CHECK_GT(options_.interval, 0);
  CCSIM_CHECK_GE(options_.min_mpl, 1);
  CCSIM_CHECK_LE(options_.min_mpl, options_.max_mpl);
  CCSIM_CHECK_GE(options_.step, 1);
}

void AdaptiveMplController::Start() {
  commits_at_last_tick_ = system_->total_commits();
  sim_->Schedule(options_.interval, {.handler = this});
}

void AdaptiveMplController::Tick() {
  int64_t commits = system_->total_commits();
  double throughput = static_cast<double>(commits - commits_at_last_tick_) /
                      ToSeconds(options_.interval);
  commits_at_last_tick_ = commits;

  if (last_throughput_ >= 0.0) {
    double change = last_throughput_ > 0.0
                        ? (throughput - last_throughput_) / last_throughput_
                        : (throughput > 0.0 ? 1.0 : 0.0);
    if (change < -options_.tolerance) {
      direction_ = -direction_;  // The last move hurt; back off.
    }
    // Within tolerance: keep drifting in the current direction, so the
    // controller keeps probing instead of freezing on a plateau.
    int mpl = std::clamp(system_->mpl() + direction_ * options_.step,
                         options_.min_mpl, options_.max_mpl);
    if (mpl != system_->mpl()) {
      system_->SetMpl(mpl);
      ++adjustments_;
    } else {
      direction_ = -direction_;  // Pinned at a bound; probe inward next.
    }
  }
  last_throughput_ = throughput;
  sim_->Schedule(options_.interval, {.handler = this});
}

}  // namespace ccsim
