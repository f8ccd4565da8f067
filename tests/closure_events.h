// Test helper: an EventHandler that runs ad-hoc closures, so tests can say
// "at this instant, do that" without writing a handler class each time. The
// engine never schedules closures; its events are plain records.
#ifndef CCSIM_TESTS_CLOSURE_EVENTS_H_
#define CCSIM_TESTS_CLOSURE_EVENTS_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace ccsim {

class ClosureEvents : public EventHandler {
 public:
  explicit ClosureEvents(Simulator* sim) : sim_(sim) {}

  /// Schedules `fn` to run `delay` µs from now. The closure waits in a slot
  /// named by the event's arg0; firing moves it out and frees the slot
  /// before running it, so a closure may schedule more closures.
  EventId Schedule(SimTime delay, std::function<void()> fn) {
    size_t slot = closures_.size();
    if (free_.empty()) {
      closures_.push_back(std::move(fn));
    } else {
      slot = free_.back();
      free_.pop_back();
      closures_[slot] = std::move(fn);
    }
    return sim_->Schedule(
        delay, {.handler = this, .arg0 = static_cast<int64_t>(slot)});
  }

  void OnEvent(const Event& event) override {
    const auto slot = static_cast<size_t>(event.arg0);
    std::function<void()> fn = std::move(closures_[slot]);
    free_.push_back(slot);
    fn();
  }

 private:
  Simulator* sim_;
  std::vector<std::function<void()>> closures_;
  std::vector<size_t> free_;
};

}  // namespace ccsim

#endif  // CCSIM_TESTS_CLOSURE_EVENTS_H_
