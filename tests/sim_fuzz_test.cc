// Differential fuzz of the event kernel: long seeded random interleavings of
// Schedule, Cancel, Step, RunUntil and RequestStop — including scheduling and
// cancelling from inside handlers, and in some runs a ChoicePoint that picks
// random tie alternatives. Every fired record is compared with a reference
// that keeps the pending set ordered by (time, seq), where seq counts
// Schedule calls from 1 as the kernel's own sequence numbers do.
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/choice.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/random.h"

namespace ccsim {
namespace {

/// The record scheduled as `seq`, due at `time`: every field derives from
/// the two, so the handler can check the whole record it receives.
Event RecordFor(EventHandler* handler, uint64_t seq, SimTime time) {
  return {.handler = handler,
          .kind = static_cast<uint8_t>(seq),
          .byte = static_cast<uint8_t>(seq >> 8),
          .word = static_cast<int32_t>(seq * 2654435761u),
          .arg0 = static_cast<int64_t>(seq),
          .arg1 = time,
          .arg2 = ~static_cast<int64_t>(seq)};
}

class KernelFuzzer : public EventHandler, public ChoicePoint {
 public:
  KernelFuzzer(uint64_t seed, bool choose_ties)
      : rng_(seed), choose_ties_(choose_ties) {}

  /// Runs `ops` random operations, then drains the queue.
  void Run(int ops) {
    ScopedChoicePoint scope(choose_ties_ ? this : nullptr);
    for (int i = 0; i < ops && !testing::Test::HasFailure(); ++i) {
      RandomOp();
      ExpectInSync();
    }
    allow_stop_ = true;
    while (!pending_.empty() && !testing::Test::HasFailure()) {
      stopped_ = false;
      sim_.Run();
      ExpectInSync();
    }
    EXPECT_EQ(sim_.pending_events(), 0u);
    EXPECT_FALSE(sim_.Step());
  }

  int choices() const { return choices_; }

 private:
  static constexpr size_t kMaxTieAlternatives = 6;

  /// The index of a non-empty container's last element.
  template <typename Container>
  static int64_t Last(const Container& c) {
    return static_cast<int64_t>(c.size()) - 1;
  }

  void ExpectInSync() {
    EXPECT_EQ(sim_.Now(), clock_);
    EXPECT_EQ(sim_.pending_events(), pending_.size());
    EXPECT_EQ(sim_.events_fired(), fired_);
  }

  /// The workloads' delay mix (constant services, zero-delay resumes,
  /// exponential think times) plus far-off times that spread the buckets.
  SimTime RandomDelay() {
    switch (rng_.UniformInt(0, 5)) {
      case 0:
        return 0;
      case 1:
        return 1;
      case 2:
        return 15'000;
      case 3:
        return 35'000;
      case 4:
        return FromSeconds(rng_.Exponential(1.0));
      default:
        return rng_.UniformInt(0, int64_t{1} << 40);
    }
  }

  void Schedule(SimTime delay) {
    const uint64_t seq = ++seq_;
    const SimTime time = clock_ + delay;
    ids_[seq] = sim_.Schedule(delay, RecordFor(this, seq, time));
    pending_.insert({time, seq});
  }

  void CancelLive(std::set<std::pair<SimTime, uint64_t>>::iterator it) {
    const uint64_t seq = it->second;
    EXPECT_TRUE(sim_.Cancel(ids_[seq])) << "seq " << seq;
    Retire(seq);
    pending_.erase(it);
  }

  void Retire(uint64_t seq) {
    if (dead_.size() >= 256) dead_.erase(dead_.begin(), dead_.begin() + 128);
    dead_.push_back(ids_[seq]);
    ids_.erase(seq);
  }

  void CancelSome() {
    switch (rng_.UniformInt(0, 3)) {
      case 0: {  // A random pending event.
        if (pending_.empty()) return;
        auto it = pending_.begin();
        std::advance(it, rng_.UniformInt(0, Last(pending_)));
        CancelLive(it);
        return;
      }
      case 1: {  // The head, middle or tail of a random event's same-time run.
        if (pending_.empty()) return;
        auto it = pending_.begin();
        std::advance(it, rng_.UniformInt(0, Last(pending_)));
        const SimTime time = it->first;
        auto first = pending_.lower_bound({time, 0});
        const auto last = pending_.upper_bound(
            {time, std::numeric_limits<uint64_t>::max()});
        const auto run = static_cast<int64_t>(std::distance(first, last));
        const int64_t pick[] = {0, run / 2, run - 1};
        std::advance(first, pick[rng_.UniformInt(0, 2)]);
        CancelLive(first);
        return;
      }
      case 2:  // A fired or cancelled event, its slot possibly reused since.
        if (dead_.empty()) return;
        EXPECT_FALSE(sim_.Cancel(dead_[rng_.UniformInt(0, Last(dead_))]));
        return;
      default:
        EXPECT_FALSE(sim_.Cancel(kInvalidEventId));
        return;
    }
  }

  void Step() {
    const bool any = !pending_.empty();
    const uint64_t before = fired_;
    EXPECT_EQ(sim_.Step(), any);
    EXPECT_EQ(fired_, before + (any ? 1 : 0));
  }

  /// RunUntil(until), with handlers free to RequestStop mid-window.
  void RunWindow(SimTime until) {
    stopped_ = false;
    allow_stop_ = true;
    sim_.RunUntil(until);
    allow_stop_ = false;
    if (stopped_) return;  // The clock stays at the last fired event.
    EXPECT_TRUE(pending_.empty() || pending_.begin()->first > until);
    clock_ = until;
  }

  /// A window that ends before a far event, then events scheduled between
  /// the clock and that event: a kernel that moved its base past the clock
  /// would file these wrongly.
  void WindowBeforeFarEvent() {
    const SimTime far = 2 + rng_.UniformInt(0, int64_t{1} << 40);
    Schedule(far);
    const SimTime far_time = clock_ + far;
    RunWindow(clock_ + rng_.UniformInt(0, far - 1));
    for (int64_t i = rng_.UniformInt(1, 4); i > 0; --i) {
      Schedule(rng_.UniformInt(0, far_time - clock_));
    }
    Schedule(0);
  }

  void RandomOp() {
    const int64_t r = rng_.UniformInt(0, 99);
    if (pending_.size() > 256 || (r >= 35 && r < 60)) {
      Step();
    } else if (r < 25) {
      Schedule(RandomDelay());
    } else if (r < 35) {  // A same-time run, longer than a tie offer at most.
      const SimTime delay = RandomDelay();
      for (int64_t i = rng_.UniformInt(2, 9); i > 0; --i) Schedule(delay);
    } else if (r < 75) {
      CancelSome();
    } else if (r < 95) {
      RunWindow(clock_ + RandomDelay());
    } else {
      WindowBeforeFarEvent();
    }
  }

  void OnEvent(const Event& event) override {
    ++fired_;
    ASSERT_FALSE(pending_.empty()) << "fired with nothing pending";
    auto it = pending_.begin();
    if (chosen_ != 0) {
      it = pending_.find({it->first, chosen_});
      chosen_ = 0;
      ASSERT_NE(it, pending_.end()) << "the pick is not due now";
    }
    const auto [time, seq] = *it;
    const Event want = RecordFor(this, seq, time);
    ASSERT_EQ(event.arg0, want.arg0) << "wrong event fired at " << time;
    EXPECT_EQ(sim_.Now(), time);
    EXPECT_TRUE(event.handler == want.handler && event.kind == want.kind &&
                event.byte == want.byte && event.word == want.word &&
                event.arg1 == want.arg1 && event.arg2 == want.arg2)
        << "seq " << seq << " arrived corrupted";
    Retire(seq);
    pending_.erase(it);
    clock_ = time;
    // Handlers schedule, cancel and stop from inside the kernel too.
    const int64_t r = rng_.UniformInt(0, 9);
    if (r < 3) {
      for (int64_t i = rng_.UniformInt(1, 2); i > 0; --i) {
        Schedule(RandomDelay());
      }
    } else if (r == 3) {
      CancelSome();
    } else if (r == 4 && allow_stop_) {
      sim_.RequestStop();
      stopped_ = true;
    }
  }

  int Choose(const ChoiceRequest& request) override {
    ++choices_;
    EXPECT_STREQ(request.tag, "sim.tie");
    std::vector<uint64_t> due;
    for (auto it = pending_.begin(); it != pending_.end() &&
                                     it->first == pending_.begin()->first &&
                                     due.size() < kMaxTieAlternatives;
         ++it) {
      due.push_back(it->second);
    }
    EXPECT_EQ(std::vector<uint64_t>(request.alternatives,
                                    request.alternatives + request.count),
              due);
    const int pick = static_cast<int>(rng_.UniformInt(0, request.count - 1));
    chosen_ = request.alternatives[pick];
    return pick;
  }

  Rng rng_;
  const bool choose_ties_;
  Simulator sim_;
  SimTime clock_ = 0;
  uint64_t seq_ = 0;
  uint64_t fired_ = 0;
  /// The reference pending set, and each pending seq's id.
  std::set<std::pair<SimTime, uint64_t>> pending_;
  std::map<uint64_t, EventId> ids_;
  /// Ids of fired and cancelled events (the most recent ones).
  std::vector<EventId> dead_;
  /// The seq the ChoicePoint picked for the event about to fire; 0 = none.
  uint64_t chosen_ = 0;
  bool allow_stop_ = false;
  bool stopped_ = false;
  int choices_ = 0;
};

TEST(SimulatorFuzzTest, FiresInReferenceOrder) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    KernelFuzzer fuzzer(seed, /*choose_ties=*/false);
    fuzzer.Run(4000);
    EXPECT_EQ(fuzzer.choices(), 0);
  }
}

TEST(SimulatorFuzzTest, OffersReferenceTiesToAChoicePoint) {
  for (uint64_t seed = 101; seed <= 108; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    KernelFuzzer fuzzer(seed, /*choose_ties=*/true);
    fuzzer.Run(4000);
    EXPECT_GT(fuzzer.choices(), 100);
  }
}

}  // namespace
}  // namespace ccsim
