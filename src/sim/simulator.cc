#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "sim/choice.h"
#include "util/check.h"

namespace ccsim {

void Simulator::SetRunGuard(RunGuard guard) { guard_ = std::move(guard); }

void Simulator::ClearRunGuard() { guard_ = RunGuard{}; }

void Simulator::TripGuard(const char* reason) {
  if (guard_.on_violation) guard_.on_violation(reason);
  CCSIM_CHECK(false) << "run guard tripped (" << reason << ") after "
                     << events_fired_ << " events at sim time " << now_
                     << " µs, and on_violation returned";
}

SimTime Simulator::LowestBucketMin() const {
  SimTime min = kEndOfTime;
  for (uint32_t slot = head_[std::countr_zero(nonempty_)]; slot != kNullSlot;
       slot = slots_[slot].next) {
    min = std::min(min, slots_[slot].time);
  }
  return min;
}

void Simulator::Rebucket(SimTime min) {
  // Every event in the lowest bucket agrees with `min` on the bits above
  // that bucket's, so each lands in a lower bucket, all of which are empty:
  // appending in list order keeps equal times in scheduling order.
  uint32_t slot = head_[std::countr_zero(nonempty_)];
  nonempty_ &= nonempty_ - 1;
  base_ = min;
  while (slot != kNullSlot) {
    const uint32_t next = slots_[slot].next;
    Append(slot);
    slot = next;
  }
}

namespace {
// Ceiling on the simultaneous events offered to a verifier ChoicePoint at one
// instant; any further same-time events keep the deterministic seq order.
// This bounds the explorer's branching factor, not engine behaviour.
constexpr int kMaxTieAlternatives = 6;
}  // namespace

uint32_t Simulator::ResolveTie() const {
  uint32_t candidates[kMaxTieAlternatives];
  uint64_t signatures[kMaxTieAlternatives];
  int count = 0;
  for (uint32_t slot = head_[0];
       slot != kNullSlot && count < kMaxTieAlternatives;
       slot = slots_[slot].next) {
    candidates[count] = slot;
    signatures[count] = slots_[slot].seq;
    ++count;
  }
  // Choose() may throw to abandon a pruned run (its engine and this
  // simulator are discarded with it); nothing has been unlinked.
  return candidates[MaybeChoose("sim.tie", signatures, count)];
}

bool Simulator::FireNext(SimTime until) {
  if (nonempty_ == 0) return false;
  // Bucket 0 is due at base_ <= now_ <= until. Otherwise move the base only
  // to a minimum inside the window (and only after the guard passed): a
  // base past the clock would let a later Schedule land below it.
  const bool due_now = (nonempty_ & 1) != 0;
  const SimTime next = due_now ? base_ : LowestBucketMin();
  if (next > until) return false;
  // The event budget (RunGuard); TripGuard builds the report out of line.
  if (guard_.max_events != 0 && events_fired_ >= guard_.max_events) {
    TripGuard("simulated-event budget exhausted");
  }
  if (!due_now) Rebucket(next);
  uint32_t slot = head_[0];
  if (ActiveChoicePoint() != nullptr) slot = ResolveTie();
  Unlink(slot, 0);
  // Copy the record out and free its slot before dispatch: a self-Cancel
  // from the handler is then a stale no-op, and whatever the handler
  // schedules may reuse the slot or grow the arena.
  const Event event = slots_[slot].event;
  RetireSlot(slot);
  CCSIM_CHECK_GE(base_, now_);
  now_ = base_;
  ++events_fired_;
  if (progress_ != nullptr) {
    progress_->sim_time_us.store(now_, std::memory_order_relaxed);
    progress_->events.store(events_fired_, std::memory_order_relaxed);
  }
  event.handler->OnEvent(event);
  return true;
}

void Simulator::Run() {
  stop_requested_ = false;
  while (!stop_requested_ && Step()) {
  }
}

void Simulator::RunUntil(SimTime until) {
  CCSIM_CHECK_GE(until, now_);
  stop_requested_ = false;
  while (!stop_requested_ && FireNext(until)) {
  }
  // An interrupted window leaves the clock at the last fired event (see the
  // declaration's interrupt-semantics contract).
  if (!stop_requested_) now_ = until;
}

}  // namespace ccsim
