// Causal blame attribution (docs/OBSERVABILITY.md).
//
// The phase breakdown (obs/phase.h) says *where* response time goes; blame
// says *who made it go there*. Every conflict the cc layer resolves calls
// CCEngine::OnBlame naming the opposing transaction; the engine charges the
// resulting delay to that opponent:
//
//   * wasted-µs charged to aborters — each restarted incarnation's lifetime
//     (the integer µs the phase breakdown books as `wasted`) is charged to
//     the transaction that caused the restart;
//   * blocked-µs charged to holders — each committed incarnation's cc-block
//     time (the µs the breakdown books as `cc_block`) is charged to the
//     transaction it waited behind;
//   * restart genealogy — how many incarnations each measured commit burned.
//
// Charges obey the same fold discipline as the phase accumulators: they
// ride on the victim transaction and fold into the aggregates only when the
// victim commits inside the measurement window. That makes the conservation
// law exact in integer µs, pinned by tests/blame_test.cc:
//
//   wasted_attributed_us + wasted_unattributed_us == wasted_us
//   blocked_attributed_us + blocked_unattributed_us == blocked_us
//
// where wasted_us/blocked_us are the engine's integer phase sums (the same
// numbers `phases.wasted` / `phases.cc_block` report as per-commit means).
#ifndef CCSIM_OBS_BLAME_H_
#define CCSIM_OBS_BLAME_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cc/types.h"

namespace ccsim {

/// Blame aggregates over the measured commits of one run (MetricsReport::
/// blame). Zero-initialized / collected=false when observability is off.
struct BlameBreakdown {
  bool collected = false;

  // Integer-µs totals (exact copies of the engine's phase sums over
  // measured commits; the per-commit means appear in `phases`).
  int64_t wasted_us = 0;   ///< Total wasted incarnation time.
  int64_t blocked_us = 0;  ///< Total cc-block time of committed incarnations.

  // Attribution splits. Each pair sums exactly to the total above.
  int64_t wasted_attributed_us = 0;    ///< Wasted µs with a known aborter.
  int64_t wasted_unattributed_us = 0;  ///< Aborter unknown (kInvalidTxn).
  int64_t blocked_attributed_us = 0;   ///< Blocked µs with a known holder.
  int64_t blocked_unattributed_us = 0;

  int64_t restarts_charged = 0;  ///< Restart events with a known aborter.
  int64_t blocks_charged = 0;    ///< Block events with a known holder.

  // Restart genealogy of measured commits (incarnations burned per commit;
  // 1 = committed first try).
  int64_t genealogy_max = 0;
  double genealogy_mean = 0.0;

  // Worst offenders (deterministic: ties broken toward the smaller txn id).
  TxnId top_aborter = kInvalidTxn;        ///< Charged the most wasted µs.
  int64_t top_aborter_wasted_us = 0;
  TxnId top_holder = kInvalidTxn;         ///< Charged the most blocked µs.
  int64_t top_holder_blocked_us = 0;
};

/// Engine-side accumulator. The engine records one Charge* per conflict on
/// the victim transaction and folds the victim's charges here when the
/// victim commits inside the measurement window (core/closed_system.cc).
class BlameLedger {
 public:
  /// One restarted incarnation's lifetime, charged to `aborter`
  /// (kInvalidTxn = unattributed).
  void ChargeWasted(TxnId aborter, int64_t us);

  /// One resolved block's duration, charged to `holder`.
  void ChargeBlocked(TxnId holder, int64_t us);

  /// One measured commit burned `incarnations` incarnations.
  void AddGenealogy(int64_t incarnations);

  /// Clears everything (measurement reset).
  void Reset();

  /// Snapshots the aggregates. `wasted_total_us` / `blocked_total_us` are
  /// the engine's integer phase sums; Finish derives the unattributed
  /// remainders from them so the conservation identity holds by
  /// construction *iff* every charge was also booked as phase time (the
  /// tests assert the remainders are non-negative).
  BlameBreakdown Finish(int64_t wasted_total_us,
                        int64_t blocked_total_us) const;

 private:
  int64_t wasted_attributed_us_ = 0;
  int64_t blocked_attributed_us_ = 0;
  int64_t restarts_charged_ = 0;
  int64_t blocks_charged_ = 0;
  int64_t genealogy_sum_ = 0;
  int64_t genealogy_max_ = 0;
  int64_t genealogy_count_ = 0;
  std::unordered_map<TxnId, int64_t> wasted_by_aborter_;
  std::unordered_map<TxnId, int64_t> blocked_by_holder_;
};

}  // namespace ccsim

#endif  // CCSIM_OBS_BLAME_H_
