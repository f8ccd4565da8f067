// Hot-path microbenchmarks — the BENCH_sim.json performance trajectory.
//
// Three benches, each isolating one layer of the engine's hot path:
//
//  1. event_churn — the simulator kernel alone, exercised with a worst-case
//     cancel mix: schedule a completion plus a far-future timeout, fire the
//     completion, cancel the timeout. The cancel-heavy mix is what separates
//     the pooled-arena kernel from a naive one: cancelled far-future events
//     must not accumulate as live heap tombstones (see docs/PERFORMANCE.md).
//  2. lock_grant_release — LockManager request/upgrade/release cycles with
//     no simulator in the loop (the lock-table cost of one transaction).
//  3. cc_decision — every concurrency control algorithm driven directly
//     (no simulator, no resource model) through a pinned contended workload;
//     decisions/second is the cost of one cc request on the dense-state hot
//     path, per algorithm.
//  4. end_to_end_fig03 — one real figure-3 point (blocking, low conflict,
//     infinite resources) through the standard checked runner; commits/sec
//     of simulated work per wall second is the whole-engine figure of merit.
//
// Output: a machine-readable JSON file (default ./BENCH_sim.json; override
// with argv[1] or CCSIM_BENCH_JSON). Schema documented in
// docs/PERFORMANCE.md; the committed repo-root BENCH_sim.json is the
// reference trajectory for this container class. Wall-clock rates vary by
// machine — compare runs on the same hardware; the *simulation outputs*
// (events fired, commits, digests) are deterministic and asserted nonzero.
//
// Statistical effort of the end-to-end point follows the usual env knobs
// (CCSIM_BATCHES, CCSIM_BATCH_SECONDS, CCSIM_WARMUP_SECONDS); the default
// here is short (2 batches x 2 s) because this is a perf smoke, not a
// figure reproduction.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "cc/factory.h"
#include "cc/lock_manager.h"
#include "sim/simulator.h"
#include "util/env.h"

namespace {

using ccsim::EngineConfig;
using ccsim::EventId;
using ccsim::LockManager;
using ccsim::LockMode;
using ccsim::MetricsReport;
using ccsim::ResourceConfig;
using ccsim::RunLengths;
using ccsim::Simulator;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ChurnResult {
  double events_per_sec = 0.0;     ///< Events scheduled per wall second.
  uint64_t events_fired = 0;       ///< Deterministic: kIters + drain.
  size_t peak_arena_slots = 0;     ///< 2 unless cancelled events leak.
  uint64_t checksum = 0;           ///< Deterministic payload checksum.
};

/// Folds the payload of each event it receives into a checksum: a
/// completion adds (id, incarnation, time), a timeout adds its id.
class ChurnHandler : public ccsim::EventHandler {
 public:
  enum Kind : uint8_t { kCompletion, kTimeout };

  void OnEvent(const ccsim::Event& event) override {
    sink += static_cast<uint64_t>(event.arg0);
    if (event.kind == kCompletion) {
      sink += static_cast<uint64_t>(event.word) +
              static_cast<uint64_t>(event.arg1);
    }
  }

  uint64_t sink = 0;
};

/// A worst-case cancel pattern: every iteration schedules a completion AND a
/// timeout ~3 orders of magnitude further out, then cancels the timeout when
/// the completion fires first. (The engine itself cancels far less often —
/// only on restart.) A kernel that leaked cancelled entries would carry
/// ~1000 dead timeouts; cancel frees the slot, so the arena stays at two.
ChurnResult RunEventChurn(int iters) {
  ChurnResult result;
  // One warmup pass (arena growth), one measured pass.
  for (int pass = 0; pass < 2; ++pass) {
    Simulator sim;
    ChurnHandler handler;
    const int64_t id = 7;
    const int32_t inc = 3;
    const int64_t t = 11;
    size_t peak = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      sim.Schedule(1, {.handler = &handler,
                       .kind = ChurnHandler::kCompletion,
                       .word = inc,
                       .arg0 = id,
                       .arg1 = t});
      EventId guard = sim.Schedule(
          1000,
          {.handler = &handler, .kind = ChurnHandler::kTimeout, .arg0 = id});
      sim.Step();
      sim.Cancel(guard);
      peak = std::max(peak, sim.arena_slots());
    }
    while (sim.Step()) {
    }
    const double secs = SecondsSince(t0);
    if (pass == 1) {
      result.events_per_sec = 2.0 * iters / secs;
      result.events_fired = sim.events_fired();
      result.peak_arena_slots = peak;
      result.checksum = handler.sink;
    }
  }
  return result;
}

struct LockResult {
  double requests_per_sec = 0.0;
  int64_t immediate_grants = 0;  ///< Deterministic.
  int64_t deferred_grants = 0;   ///< Deterministic.
};

/// One transaction-shaped lock cycle: 8 shared acquisitions, 2 upgrades,
/// release-all — the paper's base workload shape (8 reads, 2 of them
/// written) — plus a second transaction queued behind the upgrades so every
/// ReleaseAll also exercises deferred grant processing.
LockResult RunLockGrantRelease(int iters) {
  LockResult result;
  for (int pass = 0; pass < 2; ++pass) {
    LockManager lm;
    lm.Reserve(/*num_objects=*/1024, /*num_txns=*/4);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      const ccsim::ObjectId base =
          static_cast<ccsim::ObjectId>((i * 13) & 1023);
      for (int j = 0; j < 8; ++j) {
        lm.Request(1, (base + static_cast<ccsim::ObjectId>(j)) & 1023,
                   LockMode::kShared, /*enqueue_on_conflict=*/true);
      }
      lm.Request(1, base, LockMode::kExclusive, true);
      lm.Request(1, (base + 1) & 1023, LockMode::kExclusive, true);
      // A reader arrives behind the writer and must wait its turn.
      lm.Request(2, base, LockMode::kShared, true);
      lm.ReleaseAll(1);
      lm.ReleaseAll(2);
    }
    const double secs = SecondsSince(t0);
    if (pass == 1) {
      result.requests_per_sec = 11.0 * iters / secs;
      result.immediate_grants = lm.stats().immediate_grants;
      result.deferred_grants = lm.stats().deferred_grants;
    }
  }
  return result;
}

struct CcDecisionResult {
  std::string algorithm;
  double decisions_per_sec = 0.0;
  int64_t commits = 0;    ///< Deterministic at fixed budget.
  int64_t restarts = 0;   ///< Deterministic at fixed budget.
  bool stalled = false;   ///< No runnable txn and no pending grant: driver bug.
};

/// Drives one cc algorithm directly — no simulator, no resource model —
/// through a pinned contended workload: 8 concurrent transactions over 64
/// objects, each reading 6 and upgrading 2 to writes (the paper's access
/// shape, compressed onto a hot object space). Round-robin visits play the
/// engine's state machine per transaction: predeclare (if required), reads,
/// write upgrades, validate, then commit on a later visit (so optimistic
/// flush claims stay live across other transactions' steps, as they do under
/// the real engine). Blocked transactions re-issue the same request after
/// OnGranted; kRestart and wounds abort and replay the same spec under the
/// same id (new incarnation, stable first_start), exactly the
/// engine's restart semantics. Decisions = Predeclare + ReadRequest +
/// WriteRequest + Validate calls; the measured rate is the per-request cost
/// of the dense-state cc hot path.
class CcDecisionDriver final : private ccsim::CCEngine {
 public:
  static constexpr int kTxns = 8;
  static constexpr int64_t kObjects = 64;
  static constexpr int kReads = 6;
  static constexpr int kWrites = 2;  ///< First kWrites read objects upgraded.

  explicit CcDecisionDriver(const std::string& name)
      : cc_(ccsim::MakeConcurrencyControl(name)) {
    cc_->ReserveCapacity(kObjects, kTxns);
    cc_->SetCallbacks({.engine = this});
    for (int slot = 0; slot < kTxns; ++slot) BeginFresh(slot);
  }

  /// Issues exactly `budget` cc decisions (unless stalled) and returns the
  /// deterministic commit/restart tallies. Rate is filled in by the caller.
  CcDecisionResult Run(int64_t budget) {
    CcDecisionResult result;
    int64_t decisions = 0;
    int idle_sweeps = 0;
    while (decisions < budget) {
      bool progressed = !granted_.empty();
      DrainGrants();
      for (int slot = 0; slot < kTxns && decisions < budget; ++slot) {
        DriverTxn& t = txns_[static_cast<size_t>(slot)];
        if (t.doomed) {
          Restart(slot);
          progressed = true;
          continue;
        }
        if (t.backoff > 0) {
          --t.backoff;
          progressed = true;
          continue;
        }
        if (t.blocked) continue;
        progressed = true;
        ++clock_;
        if (t.step == kCommitStep) {
          // Not a cc decision: commit work was priced by Validate.
          cc_->Commit(t.id);
          ++commits_;
          BeginFresh(slot);
          continue;
        }
        ++decisions;
        if (t.step == kValidateStep) {
          if (cc_->Validate(t.id)) {
            t.step = kCommitStep;
          } else {
            Restart(slot);
          }
          continue;
        }
        ccsim::CCDecision d;
        if (t.step == kPredeclareStep) {
          reads_scratch_.assign(t.objs.begin(), t.objs.end());
          writes_scratch_.assign(t.objs.begin(), t.objs.begin() + kWrites);
          d = cc_->Predeclare(t.id, reads_scratch_, writes_scratch_);
        } else if (t.step < kReads) {
          d = cc_->ReadRequest(t.id, t.objs[static_cast<size_t>(t.step)]);
        } else {
          d = cc_->WriteRequest(
              t.id, t.objs[static_cast<size_t>(t.step - kReads)]);
        }
        if (t.doomed) {  // Wounded synchronously by our own request.
          Restart(slot);
          continue;
        }
        switch (d) {
          case ccsim::CCDecision::kGranted:
            // A granted predeclaration starts execution at the first read.
            t.step = (t.step == kPredeclareStep) ? 0 : t.step + 1;
            break;
          case ccsim::CCDecision::kBlocked:
            // OnGranted later re-issues this same request (engine semantics).
            t.blocked = true;
            break;
          case ccsim::CCDecision::kRestart:
            Restart(slot);
            break;
        }
      }
      if (progressed) {
        idle_sweeps = 0;
      } else if (++idle_sweeps > 16) {
        // Everyone blocked with no grant in flight: unrecoverable (the real
        // engine would be stuck too). Surface as an invalid zero-rate result.
        result.stalled = true;
        break;
      }
    }
    result.commits = commits_;
    result.restarts = restarts_;
    return result;
  }

 private:
  static constexpr int kPredeclareStep = -1;
  static constexpr int kValidateStep = kReads + kWrites;
  static constexpr int kCommitStep = kValidateStep + 1;

  struct DriverTxn {
    ccsim::TxnId id = ccsim::kInvalidTxn;
    ccsim::SimTime first_start = 0;  ///< Stable across restarts.
    int step = 0;
    int backoff = 0;  ///< Sweeps to sit out after a restart (restart delay).
    bool blocked = false;
    bool doomed = false;
    std::vector<ccsim::ObjectId> objs;  ///< kReads objects; first kWrites written.
  };

  /// Deterministic per-id access set (splitmix64 stream): the same id always
  /// replays the same objects, so restarts re-run the same spec.
  static void BuildSpec(ccsim::TxnId id, std::vector<ccsim::ObjectId>* objs) {
    objs->clear();
    uint64_t x = static_cast<uint64_t>(id);
    while (objs->size() < static_cast<size_t>(kReads)) {
      x += 0x9E3779B97F4A7C15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      z ^= z >> 31;
      auto obj = static_cast<ccsim::ObjectId>(
          z % static_cast<uint64_t>(kObjects));
      if (std::find(objs->begin(), objs->end(), obj) == objs->end()) {
        objs->push_back(obj);
      }
    }
  }

  // The engine side of the algorithm's signals.
  void OnGranted(ccsim::TxnId id) override { granted_.push_back(id); }
  void OnWound(ccsim::TxnId id) override {
    int slot = SlotOf(id);
    if (slot >= 0) txns_[static_cast<size_t>(slot)].doomed = true;
  }
  ccsim::SimTime Now() const override { return clock_; }
  void OnVersionRead(ccsim::TxnId, ccsim::ObjectId, ccsim::TxnId) override {}
  void OnBlame(ccsim::TxnId, ccsim::TxnId, ccsim::ObjectId,
               ccsim::BlameKind) override {}

  int SlotOf(ccsim::TxnId id) const {
    for (int slot = 0; slot < kTxns; ++slot) {
      if (txns_[static_cast<size_t>(slot)].id == id) return slot;
    }
    return -1;
  }

  void DrainGrants() {
    for (ccsim::TxnId id : granted_) {
      int slot = SlotOf(id);
      if (slot < 0) continue;  // Grant raced a wound-restart; already moot.
      DriverTxn& t = txns_[static_cast<size_t>(slot)];
      t.blocked = false;
      // A granted predeclaration resumes at the first read — never
      // re-predeclares (engine semantics; the locks are already held).
      if (t.step == kPredeclareStep) t.step = 0;
    }
    granted_.clear();
  }

  /// Fresh transaction in `slot`: new id, new spec, first incarnation.
  void BeginFresh(int slot) {
    DriverTxn& t = txns_[static_cast<size_t>(slot)];
    t.id = next_id_++;
    t.first_start = ++clock_;
    t.blocked = false;
    t.doomed = false;
    BuildSpec(t.id, &t.objs);
    t.step = cc_->needs_predeclaration() ? kPredeclareStep : 0;
    cc_->OnBegin(t.id, t.first_start, t.first_start);
  }

  /// Aborts the current incarnation and replays the same transaction: same
  /// id, same spec, same first_start, fresh incarnation_start. The restarted
  /// transaction sits out 16 sweeps — a restart delay long enough for its
  /// opponent to finish (the engine's adaptive-delay semantics); without it,
  /// immediate-restart and T/O would livelock against the round-robin.
  void Restart(int slot) {
    DriverTxn& t = txns_[static_cast<size_t>(slot)];
    cc_->Abort(t.id);
    ++restarts_;
    t.blocked = false;
    t.doomed = false;
    t.backoff = 16;
    t.step = cc_->needs_predeclaration() ? kPredeclareStep : 0;
    cc_->OnBegin(t.id, t.first_start, ++clock_);
  }

  std::unique_ptr<ccsim::ConcurrencyControl> cc_;
  std::array<DriverTxn, kTxns> txns_;
  std::vector<ccsim::TxnId> granted_;
  std::vector<ccsim::ObjectId> reads_scratch_;
  std::vector<ccsim::ObjectId> writes_scratch_;
  ccsim::SimTime clock_ = 0;
  ccsim::TxnId next_id_ = 1;
  int64_t commits_ = 0;
  int64_t restarts_ = 0;
};

/// One warmup pass plus one measured pass per algorithm, fresh driver each
/// (the measured pass prices steady-state decisions on warmed code paths;
/// the tallies are deterministic and asserted nonzero).
std::vector<CcDecisionResult> RunCcDecision(int64_t budget) {
  std::vector<CcDecisionResult> results;
  for (const std::string& name : ccsim::AllAlgorithms()) {
    CcDecisionResult measured;
    for (int pass = 0; pass < 2; ++pass) {
      CcDecisionDriver driver(name);
      const auto t0 = std::chrono::steady_clock::now();
      CcDecisionResult r = driver.Run(budget);
      const double secs = SecondsSince(t0);
      if (pass == 1) {
        measured = r;
        measured.algorithm = name;
        measured.decisions_per_sec =
            (r.stalled || secs <= 0.0) ? 0.0 : budget / secs;
      }
    }
    results.push_back(measured);
  }
  return results;
}

struct EndToEndResult {
  bool ok = false;
  int mpl = 0;
  double throughput = 0.0;        ///< Committed txns per simulated second.
  int64_t commits = 0;            ///< Deterministic at fixed seed/lengths.
  uint64_t replay_digest = 0;     ///< Deterministic at fixed seed/lengths.
  double wall_seconds = 0.0;
  double commits_per_wall_sec = 0.0;
};

/// One figure-3 point through the full checked engine: blocking CC,
/// db_size=10000 (low conflict), infinite resources, mpl=50.
EndToEndResult RunEndToEnd(const RunLengths& lengths) {
  EndToEndResult result;
  EngineConfig config = ccsim::bench::PaperBaseConfig();
  config.workload.db_size = 10000;
  config.resources = ResourceConfig::Infinite();
  config.algorithm = "blocking";
  config.workload.mpl = 50;
  // Audit on: the replay digest in the JSON is then a deterministic anchor —
  // two builds at the same seed and lengths must report the same value.
  config.audit = true;
  result.mpl = config.workload.mpl;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<MetricsReport> reports = ccsim::bench::RunLabeledPoints(
      {{"fig03 blocking mpl=50", config}}, lengths);
  result.wall_seconds = SecondsSince(t0);
  if (reports.size() != 1) return result;  // Point failed; reported on stderr.
  const MetricsReport& r = reports[0];
  result.ok = true;
  result.throughput = r.throughput.mean;
  result.commits = r.commits;
  result.replay_digest = r.replay_digest;
  result.commits_per_wall_sec =
      result.wall_seconds > 0.0 ? r.commits / result.wall_seconds : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path =
      ccsim::GetEnv("CCSIM_BENCH_JSON").value_or("BENCH_sim.json");
  if (argc > 1) {
    const std::string arg = argv[1];
    const bool help = arg == "--help";
    if (help || argc > 2 || arg.starts_with("-")) {
      std::cerr << "usage: micro_kernel [OUTPUT.json]\n"
                   "Runs the hot-path microbenchmarks and writes their JSON "
                   "to OUTPUT.json\n(default: $CCSIM_BENCH_JSON, else "
                   "BENCH_sim.json).\n";
      return help ? 0 : 2;
    }
    out_path = arg;
  }

  RunLengths lengths = ccsim::bench::BenchLengths(/*batch_seconds=*/2.0,
                                                  /*warmup_seconds=*/2.0);
  ccsim::bench::PrintBanner("Hot-path microbenchmarks (BENCH_sim.json)",
                            lengths);

  const int churn_iters = 2000000;
  std::cerr << "[micro_kernel] event_churn (" << churn_iters
            << " timeout-pattern iterations)...\n";
  ChurnResult churn = RunEventChurn(churn_iters);
  std::cerr << "[micro_kernel]   " << static_cast<int64_t>(churn.events_per_sec)
            << " events/sec, peak arena slots " << churn.peak_arena_slots
            << "\n";

  const int lock_iters = 500000;
  std::cerr << "[micro_kernel] lock_grant_release (" << lock_iters
            << " transaction cycles)...\n";
  LockResult lock = RunLockGrantRelease(lock_iters);
  std::cerr << "[micro_kernel]   "
            << static_cast<int64_t>(lock.requests_per_sec)
            << " lock requests/sec\n";

  const int64_t decision_budget = 200000;
  std::cerr << "[micro_kernel] cc_decision (" << decision_budget
            << " decisions x " << ccsim::AllAlgorithms().size()
            << " algorithms)...\n";
  std::vector<CcDecisionResult> decisions = RunCcDecision(decision_budget);
  for (const CcDecisionResult& r : decisions) {
    std::cerr << "[micro_kernel]   " << r.algorithm << ": "
              << static_cast<int64_t>(r.decisions_per_sec)
              << " decisions/sec, " << r.commits << " commits, " << r.restarts
              << " restarts" << (r.stalled ? " (STALLED)" : "") << "\n";
  }

  std::cerr << "[micro_kernel] end_to_end_fig03 (blocking, mpl=50)...\n";
  EndToEndResult e2e = RunEndToEnd(lengths);

  // Hard validity checks: a zero anywhere means the bench silently broke,
  // and more than 64 arena slots means cancelled events leak.
  bool valid = churn.events_per_sec > 0.0 && churn.events_fired > 0 &&
               churn.peak_arena_slots > 0 && churn.peak_arena_slots <= 64 &&
               lock.requests_per_sec > 0.0 &&
               lock.immediate_grants > 0 && lock.deferred_grants > 0 &&
               e2e.ok && e2e.commits > 0 && e2e.throughput > 0.0 &&
               e2e.replay_digest != 0;
  valid = valid && decisions.size() == ccsim::AllAlgorithms().size();
  for (const CcDecisionResult& r : decisions) {
    valid = valid && !r.stalled && r.decisions_per_sec > 0.0 && r.commits > 0;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "[micro_kernel] FAILED to open " << out_path << "\n";
    return 1;
  }
  // cc_decision section: one entry per algorithm, composed separately (nine
  // entries overflow a comfortable single format string).
  std::string cc_json;
  for (size_t i = 0; i < decisions.size(); ++i) {
    const CcDecisionResult& r = decisions[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    \"%s\": { \"decisions_per_sec\": %.0f, "
                  "\"commits\": %lld, \"restarts\": %lld }%s\n",
                  r.algorithm.c_str(), r.decisions_per_sec,
                  static_cast<long long>(r.commits),
                  static_cast<long long>(r.restarts),
                  i + 1 < decisions.size() ? "," : "");
    cc_json += line;
  }
  char buf[8192];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"schema\": \"ccsim-bench-v1\",\n"
      "  \"event_churn\": {\n"
      "    \"iterations\": %d,\n"
      "    \"events_per_sec\": %.0f,\n"
      "    \"events_fired\": %llu,\n"
      "    \"peak_arena_slots\": %zu,\n"
      "    \"checksum\": %llu\n"
      "  },\n"
      "  \"lock_grant_release\": {\n"
      "    \"iterations\": %d,\n"
      "    \"requests_per_sec\": %.0f,\n"
      "    \"immediate_grants\": %lld,\n"
      "    \"deferred_grants\": %lld\n"
      "  },\n"
      "  \"cc_decision\": {\n"
      "    \"budget\": %lld,\n"
      "%s"
      "  },\n"
      "  \"end_to_end_fig03\": {\n"
      "    \"algorithm\": \"blocking\",\n"
      "    \"mpl\": %d,\n"
      "    \"batches\": %d,\n"
      "    \"throughput_txn_per_sim_sec\": %.4f,\n"
      "    \"commits\": %lld,\n"
      "    \"replay_digest\": \"%016llx\",\n"
      "    \"wall_seconds\": %.2f,\n"
      "    \"commits_per_wall_sec\": %.0f\n"
      "  }\n"
      "}\n",
      churn_iters, churn.events_per_sec,
      static_cast<unsigned long long>(churn.events_fired),
      churn.peak_arena_slots,
      static_cast<unsigned long long>(churn.checksum), lock_iters,
      lock.requests_per_sec, static_cast<long long>(lock.immediate_grants),
      static_cast<long long>(lock.deferred_grants),
      static_cast<long long>(decision_budget), cc_json.c_str(), e2e.mpl,
      lengths.batches,
      e2e.throughput, static_cast<long long>(e2e.commits),
      static_cast<unsigned long long>(e2e.replay_digest), e2e.wall_seconds,
      e2e.commits_per_wall_sec);
  out << buf;
  out.close();
  std::cerr << "[micro_kernel] wrote " << out_path
            << (valid ? "" : " (INVALID: zero or out-of-bounds metric)")
            << "\n";
  return valid && ccsim::bench::BenchExitCode() == 0 ? 0 : 1;
}
