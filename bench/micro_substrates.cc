// google-benchmark microbenchmarks for the simulator substrates: event
// scheduling, random variates, workload generation, lock-manager hot paths,
// deadlock detection, the lock table's deep audit check, and whole-engine
// event throughput. These establish that a full figure sweep is
// event-bound, not allocator- or data-structure-bound.
#include <vector>

#include <benchmark/benchmark.h>

#include "audit/audit.h"
#include "cc/deadlock.h"
#include "cc/basic_to.h"
#include "cc/lock_manager.h"
#include "cc/mvto.h"
#include "cc/optimistic.h"
#include "core/closed_system.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/random.h"
#include "wl/workload.h"

namespace ccsim {
namespace {

/// Counts the events it receives.
class CountingHandler : public EventHandler {
 public:
  void OnEvent(const Event&) override { ++fired; }
  int64_t fired = 0;
};

void BM_EventScheduleFire(benchmark::State& state) {
  Simulator sim;
  CountingHandler handler;
  for (auto _ : state) {
    sim.Schedule(1, {.handler = &handler});
    sim.Step();
  }
  benchmark::DoNotOptimize(handler.fired);
}
BENCHMARK(BM_EventScheduleFire);

void BM_EventScheduleCancel(benchmark::State& state) {
  Simulator sim;
  CountingHandler handler;
  for (auto _ : state) {
    EventId id = sim.Schedule(1000, {.handler = &handler});
    sim.Cancel(id);
  }
}
BENCHMARK(BM_EventScheduleCancel);

void BM_EventHeapDepth(benchmark::State& state) {
  // Scheduling against a deep pending queue.
  Simulator sim;
  CountingHandler handler;
  const int depth = static_cast<int>(state.range(0));
  for (int i = 0; i < depth; ++i) {
    sim.Schedule(1000000 + i, {.handler = &handler});
  }
  for (auto _ : state) {
    sim.Schedule(1, {.handler = &handler});
    sim.Step();
  }
  benchmark::DoNotOptimize(handler.fired);
}
BENCHMARK(BM_EventHeapDepth)->Arg(100)->Arg(10000);

/// Reschedules every event it receives with the workloads' delay mix: of 22
/// events, 8 are 35 ms disk services, 8 are 15 ms CPU services, 5 are
/// zero-delay resumes and one is an exponential think of mean 1 s. The
/// delays are drawn up front, so firing costs one table load.
class HoldHandler : public EventHandler {
 public:
  explicit HoldHandler(Simulator* sim) : sim_(sim), delays_(4096) {
    Rng rng(7);
    for (SimTime& delay : delays_) {
      const int64_t pick = rng.UniformInt(0, 21);
      delay = pick == 0   ? FromSeconds(rng.Exponential(1.0))
              : pick <= 8  ? 35 * kMillisecond
              : pick <= 16 ? 15 * kMillisecond
                           : 0;
    }
  }

  void OnEvent(const Event&) override {
    sim_->Schedule(delays_[next_++ % delays_.size()], {.handler = this});
  }

 private:
  Simulator* sim_;
  std::vector<SimTime> delays_;
  size_t next_ = 0;
};

void BM_EventQueueHold(benchmark::State& state) {
  // The hold model: range(0) events stay pending and each iteration is one
  // pop, one dispatch and one push. 8 and 150 are near the mean pending
  // counts of perfbench's thrash_finite (6.4) and lowconflict_inf (147).
  Simulator sim;
  HoldHandler handler(&sim);
  const int64_t pending = state.range(0);
  for (int64_t i = 0; i < pending; ++i) handler.OnEvent({});
  for (int64_t i = 0; i < 100 * pending; ++i) sim.Step();  // Spread times.
  for (auto _ : state) benchmark::DoNotOptimize(sim.Step());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHold)->Arg(8)->Arg(150)->Arg(1000);

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  uint64_t sum = 0;
  for (auto _ : state) sum += rng.engine()();
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_RngNextU64);

void BM_RngBernoulli(benchmark::State& state) {
  // p = 0.25 is the paper's write probability, drawn once per object read.
  Rng rng(1);
  int64_t hits = 0;
  for (auto _ : state) hits += rng.Bernoulli(0.25) ? 1 : 0;
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_RngBernoulli);

void BM_RngExponential(benchmark::State& state) {
  Rng rng(1);
  double sum = 0;
  for (auto _ : state) sum += rng.Exponential(1.0);
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_RngExponential);

void BM_SampleWithoutReplacement(benchmark::State& state) {
  // Args: population, count. 4096 picks guard the large-sample path against
  // turning quadratic.
  Rng rng(2);
  for (auto _ : state) {
    auto sample = rng.SampleWithoutReplacement(state.range(0), state.range(1));
    benchmark::DoNotOptimize(sample);
  }
}
BENCHMARK(BM_SampleWithoutReplacement)
    ->Args({1000, 8})
    ->Args({1000000, 8})
    ->Args({1000000, 4096});

void BM_WorkloadGenerate(benchmark::State& state) {
  // The in-place form the engine calls, refilling one recycled spec.
  WorkloadParams params;
  WorkloadGenerator gen(params, Rng(3), Rng(4));
  TxnSpec spec;
  for (auto _ : state) {
    gen.NextTransaction(&spec);
    benchmark::DoNotOptimize(spec.reads.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_WorkloadGenerate);

void BM_LockGrantRelease(benchmark::State& state) {
  LockManager lm;
  for (auto _ : state) {
    for (ObjectId obj = 0; obj < 8; ++obj) {
      lm.Request(1, obj, LockMode::kShared, true);
    }
    lm.ReleaseAll(1);
  }
}
BENCHMARK(BM_LockGrantRelease);

void BM_LockConflictQueue(benchmark::State& state) {
  // A hot object with a holder and a waiter churn.
  for (auto _ : state) {
    LockManager lm;
    lm.Request(1, 0, LockMode::kExclusive, true);
    for (TxnId t = 2; t < 10; ++t) {
      lm.Request(t, 0, LockMode::kShared, true);
    }
    benchmark::DoNotOptimize(lm.ReleaseAll(1));
  }
}
BENCHMARK(BM_LockConflictQueue);

void BM_DeadlockDetectionChain(benchmark::State& state) {
  // A wait chain of length N with a cycle at the end; detection cost is the
  // DFS over the chain.
  const int n = static_cast<int>(state.range(0));
  LockManager lm;
  for (TxnId t = 1; t <= n; ++t) {
    lm.Request(t, t, LockMode::kExclusive, true);
  }
  for (TxnId t = 2; t <= n; ++t) {
    lm.Request(t, t - 1, LockMode::kExclusive, true);  // t waits on t-1.
  }
  lm.Request(1, n, LockMode::kExclusive, true);  // Closes the cycle.
  DeadlockDetector detector(&lm, VictimPolicy::kYoungest);
  for (auto _ : state) {
    auto cycle = detector.FindCycle(1, {});
    benchmark::DoNotOptimize(cycle);
  }
}
BENCHMARK(BM_DeadlockDetectionChain)->Arg(4)->Arg(32)->Arg(128);

void BM_DeadlockDetectionNoWaiters(benchmark::State& state) {
  // The same wait chain without the closing edge, plus a requester N+1
  // blocked on N's object: nobody waits for the requester, so no cycle can
  // pass through it and detection answers without walking the chain.
  const int n = static_cast<int>(state.range(0));
  LockManager lm;
  for (TxnId t = 1; t <= n; ++t) {
    lm.Request(t, t, LockMode::kExclusive, true);
  }
  for (TxnId t = 2; t <= n; ++t) {
    lm.Request(t, t - 1, LockMode::kExclusive, true);  // t waits on t-1.
  }
  lm.Request(n + 1, n, LockMode::kExclusive, true);  // The requester.
  DeadlockDetector detector(&lm, VictimPolicy::kYoungest);
  for (auto _ : state) {
    auto cycle = detector.FindCycle(n + 1, {});
    benchmark::DoNotOptimize(cycle);
  }
}
BENCHMARK(BM_DeadlockDetectionNoWaiters)->Arg(4)->Arg(32)->Arg(128);

void BM_DeadlockDetectionWideFrame(benchmark::State& state) {
  // N + 1 transactions share a hot object; waiters 1..N queue upgrades on
  // it, and the requester N + 1 queues its own behind them. An upgrader
  // waits for every earlier waiter and every other holder, so each frame
  // holds about N blockers: waiter i first meets the i - 1 below it already
  // visited, then steps to i + 1, and the cycle closes through the last of
  // them, waiter N, back to the requester.
  const int n = static_cast<int>(state.range(0));
  LockManager lm;
  for (TxnId t = 1; t <= n + 1; ++t) {
    lm.Request(t, 0, LockMode::kShared, true);
  }
  for (TxnId t = 1; t <= n + 1; ++t) {
    lm.Request(t, 0, LockMode::kExclusive, true);  // Upgrades queue.
  }
  DeadlockDetector detector(&lm, VictimPolicy::kYoungest);
  CCSIM_CHECK_EQ(detector.FindCycle(n + 1, {}).size(),
                 static_cast<size_t>(n + 1));
  for (auto _ : state) {
    auto cycle = detector.FindCycle(n + 1, {});
    benchmark::DoNotOptimize(cycle);
  }
}
BENCHMARK(BM_DeadlockDetectionWideFrame)->Arg(4)->Arg(32)->Arg(128);

void BM_LockAuditCheck(benchmark::State& state) {
  // One deep check of a live table: 200 transactions holding 5 shared locks
  // each on distinct granules, and 10 waiters queued for exclusive locks on
  // held ones, after each of N granules was locked and released once, as a
  // long run leaves its table: touched, mostly empty. Only N varies.
  const int64_t touched = state.range(0);
  constexpr TxnId kTxns = 200;
  LockManager lm;
  lm.Reserve(static_cast<size_t>(touched), kTxns + 10);
  for (ObjectId obj = 0; obj < touched; ++obj) {
    lm.Request(kTxns + 11, obj, LockMode::kShared, true);
    lm.ReleaseAll(kTxns + 11);
  }
  Rng rng(5);
  const std::vector<int64_t> held =
      rng.SampleWithoutReplacement(touched, kTxns * 5);
  for (size_t i = 0; i < held.size(); ++i) {
    lm.Request(static_cast<TxnId>(i / 5) + 1, held[i], LockMode::kShared, true);
  }
  for (TxnId txn = kTxns + 1; txn <= kTxns + 10; ++txn) {
    lm.Request(txn, held[static_cast<size_t>(txn - kTxns) * 17],
               LockMode::kExclusive, true);
  }
  CCSIM_CHECK_EQ(lm.waiting_txns(), 10u);
  Auditor auditor;
  const SmallIdSet doomed;
  for (auto _ : state) {
    lm.AuditCheck(&auditor, doomed);
    benchmark::DoNotOptimize(auditor.violation_count());
  }
  CCSIM_CHECK_EQ(auditor.violation_count(), 0) << auditor.Summary();
}
BENCHMARK(BM_LockAuditCheck)->Arg(1000)->Arg(10000);

/// An engine that ignores every signal and serves a settable clock.
class NullCcEngine final : public CCEngine {
 public:
  void OnGranted(TxnId) override {}
  void OnWound(TxnId) override {}
  SimTime Now() const override { return now; }
  void OnVersionRead(TxnId, ObjectId, TxnId) override {}
  void OnBlame(TxnId, TxnId, ObjectId, BlameKind) override {}

  SimTime now = 0;
};

void BM_OptimisticValidate(benchmark::State& state) {
  // Validation cost against a populated committed-writes table.
  NullCcEngine engine;
  OptimisticCC cc;
  SimTime& now = engine.now;
  cc.SetCallbacks({.engine = &engine});
  // Populate history: 1000 committed writers, run one after another. Each
  // begins at the current time, so it never overlaps an earlier writer of
  // its object and must validate.
  for (TxnId t = 1; t <= 1000; ++t) {
    cc.OnBegin(t, now, now);
    cc.WriteRequest(t, t % 200);
    const bool validated = cc.Validate(t);
    CCSIM_CHECK(validated) << "setup writer " << t << " failed validation";
    now = t;
    cc.Commit(t);
  }
  TxnId next = 10000;
  for (auto _ : state) {
    TxnId t = next++;
    cc.OnBegin(t, now, now);
    for (ObjectId obj = 0; obj < 8; ++obj) cc.ReadRequest(t, obj * 17 % 200);
    bool ok = cc.Validate(t);
    benchmark::DoNotOptimize(ok);
    if (ok) {
      cc.Commit(t);
    } else {
      cc.Abort(t);
    }
  }
}
BENCHMARK(BM_OptimisticValidate);

void BM_BasicToRequests(benchmark::State& state) {
  NullCcEngine engine;
  BasicTimestampOrderingCC cc;
  cc.SetCallbacks({.engine = &engine});
  TxnId next = 1;
  for (auto _ : state) {
    TxnId t = next++;
    cc.OnBegin(t, 0, 0);
    for (ObjectId obj = 0; obj < 8; ++obj) cc.ReadRequest(t, obj);
    cc.WriteRequest(t, 3);
    cc.Commit(t);
  }
}
BENCHMARK(BM_BasicToRequests);

void BM_MvtoVersionChain(benchmark::State& state) {
  // Read cost against a deep (GC-bounded) version chain on a hot object.
  NullCcEngine engine;
  MultiversionTimestampOrderingCC cc;
  cc.SetCallbacks({.engine = &engine});
  for (TxnId t = 1; t <= 64; ++t) {
    cc.OnBegin(t, 0, 0);
    cc.WriteRequest(t, 0);
    cc.Commit(t);
  }
  TxnId next = 1000;
  for (auto _ : state) {
    TxnId t = next++;
    cc.OnBegin(t, 0, 0);
    cc.ReadRequest(t, 0);
    cc.Commit(t);
  }
}
BENCHMARK(BM_MvtoVersionChain);

void BM_EngineEventsPerSecond(benchmark::State& state) {
  // Whole-engine throughput: simulated events processed per wall second on
  // the paper's Table 2 workload at mpl=50.
  for (auto _ : state) {
    Simulator sim;
    EngineConfig config;
    config.workload.mpl = 50;
    config.resources = ResourceConfig::Finite(1, 2);
    config.algorithm = "blocking";
    ClosedSystem system(&sim, config);
    system.Prime();
    sim.RunUntil(20 * kSecond);
    state.counters["sim_events"] = static_cast<double>(sim.events_fired());
    benchmark::DoNotOptimize(system.total_commits());
  }
}
BENCHMARK(BM_EngineEventsPerSecond)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ccsim

BENCHMARK_MAIN();
