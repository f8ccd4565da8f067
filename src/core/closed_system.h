// The closed queuing model of a single-site database system (Figure 1 of the
// paper), driven over the physical resource model (Figure 2).
//
// Terminals submit transactions; at most `mpl` transactions are active at
// once (the rest wait in the ready queue). An active transaction alternates
// concurrency control requests with object accesses: every read costs obj_io
// on a random disk followed by obj_cpu; every write costs obj_cpu at request
// time (the update is buffered) and obj_io per object at deferred-update
// time, after which the commit completes and locks are released. An optional
// internal think time separates the read phase from the write phase
// (interactive workloads). Blocked transactions occupy an mpl slot; restarted
// transactions give up their slot, optionally sit out a restart delay, and
// re-enter the *back* of the ready queue to replay the same read/write sets.
//
// The engine only runs the model. Everything that watches it — the auditor,
// the history recorder, the lifecycle trace sink and observability — is an
// EngineListener the engine builds from its configuration and feeds one
// EngineEvent per lifecycle point (obs/engine_event.h).
#ifndef CCSIM_CORE_CLOSED_SYSTEM_H_
#define CCSIM_CORE_CLOSED_SYSTEM_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "cc/deadlock.h"
#include "cc/factory.h"
#include "cc/restart_policy.h"
#include "core/history.h"
#include "core/metrics.h"
#include "obs/engine_event.h"
#include "obs/obs_config.h"
#include "obs/trace.h"
#include "res/resources.h"
#include "sim/simulator.h"
#include "stats/batch_means.h"
#include "stats/histogram.h"
#include "stats/time_weighted.h"
#include "stats/welford.h"
#include "util/config.h"
#include "util/dense_table.h"
#include "util/random.h"
#include "wl/workload.h"

namespace ccsim {

class AuditListener;
class ObsListener;
class StatsRegistry;

/// How transactions enter the system.
enum class SourceMode {
  /// The paper's model: num_terms terminals, each thinking exponentially
  /// between its transaction completions (self-throttling).
  kClosed,
  /// An open system: Poisson arrivals at `arrival_rate` transactions/sec,
  /// independent of completions. The ready queue is unbounded, so an
  /// arrival rate beyond the system's capacity diverges — itself one of the
  /// modeling "alternatives and implications" the paper's title refers to.
  kOpen,
};

/// Full configuration of one simulation run.
struct EngineConfig {
  WorkloadParams workload;
  ResourceConfig resources;
  /// One of AllAlgorithms() (cc/factory.h): blocking, immediate_restart,
  /// optimistic, optimistic_forward, wound_wait, wait_die, basic_to, mvto,
  /// static_locking.
  std::string algorithm = "blocking";
  SourceMode source_mode = SourceMode::kClosed;
  /// Mean Poisson arrival rate (transactions/second) for SourceMode::kOpen.
  double arrival_rate = 0.0;
  /// When true, an object that the transaction will later write is locked
  /// exclusively at *read* time instead of being read-locked and upgraded in
  /// the write phase ("static" write locking of predeclared writes). This
  /// eliminates the upgrade deadlocks that dominate the blocking algorithm's
  /// restarts. No effect on the optimistic algorithm's outcome (its write
  /// declarations are no-ops either way).
  bool x_lock_on_read_intent = false;
  /// Group commit (extension; only meaningful with workload.log_io > 0):
  /// commit log records arriving within this window are flushed with a
  /// single log write instead of one each, trading a little commit latency
  /// for log-disk bandwidth. 0 forces one log write per update transaction.
  SimTime group_commit_window = 0;
  /// Concurrency control granularity (the Ries–Stonebraker question this
  /// model's ancestors were built for): objects are grouped into granules of
  /// this many consecutive ids, and the cc algorithm sees granule ids. One
  /// cc request covers the whole granule, so coarser granules mean fewer
  /// requests (cheaper when cc_cpu > 0) but more false conflicts. 1 (the
  /// paper's setting) makes granules = objects. With record_history, the
  /// history is recorded at granule granularity so the serializability
  /// checkers stay consistent with what the cc algorithm saw.
  int lock_granule_size = 1;
  /// Restart delay mode; nullopt selects the algorithm's conventional
  /// default (DefaultRestartDelayMode: adaptive for immediate_restart and
  /// wait_die, none otherwise).
  std::optional<RestartDelayMode> restart_delay_mode;
  /// Mean for RestartDelayMode::kFixed.
  SimTime fixed_restart_delay = 0;
  VictimPolicy victim_policy = VictimPolicy::kYoungest;
  uint64_t seed = 42;
  /// Record the full execution history (serializability tests); costs memory
  /// proportional to run length.
  bool record_history = false;
  /// Runtime invariant auditing (docs/AUDIT.md): the engine and the cc
  /// algorithm cross-check two-phase-locking discipline, lock-table ↔
  /// waits-for consistency, transaction conservation, and event-time
  /// monotonicity, and fold every cc decision into a deterministic replay
  /// digest. The auditor listens to the engine's event stream; disabled, it
  /// is not attached. Builds configured with -DCCSIM_AUDIT=ON flip the
  /// default to on.
#ifdef CCSIM_AUDIT_DEFAULT_ON
  bool audit = true;
#else
  bool audit = false;
#endif
  /// Observability (docs/OBSERVABILITY.md): stats registry + per-phase
  /// response-time breakdown, optional time-series sampler and Perfetto
  /// trace export, all as one listener on the engine's event stream. Fully
  /// disabled by default, when no such listener is attached.
  ObsConfig obs;
  /// Lifecycle trace sink attached at construction (run_config --trace).
  /// Not owned; must outlive the simulation; nullptr = none.
  TraceSink* lifecycle_sink = nullptr;
  /// Overrides MakeConcurrencyControl(algorithm, victim_policy) when set.
  /// Exists for the verifier's seeded-mutation self-test (src/verify/mutant),
  /// which must prove the oracle catches a deliberately broken algorithm;
  /// production configs leave it empty.
  std::function<std::unique_ptr<ConcurrencyControl>(const EngineConfig&)>
      cc_factory;

  /// Applies the `key=value` overrides the example drivers share: every
  /// WorkloadParams::ApplyConfig key, num_cpus, num_disks and seed. Absent
  /// keys keep the current values.
  void ApplyConfig(const Config& config);
};

/// The simulation engine. Owns the workload, resources, and the concurrency
/// control algorithm; drives every transaction through its lifecycle. It is
/// the resource pools' ServiceSink (OnServiceDone), the handler of its own
/// timers (OnEvent) and its algorithm's CCEngine. At each lifecycle point it
/// emits one EngineEvent to its listeners — built from the config: the
/// auditor, the history recorder, the lifecycle sink, observability — which
/// see the event and the const views below only, so none of them can steer
/// a run. With no listener an emit costs one empty-list test.
class ClosedSystem : private ServiceSink,
                     private EventHandler,
                     private CCEngine {
 public:
  ClosedSystem(Simulator* sim, const EngineConfig& config);
  ~ClosedSystem();

  ClosedSystem(const ClosedSystem&) = delete;
  ClosedSystem& operator=(const ClosedSystem&) = delete;

  /// Starts all terminals (each begins with one external think). Call once.
  void Prime();

  /// Runs warmup, then `batches` batches of `batch_length` each, and returns
  /// the measured report. Calls Prime() if not yet primed.
  MetricsReport RunExperiment(int batches, SimTime batch_length, SimTime warmup);

  // --- Introspection (tests, examples, adaptive-mpl extension) ---

  int active_count() const { return active_count_; }
  size_t ready_queue_length() const { return ready_queue_.size(); }
  int64_t total_commits() const { return lifetime_commits_; }
  int64_t total_restarts() const { return lifetime_restarts_; }
  /// Commits by `terminal` so far (the verifier's per-transaction liveness
  /// oracle: every terminal must reach its commit target in every schedule).
  int64_t terminal_commits(int terminal) const {
    return terminal_commits_[static_cast<size_t>(terminal)];
  }
  const ConcurrencyControl& cc() const { return *cc_; }
  ResourceManager& resources() { return resources_; }
  const HistoryRecorder& history() const { return history_; }
  const EngineConfig& config() const { return config_; }
  /// The runtime invariant auditor; nullptr unless config.audit is set.
  const Auditor* auditor() const;

  /// One-line transaction census ("census: 3 running, 44 blocked, ...") for
  /// event-budget diagnostics: where the population was when it tripped.
  std::string DescribeCensus() const;

  /// Committed-response-time running mean in seconds (drives the adaptive
  /// restart delay; exposed for tests and the adaptive-mpl controller).
  double MeanResponseSeconds() const { return restart_policy_.AdaptiveMeanSeconds(); }

  /// Dynamically changes the multiprogramming limit (adaptive-mpl
  /// extension). Raising it admits ready transactions immediately; lowering
  /// it takes effect as active transactions finish.
  void SetMpl(int mpl);
  int mpl() const { return mpl_; }

  /// The observability registry; nullptr unless config.obs.enabled.
  const StatsRegistry* stats_registry() const;

  /// Attaches a heartbeat progress cell (nullptr detaches); the engine
  /// stores lifetime commits into it with relaxed atomics so a reporter
  /// thread can read them (exec/watchdog.h HeartbeatThread).
  void SetProgressCell(ProgressCell* cell) { progress_ = cell; }

  /// End-of-run audit checks: deep cc check, final census, and quiescence
  /// (no blocked transaction may outlive the event queue). RunExperiment
  /// calls this itself; the schedule-space verifier calls it directly on
  /// every terminal state it reaches. No-op unless config.audit is set.
  void AuditFinal();

  // --- Const views for the audit listener ---

  /// The census from the per-state counts: O(1), taken at every transition.
  TxnCensus CountedCensus() const;
  /// The same census from a walk over every live transaction: O(population),
  /// the cross-check of the counts.
  TxnCensus WalkedCensus() const;
  /// Visits every blocked transaction as fn(id, doomed, grant_inflight), in
  /// slot order.
  template <typename Fn>
  void ForEachBlocked(Fn&& fn) const {
    txns_.ForEach([&](TxnId id, const Txn& txn) {
      if (txn.state == TxnState::kBlocked) {
        fn(id, txn.doomed, txn.grant_inflight);
      }
    });
  }

 private:
  enum class TxnState {
    kReady,         ///< In the ready queue (not active).
    kRunning,       ///< Active: issuing requests / in service.
    kBlocked,       ///< Active: waiting for a lock grant.
    kIntThink,      ///< Active: intra-transaction (internal) think.
    kRestartDelay,  ///< Not active: sitting out a restart delay.
  };
  static constexpr size_t kNumTxnStates = 5;
  static_assert(static_cast<size_t>(TxnState::kRestartDelay) + 1 ==
                kNumTxnStates);

  struct Txn {
    TxnId id = kInvalidTxn;
    int terminal = -1;
    TxnSpec spec;
    std::vector<ObjectId> write_set;
    SimTime first_submit = 0;
    SimTime incarnation_start = 0;
    int incarnation = 0;
    TxnState state = TxnState::kReady;
    int read_index = 0;
    int write_index = 0;
    int update_index = 0;
    bool think_done = false;
    bool doomed = false;
    /// A cc grant has fired but its zero-delay resume event has not; in this
    /// window the transaction is still kBlocked yet the algorithm no longer
    /// tracks it as a waiter, so the deep audit must not flag it.
    bool grant_inflight = false;
    /// Granules already covered by a granted cc request this incarnation
    /// (only maintained when lock_granule_size > 1).
    SmallIdSet read_granules;
    SmallIdSet write_granules;
    /// Resources consumed by the current incarnation (for useful-work
    /// accounting: credited only if this incarnation commits).
    SimTime cpu_used = 0;
    SimTime disk_used = 0;
    /// Pending think / restart-delay event, cancellable on wound.
    EventId pending_event = kInvalidEventId;

    /// Slot-reuse reset (TxnSlotMap recycling): restores the
    /// default-constructed state while keeping every buffer's capacity, so a
    /// terminal's next transaction reuses the previous one's storage.
    void Recycle() {
      id = kInvalidTxn;
      terminal = -1;
      spec.reads.clear();
      spec.writes.clear();
      spec.class_index = 0;
      write_set.clear();
      first_submit = 0;
      incarnation_start = 0;
      incarnation = 0;
      state = TxnState::kReady;
      read_index = 0;
      write_index = 0;
      update_index = 0;
      think_done = false;
      doomed = false;
      grant_inflight = false;
      read_granules.clear();
      write_granules.clear();
      cpu_used = 0;
      disk_used = 0;
      pending_event = kInvalidEventId;
    }
  };

  // Lifecycle.
  void SubmitFromTerminal(int terminal);
  void ScheduleNextArrival();
  void TryActivate();
  void Activate(TxnId id);
  void NextStep(TxnId id);
  void HandleCcRequest(TxnId id);
  void StartAccess(TxnId id);
  void StartInternalThink(TxnId id);
  void BeginUpdates(TxnId id);
  void FlushGroupCommit();
  void NextUpdate(TxnId id);
  void Complete(TxnId id);
  void Restart(TxnId id, RestartCause cause);
  void Deactivate();
  /// Acts on a cc decision: true if granted; otherwise blocks or restarts
  /// the transaction and returns false.
  bool Proceed(Txn& txn, CCDecision decision);

  // Resource service. Each step of a transaction that costs service is one
  // ServiceRequest tagged with its ServiceKind (obs/engine_event.h; a
  // kGroupLog request's `txn` is a group_batches_ slot); OnServiceDone
  // dispatches on it.
  /// Requests `service` µs for the step `kind` of (txn, incarnation), or —
  /// for a zero-cost step — completes it on the spot.
  void Serve(ServiceKind kind, TxnId txn, int incarnation, SimTime service);
  void OnServiceDone(const ServiceRequest& request) override;

  // The algorithm's signals (CCEngine). The last two reach here only while
  // the history is recorded or observability is on (AttachListeners).
  void OnGranted(TxnId id) override;
  void OnWound(TxnId id) override;
  SimTime Now() const override { return sim_->Now(); }
  void OnVersionRead(TxnId id, ObjectId obj, TxnId writer) override {
    Dispatch(EngineEventKind::kVersionRead, &GetTxn(id),
             {.object = obj, .opponent = writer});
  }
  void OnBlame(TxnId victim, TxnId opponent, ObjectId obj,
               BlameKind kind) override {
    Dispatch(EngineEventKind::kBlame, nullptr,
             {.txn = victim, .object = obj, .opponent = opponent,
              .blame = kind});
  }

  // Timers: simulator Events whose kind is a Timer, dispatched by OnEvent.
  enum class Timer : uint8_t {
    kTerminalSubmit,   ///< arg0 is the terminal.
    kOpenArrival,
    kThinkEnd,         ///< About (txn, incarnation); arg1 is the think.
    kRestartDelayEnd,  ///< About (txn, incarnation).
    kGrantResume,      ///< About (txn, incarnation).
    kWoundAbort,       ///< About (txn, incarnation).
    kGroupCommitFlush,
  };
  /// Schedules `timer` `delay` µs from now about `subject` (a transaction
  /// id or a terminal).
  EventId ScheduleTimer(SimTime delay, Timer timer, int64_t subject = 0,
                        int incarnation = 0, SimTime think = 0) {
    return sim_->Schedule(delay, {.handler = this,
                                  .kind = static_cast<uint8_t>(timer),
                                  .word = incarnation,
                                  .arg0 = subject, .arg1 = think});
  }
  void OnEvent(const Event& event) override;
  void OnThinkEnd(TxnId id, int incarnation, SimTime think);
  void OnRestartDelayEnd(TxnId id, int incarnation);
  void OnGrantResume(TxnId id, int incarnation);
  void OnWoundAbort(TxnId id, int incarnation);

  // Transaction census.
  /// The one writer of a counted transaction's state: moves it between the
  /// per-state counts (state_counts_). A transaction is counted from its
  /// submission (kReady) until Complete erases it.
  void SetState(Txn& txn, TxnState state) {
    --state_counts_[static_cast<size_t>(txn.state)];
    ++state_counts_[static_cast<size_t>(state)];
    txn.state = state;
  }
  int64_t StateCount(TxnState state) const {
    return state_counts_[static_cast<size_t>(state)];
  }

  // The event stream.
  /// Builds the listeners the config asks for. Called from the constructor.
  void AttachListeners();
  /// Builds the obs listener and registers every layer's instruments.
  void AttachObservability();
  bool observed() const { return !listeners_.empty(); }
  /// Emits `kind` now, about `txn` when given. With no listener this costs
  /// one empty-list test.
  void Emit(EngineEventKind kind, const Txn* txn = nullptr) {
    if (observed()) Dispatch(kind, txn, {});
  }
  /// Stamps `event`, whose kind-specific fields the caller has set, and
  /// hands it to every listener. Callers test observed() first, so an
  /// unobserved run never builds an event.
  void Dispatch(EngineEventKind kind, const Txn* txn, EngineEvent event);

  // Helpers.
  Txn& GetTxn(TxnId id);
  /// True if the (id, incarnation) pair still denotes a live incarnation.
  bool IsCurrent(TxnId id, int incarnation) const;
  bool NeedsInternalThink(const Txn& txn) const;
  double BootstrapResponseSeconds() const;

  /// The cc granule covering `obj`.
  ObjectId GranuleOf(ObjectId obj) const {
    return obj / config_.lock_granule_size;
  }
  /// True if the upcoming request's granule is already covered, so the cc
  /// request can be skipped entirely.
  bool GranuleAlreadyCovered(const Txn& txn) const;

  // Measurement.
  void ResetMeasurement();
  void CloseBatch(SimTime batch_length);

  Simulator* sim_;
  EngineConfig config_;
  int mpl_;
  WorkloadGenerator workload_;
  ResourceManager resources_;
  std::unique_ptr<ConcurrencyControl> cc_;
  RestartDelayPolicy restart_policy_;
  Rng delay_rng_;
  Rng arrival_rng_;
  Rng buffer_rng_;

  bool primed_ = false;
  TxnId next_txn_id_ = 1;
  /// Live transactions: ids grow without bound, but at most one per terminal
  /// (kClosed) is alive, so the slot map recycles a bounded set of slots —
  /// and each Txn's buffers with them.
  TxnSlotMap<Txn> txns_;
  RingQueue<TxnId> ready_queue_;
  /// Live transactions per TxnState, kept by SetState audited or not.
  int64_t state_counts_[kNumTxnStates] = {};
  int active_count_ = 0;
  TimeWeightedValue active_mpl_;

  /// The open batch window's counts, zeroed as each batch opens.
  struct BatchWindow {
    int64_t commits = 0;
    int64_t blocks = 0;
    int64_t restarts = 0;
    SimTime useful_cpu = 0;
    SimTime useful_disk = 0;
    Welford response;
  };
  BatchWindow batch_;

  // Measurement-period accumulators. Blocks are summed from closed batches
  // (every measured event falls inside one); commits and restarts are the
  // per-class totals' sums.
  int64_t measured_blocks_ = 0;
  Welford measured_response_;
  /// Response-time distribution for percentile reporting (0.1 s resolution
  /// up to 10 minutes; the overflow share is reported alongside).
  Histogram measured_response_hist_{0.0, 600.0, 6000};
  struct ClassTotals {
    Welford response;
    int64_t commits = 0;
    int64_t restarts = 0;
  };
  /// Per-class totals (single entry for single-class workloads).
  std::vector<ClassTotals> class_totals_;

  // Lifetime counters (include warmup).
  int64_t lifetime_commits_ = 0;
  int64_t lifetime_restarts_ = 0;
  /// Lifetime commits per terminal (kClosed) — the liveness oracle's view.
  std::vector<int64_t> terminal_commits_;

  /// One batch-means estimator per reported interval.
  struct Estimators {
    BatchMeans throughput;
    BatchMeans response;
    BatchMeans block_ratio;
    BatchMeans restart_ratio;
    BatchMeans disk_total;
    BatchMeans disk_useful;
    BatchMeans cpu_total;
    BatchMeans cpu_useful;
    BatchMeans log;
  };
  Estimators estimators_;

  // Listeners, attached only when their config field asks for them.
  // listeners_ runs them in this order: the auditor's end-of-run checks must
  // see the event queue before observability cancels its sampler tick.
  std::unique_ptr<AuditListener> audit_;
  HistoryRecorder history_;
  std::unique_ptr<TraceSinkListener> lifecycle_;
  std::unique_ptr<ObsListener> obs_;
  std::vector<EngineListener*> listeners_;
  ProgressCell* progress_ = nullptr;

  /// Transactions whose commit records await the next group-commit flush
  /// (id, incarnation).
  std::vector<std::pair<TxnId, int>> group_commit_queue_;
  /// Flushed batches whose log write is in service, by slot (the kGroupLog
  /// request's `txn`); emptied slots are reused via free_group_batches_.
  std::vector<std::vector<std::pair<TxnId, int>>> group_batches_;
  std::vector<size_t> free_group_batches_;
  /// Predeclared granule sets, rebuilt at every predeclaring Activate.
  std::vector<ObjectId> predeclare_reads_;
  std::vector<ObjectId> predeclare_writes_;
};

}  // namespace ccsim

#endif  // CCSIM_CORE_CLOSED_SYSTEM_H_
