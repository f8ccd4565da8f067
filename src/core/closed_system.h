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
#include "obs/blame.h"
#include "obs/contention.h"
#include "obs/engine_tracer.h"
#include "obs/obs_config.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "obs/trace_json.h"
#include "res/resources.h"
#include "sim/simulator.h"
#include "stats/batch_means.h"
#include "stats/histogram.h"
#include "stats/time_weighted.h"
#include "stats/welford.h"
#include "util/dense_table.h"
#include "util/random.h"
#include "wl/workload.h"

namespace ccsim {

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
  /// One of: blocking, immediate_restart, optimistic, wound_wait, wait_die,
  /// basic_to, mvto.
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
  /// default (adaptive for immediate_restart, none otherwise).
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
  /// digest. Disabled, each hook costs one null-pointer test. Builds
  /// configured with -DCCSIM_AUDIT=ON flip the default to on.
#ifdef CCSIM_AUDIT_DEFAULT_ON
  bool audit = true;
#else
  bool audit = false;
#endif
  /// Observability (docs/OBSERVABILITY.md): stats registry + per-phase
  /// response-time breakdown, optional time-series sampler and Perfetto
  /// trace export. Fully disabled by default; the engine then pays one
  /// branch per event.
  ObsConfig obs;
  /// Lifecycle trace sink attached at construction (run_config --trace).
  /// Not owned; must outlive the simulation; nullptr = none. Equivalent to
  /// calling SetTraceSink right after construction.
  TraceSink* lifecycle_sink = nullptr;
  /// Overrides MakeConcurrencyControl(algorithm, victim_policy) when set.
  /// Exists for the verifier's seeded-mutation self-test (src/verify/mutant),
  /// which must prove the oracle catches a deliberately broken algorithm;
  /// production configs leave it empty.
  std::function<std::unique_ptr<ConcurrencyControl>(const EngineConfig&)>
      cc_factory;
};

/// The simulation engine. Owns the workload, resources, and the concurrency
/// control algorithm; drives every transaction through its lifecycle. It is
/// the resource pools' ServiceSink: every service step completes through
/// OnServiceDone.
class ClosedSystem : private ServiceSink {
 public:
  ClosedSystem(Simulator* sim, const EngineConfig& config);

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
  const Auditor* auditor() const { return auditor_.get(); }

  /// One-line transaction census ("census: 3 running, 44 blocked, ...") for
  /// watchdog diagnostics: where the population was when a budget tripped.
  std::string DescribeCensus() const;

  /// Committed-response-time running mean in seconds (drives the adaptive
  /// restart delay; exposed for tests and the adaptive-mpl controller).
  double MeanResponseSeconds() const { return restart_policy_.AdaptiveMeanSeconds(); }

  /// Dynamically changes the multiprogramming limit (adaptive-mpl
  /// extension). Raising it admits ready transactions immediately; lowering
  /// it takes effect as active transactions finish.
  void SetMpl(int mpl);
  int mpl() const { return mpl_; }

  /// Attaches a lifecycle trace sink (nullptr detaches). Not owned; must
  /// outlive the simulation.
  void SetTraceSink(TraceSink* sink) { trace_ = sink; }

  /// The observability registry; nullptr unless config.obs.enabled.
  const StatsRegistry* stats_registry() const { return registry_.get(); }

  /// Attaches a heartbeat progress cell (nullptr detaches); the engine
  /// stores lifetime commits into it with relaxed atomics so a reporter
  /// thread can read them (exec/watchdog.h HeartbeatThread).
  void SetProgressCell(ProgressCell* cell) { progress_ = cell; }

  /// End-of-run audit checks: deep cc check, final census, and quiescence
  /// (no blocked transaction may outlive the event queue). RunExperiment
  /// calls this itself; the schedule-space verifier calls it directly on
  /// every terminal state it reaches. No-op unless config.audit is set.
  void AuditFinal();

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

    // Phase accounting (maintained only when config.obs.enabled; all µs).
    SimTime ready_since = 0;    ///< Entered the ready queue.
    SimTime blocked_since = 0;  ///< Last cc block began.
    // Whole-transaction accumulators (survive restarts).
    SimTime ph_ready = 0;
    SimTime ph_restart_delay = 0;
    SimTime ph_wasted = 0;
    // Current-incarnation buckets (reset at Activate).
    SimTime ph_cc_block = 0;
    SimTime ph_cpu = 0;
    SimTime ph_disk = 0;
    SimTime ph_res_wait = 0;
    SimTime ph_think = 0;

    // Blame attribution (obs/blame.h; maintained only when obs is on).
    /// Opponent of the most recent restart-causing conflict (wound, denial,
    /// validation failure, timestamp rejection). Reset at Activate.
    TxnId blame_opponent = kInvalidTxn;
    /// Holder behind the current (or just-resolved) cc block.
    TxnId blame_block_opponent = kInvalidTxn;
    /// (holder, µs) per resolved block of the current incarnation; folded
    /// into the ledger at Complete, discarded at Restart — exactly the
    /// lifecycle of ph_cc_block, so the blocked-µs identity is exact.
    std::vector<std::pair<TxnId, SimTime>> blame_block_charges;
    /// (aborter, µs) per restarted incarnation; whole-transaction, folded at
    /// Complete — exactly the lifecycle of ph_wasted.
    std::vector<std::pair<TxnId, SimTime>> blame_wasted_charges;

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
      ready_since = 0;
      blocked_since = 0;
      ph_ready = 0;
      ph_restart_delay = 0;
      ph_wasted = 0;
      ph_cc_block = 0;
      ph_cpu = 0;
      ph_disk = 0;
      ph_res_wait = 0;
      ph_think = 0;
      blame_opponent = kInvalidTxn;
      blame_block_opponent = kInvalidTxn;
      blame_block_charges.clear();
      blame_wasted_charges.clear();
    }
  };

  /// Why an incarnation restarted (observability: restarts by cause).
  enum class RestartCause {
    kWound,       ///< Chosen as a victim (deadlock or wound-wait).
    kDecision,    ///< The cc algorithm answered kRestart to a request.
    kValidation,  ///< Commit-point validation failed.
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

  // Resource service. Each step of a transaction that costs service is one
  // ServiceRequest tagged with its kind; OnServiceDone dispatches on it.
  enum class ServiceKind : uint8_t {
    kCcCpu,       ///< cc_cpu ahead of a cc request.
    kReadDisk,    ///< obj_io of a read (skipped on a buffer hit).
    kReadCpu,     ///< obj_cpu of a read.
    kWriteCpu,    ///< obj_cpu of a write request (the update is buffered).
    kLog,         ///< The commit log record (log_io).
    kUpdateDisk,  ///< obj_io of one deferred update.
    kGroupLog,    ///< One group-commit flush; `txn` is a group_batches_ slot.
  };
  /// Requests `service` µs for the step `kind` of (txn, incarnation), or —
  /// for a zero-cost step — completes it on the spot.
  void Serve(ServiceKind kind, TxnId txn, int incarnation, SimTime service);
  void OnServiceDone(const ServiceRequest& request) override;

  // Concurrency control callbacks.
  void OnGranted(TxnId id);
  void OnWound(TxnId id);

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
  /// The census from the per-state counts: O(1), taken at every transition.
  TxnCensus CountedCensus() const;
  /// The same census from a walk over every live transaction: O(population),
  /// the cross-check of the counts.
  TxnCensus WalkedCensus() const;

  // Auditing (no-ops unless config.audit is set).
  /// Monotonicity + conservation census at every lifecycle transition; every
  /// kAuditDeepCheckPeriod-th call also deep-checks the cc algorithm and
  /// cross-checks the census counts against a walk.
  void AuditTransition();
  /// Cross-checks a newly blocked transaction against the algorithm's
  /// waiter bookkeeping.
  void AuditBlocked(TxnId id);
  /// Folds one cc-stream op into the replay digest.
  void AuditFold(AuditOp op, TxnId id, int64_t a, int64_t b);

  // Helpers.
  Txn& GetTxn(TxnId id);
  /// True if the (id, incarnation) pair still denotes a live incarnation.
  bool IsCurrent(TxnId id, int incarnation) const;
  bool NeedsInternalThink(const Txn& txn) const;
  double BootstrapResponseSeconds() const;
  void Trace(const Txn& txn, TxnEvent event);

  // Observability (no-ops / single branch unless config.obs.enabled).
  /// Builds the registry, registers every layer's instruments, and opens
  /// the Perfetto trace when configured. Called from the constructor.
  void SetupObservability();
  /// Counts one cc decision into the granted/blocked/denied counters.
  void CountDecision(CCDecision decision);
  /// Charges `service` µs of service to a phase bucket and the difference
  /// to resource_wait; `requested_at` is when the request entered the pool.
  void ChargePhase(Txn& txn, SimTime Txn::* bucket, SimTime service,
                   SimTime requested_at);
  /// Finishes the sampler CSV/.gp and the trace.json (hard error on a
  /// failed write). Called at the end of RunExperiment; idempotent.
  void FinishObsArtifacts();
  /// cc on_blame callback (installed only when obs is on): stashes the
  /// opponent on the victim and feeds the hot-granule sketch.
  void OnBlame(TxnId victim, TxnId opponent, ObjectId obj, BlameKind kind);
  /// Blocking-chain telemetry at a block site: records the waits-for edge,
  /// samples the chain depth, and emits a Perfetto flow event when tracing.
  void RecordBlockedEdge(TxnId id, SimTime now);

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

  // Batch-window counters.
  int64_t batch_commits_ = 0;
  int64_t batch_blocks_ = 0;
  int64_t batch_restarts_ = 0;
  SimTime batch_useful_cpu_ = 0;
  SimTime batch_useful_disk_ = 0;
  Welford batch_response_;

  // Measurement-period accumulators.
  int64_t measured_commits_ = 0;
  int64_t measured_blocks_ = 0;
  int64_t measured_restarts_ = 0;
  Welford measured_response_;
  /// Response-time distribution for percentile reporting (0.1 s resolution
  /// up to 10 minutes; the overflow share is reported alongside).
  Histogram measured_response_hist_{0.0, 600.0, 6000};
  /// Per-class accumulators (single entry for single-class workloads).
  std::vector<Welford> class_response_;
  std::vector<int64_t> class_commits_;
  std::vector<int64_t> class_restarts_;

  // Lifetime counters (include warmup).
  int64_t lifetime_commits_ = 0;
  int64_t lifetime_restarts_ = 0;
  /// Lifetime commits per terminal (kClosed) — the liveness oracle's view.
  std::vector<int64_t> terminal_commits_;

  // Batch-means estimators.
  BatchMeans throughput_bm_;
  BatchMeans response_bm_;
  BatchMeans block_ratio_bm_;
  BatchMeans restart_ratio_bm_;
  BatchMeans disk_total_bm_;
  BatchMeans disk_useful_bm_;
  BatchMeans cpu_total_bm_;
  BatchMeans cpu_useful_bm_;
  BatchMeans log_bm_;

  HistoryRecorder history_;
  TraceSink* trace_ = nullptr;
  std::unique_ptr<Auditor> auditor_;
  int64_t audit_transitions_ = 0;

  // Observability (all null / zero when config.obs.enabled is false).
  bool obs_on_ = false;
  std::unique_ptr<StatsRegistry> registry_;
  std::unique_ptr<TraceEventWriter> trace_writer_;
  std::unique_ptr<EngineTracer> perfetto_;
  std::unique_ptr<TimeSeriesSampler> sampler_;
  ObsCounter* ctr_commits_ = nullptr;
  ObsCounter* ctr_restarts_wound_ = nullptr;
  ObsCounter* ctr_restarts_decision_ = nullptr;
  ObsCounter* ctr_restarts_validation_ = nullptr;
  ObsCounter* ctr_cc_granted_ = nullptr;
  ObsCounter* ctr_cc_blocked_ = nullptr;
  ObsCounter* ctr_cc_denied_ = nullptr;
  ObsCounter* ctr_wasted_cpu_us_ = nullptr;
  ObsCounter* ctr_wasted_disk_us_ = nullptr;
  /// Measurement-window phase sums (µs); reset with the other measurement
  /// accumulators, folded per commit, reported as means over commits.
  struct PhaseSums {
    SimTime ready = 0, restart_delay = 0, wasted = 0;
    SimTime cc_block = 0, cpu = 0, disk = 0, res_wait = 0, think = 0;
    SimTime other = 0;
  } phase_sums_;
  /// Blame aggregation over the measurement window (obs/blame.h); reset with
  /// the other measurement accumulators, folded per commit at Complete.
  BlameLedger blame_ledger_;
  /// Hot-granule conflict sketch; null unless obs is on.
  std::unique_ptr<ContentionProfiler> contention_;
  /// Observability-only waits-for edges (victim -> opponent) for chain-depth
  /// sampling; never consulted by any scheduling or cc decision.
  TxnSlotMap<TxnId> waits_for_obs_;
  Histogram* chain_depth_hist_ = nullptr;
  Histogram* genealogy_hist_ = nullptr;
  ProgressCell* progress_ = nullptr;

  /// Transactions whose commit records await the next group-commit flush
  /// (id, incarnation); the window timer is pending_group_flush_.
  std::vector<std::pair<TxnId, int>> group_commit_queue_;
  EventId pending_group_flush_ = kInvalidEventId;
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
