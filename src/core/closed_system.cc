#include "core/closed_system.h"

#include <algorithm>
#include <utility>

#include "core/audit_listener.h"
#include "obs/obs_listener.h"
#include "sim/choice.h"
#include "util/check.h"
#include "util/str.h"

namespace ccsim {

void EngineConfig::ApplyConfig(const Config& config) {
  workload.ApplyConfig(config);
  resources.num_cpus =
      static_cast<int>(config.GetIntOr("num_cpus", resources.num_cpus));
  resources.num_disks =
      static_cast<int>(config.GetIntOr("num_disks", resources.num_disks));
  seed = static_cast<uint64_t>(
      config.GetIntOr("seed", static_cast<int64_t>(seed)));
}

// Streams 0-5 of the master seed, in docs/MODEL.md §1's fixed order, so a
// run is a pure function of the seed.
ClosedSystem::ClosedSystem(Simulator* sim, const EngineConfig& config)
    : sim_(sim),
      config_(config),
      mpl_(config.workload.mpl),
      workload_(config.workload, RngFactory::NthStream(config.seed, 0),
                RngFactory::NthStream(config.seed, 1)),
      resources_(sim, config.resources, RngFactory::NthStream(config.seed, 2),
                 this),
      cc_(config.cc_factory
              ? config.cc_factory(config)
              : MakeConcurrencyControl(config.algorithm,
                                       config.victim_policy)),
      restart_policy_(
          config.restart_delay_mode.value_or(
              DefaultRestartDelayMode(config.algorithm)),
          config.fixed_restart_delay, BootstrapResponseSeconds()),
      delay_rng_(RngFactory::NthStream(config.seed, 3)),
      arrival_rng_(RngFactory::NthStream(config.seed, 4)),
      buffer_rng_(RngFactory::NthStream(config.seed, 5)),
      active_mpl_(sim->Now()),
      history_(config.lock_granule_size) {
  if (config_.source_mode == SourceMode::kOpen) {
    CCSIM_CHECK_GT(config_.arrival_rate, 0.0)
        << "open-system mode requires a positive arrival_rate";
  }
  // Static write locking replaces the read request with a write request; the
  // timestamp-ordering algorithms derive read protection from the read
  // request itself, so the combination would silently weaken them.
  if (config_.x_lock_on_read_intent) {
    CCSIM_CHECK(config_.algorithm != "basic_to" && config_.algorithm != "mvto")
        << "x_lock_on_read_intent is not supported for timestamp ordering";
  }
  // Algorithms that restart against a still-running conflictor livelock
  // without a delay: the restarted transaction re-requests the same lock at
  // the same simulated instant, forever. They are the ones whose default
  // delay is not kNone.
  if (DefaultRestartDelayMode(config_.algorithm) != RestartDelayMode::kNone) {
    CCSIM_CHECK(restart_policy_.mode() != RestartDelayMode::kNone)
        << config_.algorithm
        << " requires a restart delay (fixed or adaptive)";
  }
  CCSIM_CHECK_GE(config_.lock_granule_size, 1);
  // Capacity hint: lockable granule count + transaction population, so the
  // algorithm's tables never rehash in steady state.
  cc_->ReserveCapacity(
      (config_.workload.db_size + config_.lock_granule_size - 1) /
          config_.lock_granule_size,
      config_.workload.mpl);
  // Live-transaction hint: at most one per terminal (kClosed) plus the mpl
  // headroom; open mode grows past the hint amortized.
  txns_.Reserve(static_cast<size_t>(
      std::max(config_.workload.num_terms, config_.workload.mpl)));
  terminal_commits_.assign(
      static_cast<size_t>(std::max(config_.workload.num_terms, 1)), 0);
  class_totals_.resize(static_cast<size_t>(config_.workload.ClassCount()));
  AttachListeners();
}

ClosedSystem::~ClosedSystem() = default;

void ClosedSystem::AttachListeners() {
  if (config_.audit) {
    audit_ = std::make_unique<AuditListener>(this, sim_);
    cc_->SetAuditor(&audit_->auditor());
    listeners_.push_back(audit_.get());
  }
  if (config_.record_history) listeners_.push_back(&history_);
  if (config_.lifecycle_sink != nullptr) {
    lifecycle_ = std::make_unique<TraceSinkListener>(config_.lifecycle_sink);
    listeners_.push_back(lifecycle_.get());
  }
  if (config_.obs.enabled) {
    AttachObservability();
    listeners_.push_back(obs_.get());
  }
  cc_->SetCallbacks({.engine = this,
                     .version_reads = config_.record_history,
                     .blame = config_.obs.enabled});
}

void ClosedSystem::Dispatch(EngineEventKind kind, const Txn* txn,
                            EngineEvent event) {
  event.kind = kind;
  event.time = sim_->Now();
  if (txn != nullptr) {
    event.txn = txn->id;
    event.incarnation = txn->incarnation;
  }
  for (EngineListener* listener : listeners_) listener->OnEvent(event);
}

void ClosedSystem::AttachObservability() {
  // Direct construction (tests, examples) may carry unresolved directory
  // fields; the experiment runner resolves per-point paths up front, in
  // which case this is a no-op.
  ResolveObsPaths(&config_.obs, config_.algorithm, config_.workload.mpl,
                  config_.seed);
  auto registry = std::make_unique<StatsRegistry>();
  // Engine gauges: the population split the paper's dynamics arguments are
  // about. Gauges are evaluated only when the sampler fires.
  auto population = [this](TxnState state) {
    return [this, state] { return static_cast<double>(StateCount(state)); };
  };
  registry->AddGauge("ready_queue", [this] {
    return static_cast<double>(ready_queue_.size());
  });
  registry->AddGauge("active", [this] {
    return static_cast<double>(active_count_);
  });
  registry->AddGauge("blocked", population(TxnState::kBlocked));
  registry->AddGauge("thinking", population(TxnState::kIntThink));
  registry->AddGauge("restart_delay", population(TxnState::kRestartDelay));
  obs_ = std::make_unique<ObsListener>(sim_, config_.obs, std::move(registry),
                                       &cc_->stats());
  // The algorithm's own instruments (lock-table occupancy, deadlock
  // searches, cycle lengths, ...), then the resource pools'.
  cc_->RegisterStats(obs_->registry());
  resources_.RegisterStats(obs_->registry());
  ServiceSpanSink* spans = obs_->span_sink();  // Non-null when tracing.
  if (spans != nullptr) resources_.AttachSpanSink(spans);
}

double ClosedSystem::BootstrapResponseSeconds() const {
  const WorkloadParams& w = config_.workload;
  double reads = static_cast<double>(w.tran_size);
  double writes = reads * w.write_prob;
  double seconds = reads * ToSeconds(w.obj_io + w.obj_cpu) +
                   writes * ToSeconds(w.obj_cpu + w.obj_io) +
                   ToSeconds(w.int_think_time);
  return seconds > 0 ? seconds : 1.0;
}

void ClosedSystem::Prime() {
  CCSIM_CHECK(!primed_) << "Prime() called twice";
  primed_ = true;
  Emit(EngineEventKind::kRunStart);
  if (config_.source_mode == SourceMode::kOpen) {
    ScheduleNextArrival();
    return;
  }
  for (int terminal = 0; terminal < config_.workload.num_terms; ++terminal) {
    SimTime think = workload_.NextExternalThink();
    ScheduleTimer(think, Timer::kTerminalSubmit, terminal);
  }
}

void ClosedSystem::ScheduleNextArrival() {
  SimTime gap = FromSeconds(arrival_rng_.Exponential(1.0 / config_.arrival_rate));
  ScheduleTimer(gap, Timer::kOpenArrival);
}

void ClosedSystem::OnEvent(const Event& event) {
  const TxnId id = event.arg0;
  const int incarnation = event.word;
  switch (static_cast<Timer>(event.kind)) {
    case Timer::kTerminalSubmit:
      SubmitFromTerminal(static_cast<int>(event.arg0));
      return;
    case Timer::kOpenArrival:
      ScheduleNextArrival();
      SubmitFromTerminal(/*terminal=*/-1);
      return;
    case Timer::kThinkEnd:
      OnThinkEnd(id, incarnation, event.arg1);
      return;
    case Timer::kRestartDelayEnd:
      OnRestartDelayEnd(id, incarnation);
      return;
    case Timer::kGrantResume:
      OnGrantResume(id, incarnation);
      return;
    case Timer::kWoundAbort:
      OnWoundAbort(id, incarnation);
      return;
    case Timer::kGroupCommitFlush:
      FlushGroupCommit();
      return;
  }
}

void ClosedSystem::SubmitFromTerminal(int terminal) {
  TxnId id = next_txn_id_++;
  // Insert recycles a retired transaction's slot, so the new transaction
  // inherits its buffers' capacity.
  Txn& txn = txns_.Insert(id);
  txn.id = id;
  txn.terminal = terminal;
  workload_.NextTransaction(&txn.spec);
  txn.spec.WriteSet(&txn.write_set);
  txn.first_submit = sim_->Now();
  // Insert left the slot kReady; SetState takes over from here.
  ++state_counts_[static_cast<size_t>(TxnState::kReady)];
  Emit(EngineEventKind::kSubmit, &txn);
  ready_queue_.push_back(id);
  TryActivate();
}

void ClosedSystem::TryActivate() {
  while (active_count_ < mpl_ && !ready_queue_.empty()) {
    size_t pick = 0;
    // Verifier hook: admission is FIFO by default, but any queued transaction
    // could plausibly be admitted next in a real system; offer the first few.
    if (ActiveChoicePoint() != nullptr && ready_queue_.size() > 1) {
      constexpr size_t kMaxReadyAlternatives = 6;
      uint64_t signatures[kMaxReadyAlternatives];
      size_t count = std::min<size_t>(ready_queue_.size(),
                                      kMaxReadyAlternatives);
      for (size_t i = 0; i < count; ++i) {
        signatures[i] = static_cast<uint64_t>(ready_queue_[i]);
      }
      pick = static_cast<size_t>(
          MaybeChoose("ready.pick", signatures, static_cast<int>(count)));
    }
    TxnId id = ready_queue_[pick];
    ready_queue_.erase(pick);
    Activate(id);
  }
}

void ClosedSystem::Activate(TxnId id) {
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kReady);
  SetState(txn, TxnState::kRunning);
  txn.incarnation += 1;
  txn.incarnation_start = sim_->Now();
  txn.read_index = 0;
  txn.write_index = 0;
  txn.update_index = 0;
  txn.think_done = false;
  txn.doomed = false;
  txn.grant_inflight = false;
  txn.cpu_used = 0;
  txn.disk_used = 0;
  txn.read_granules.clear();
  txn.write_granules.clear();
  ++active_count_;
  active_mpl_.Add(sim_->Now(), +1.0);
  // Before OnBegin: the auditor admits the incarnation ahead of its locks.
  Emit(EngineEventKind::kActivate, &txn);
  cc_->OnBegin(id, txn.first_submit, txn.incarnation_start);
  if (cc_->needs_predeclaration()) {
    auto granules_of = [this](const std::vector<ObjectId>& objects,
                              std::vector<ObjectId>* granules) {
      granules->clear();
      for (ObjectId obj : objects) {
        ObjectId granule = GranuleOf(obj);
        if (std::find(granules->begin(), granules->end(), granule) ==
            granules->end()) {
          granules->push_back(granule);
        }
      }
    };
    granules_of(txn.spec.reads, &predeclare_reads_);
    granules_of(txn.write_set, &predeclare_writes_);
    CCDecision decision =
        cc_->Predeclare(id, predeclare_reads_, predeclare_writes_);
    if (observed()) {
      Dispatch(EngineEventKind::kCcDecision, &txn,
               {.op = CcOp::kPredeclare,
                .decision = decision,
                .count = static_cast<int64_t>(predeclare_reads_.size() +
                                              predeclare_writes_.size())});
    }
    if (!Proceed(txn, decision)) return;
  }
  NextStep(id);
}

bool ClosedSystem::Proceed(Txn& txn, CCDecision decision) {
  switch (decision) {
    case CCDecision::kGranted:
      return true;
    case CCDecision::kBlocked:
      SetState(txn, TxnState::kBlocked);
      ++batch_.blocks;
      Emit(EngineEventKind::kBlock, &txn);
      return false;
    case CCDecision::kRestart:
      Restart(txn.id, RestartCause::kDecision);
      return false;
  }
  return false;
}

void ClosedSystem::NextStep(TxnId id) {
  Emit(EngineEventKind::kSettled);
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kRunning);
  if (txn.doomed) {
    Restart(id, RestartCause::kWound);
    return;
  }
  if (NeedsInternalThink(txn)) {
    StartInternalThink(id);
    return;
  }
  if (GranuleAlreadyCovered(txn)) {
    StartAccess(id);
    return;
  }
  // The next read or write request, or at the commit point the validation
  // request; each pays cc_cpu first.
  Serve(ServiceKind::kCcCpu, id, txn.incarnation, config_.workload.cc_cpu);
}

bool ClosedSystem::NeedsInternalThink(const Txn& txn) const {
  return config_.workload.int_think_time > 0 && !txn.think_done &&
         txn.read_index >= txn.spec.num_reads();
}

bool ClosedSystem::GranuleAlreadyCovered(const Txn& txn) const {
  if (config_.lock_granule_size <= 1) return false;
  if (txn.read_index < txn.spec.num_reads()) {
    ObjectId granule =
        GranuleOf(txn.spec.reads[static_cast<size_t>(txn.read_index)]);
    bool write_intent =
        config_.x_lock_on_read_intent &&
        txn.spec.writes[static_cast<size_t>(txn.read_index)];
    if (write_intent) return txn.write_granules.count(granule) > 0;
    return txn.read_granules.count(granule) > 0 ||
           txn.write_granules.count(granule) > 0;
  }
  if (txn.write_index < static_cast<int>(txn.write_set.size())) {
    ObjectId granule =
        GranuleOf(txn.write_set[static_cast<size_t>(txn.write_index)]);
    return txn.write_granules.count(granule) > 0;
  }
  return false;  // The validation request is always issued.
}

void ClosedSystem::HandleCcRequest(TxnId id) {
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kRunning);
  if (txn.doomed) {
    Restart(id, RestartCause::kWound);
    return;
  }

  if (txn.read_index < txn.spec.num_reads()) {
    ObjectId granule =
        GranuleOf(txn.spec.reads[static_cast<size_t>(txn.read_index)]);
    // Under static write locking, a to-be-written object is requested in
    // write mode up front instead of read-locked and upgraded later.
    bool write_intent =
        config_.x_lock_on_read_intent &&
        txn.spec.writes[static_cast<size_t>(txn.read_index)];
    CCDecision decision = write_intent ? cc_->WriteRequest(id, granule)
                                       : cc_->ReadRequest(id, granule);
    if (observed()) {
      Dispatch(EngineEventKind::kCcDecision, &txn,
               {.op = write_intent ? CcOp::kWriteIntent : CcOp::kRead,
                .decision = decision,
                .object = granule});
    }
    if (!Proceed(txn, decision)) return;
    if (config_.lock_granule_size > 1) {
      (write_intent ? txn.write_granules : txn.read_granules).insert(granule);
    }
    StartAccess(id);
    return;
  }

  if (txn.write_index < static_cast<int>(txn.write_set.size())) {
    ObjectId granule =
        GranuleOf(txn.write_set[static_cast<size_t>(txn.write_index)]);
    CCDecision decision = cc_->WriteRequest(id, granule);
    if (observed()) {
      Dispatch(EngineEventKind::kCcDecision, &txn,
               {.op = CcOp::kWrite, .decision = decision, .object = granule});
    }
    if (!Proceed(txn, decision)) return;
    if (config_.lock_granule_size > 1) txn.write_granules.insert(granule);
    StartAccess(id);
    return;
  }

  // Validation at the commit point.
  bool valid = cc_->Validate(id);
  if (observed()) {
    Dispatch(EngineEventKind::kCcDecision, &txn,
             {.op = CcOp::kValidate,
              .decision = valid ? CCDecision::kGranted : CCDecision::kRestart});
  }
  if (valid) {
    BeginUpdates(id);
  } else {
    Restart(id, RestartCause::kValidation);
  }
}

void ClosedSystem::StartAccess(TxnId id) {
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kRunning);
  const WorkloadParams& w = config_.workload;
  if (txn.read_index < txn.spec.num_reads()) {
    // Read: obj_io on a random disk, then obj_cpu. Buffer-pool model: a
    // read may hit the buffer and skip the disk.
    bool buffer_hit = w.buffer_hit_prob > 0.0 &&
                      buffer_rng_.Bernoulli(w.buffer_hit_prob);
    Serve(ServiceKind::kReadDisk, id, txn.incarnation,
          buffer_hit ? 0 : w.obj_io);
    return;
  }
  // Write request: obj_cpu only; the physical write is deferred to commit.
  Serve(ServiceKind::kWriteCpu, id, txn.incarnation, w.obj_cpu);
}

void ClosedSystem::Serve(ServiceKind kind, TxnId txn, int incarnation,
                         SimTime service) {
  const ServiceRequest request{static_cast<uint8_t>(kind), incarnation, txn,
                               service, sim_->Now()};
  if (service <= 0) {
    OnServiceDone(request);
    return;
  }
  switch (kind) {
    case ServiceKind::kCcCpu:
      resources_.RequestCpu(ServicePriority::kConcurrencyControl, request);
      return;
    case ServiceKind::kReadCpu:
    case ServiceKind::kWriteCpu:
      resources_.RequestCpu(ServicePriority::kNormal, request);
      return;
    case ServiceKind::kReadDisk:
    case ServiceKind::kUpdateDisk:
      resources_.RequestDisk(request);
      return;
    case ServiceKind::kLog:
    case ServiceKind::kGroupLog:
      resources_.RequestLog(request);
      return;
  }
}

void ClosedSystem::OnServiceDone(const ServiceRequest& request) {
  const auto kind = static_cast<ServiceKind>(request.kind);
  if (kind == ServiceKind::kGroupLog) {
    const auto slot = static_cast<size_t>(request.txn);
    for (size_t i = 0; i < group_batches_[slot].size(); ++i) {
      const auto [id, incarnation] = group_batches_[slot][i];
      // A batch member may have been wounded and restarted while waiting;
      // its incarnation guard skips it (the doomed path aborts elsewhere).
      if (IsCurrent(id, incarnation)) NextUpdate(id);
    }
    group_batches_[slot].clear();
    free_group_batches_.push_back(slot);
    return;
  }
  const TxnId id = request.txn;
  Txn* txn = txns_.Find(id);
  CCSIM_CHECK(txn != nullptr && txn->incarnation == request.incarnation);
  const SimTime service = request.service;
  if (observed()) {
    Dispatch(EngineEventKind::kServiceDone, txn,
             {.service = kind,
              .duration = service,
              .requested_at = request.requested_at});
  }
  switch (kind) {
    case ServiceKind::kCcCpu:
      txn->cpu_used += service;
      HandleCcRequest(id);
      return;
    case ServiceKind::kReadDisk:
      txn->disk_used += service;
      Serve(ServiceKind::kReadCpu, id, txn->incarnation,
            config_.workload.obj_cpu);
      return;
    case ServiceKind::kReadCpu:
      txn->cpu_used += service;
      // The logical read was already recorded at its cc grant.
      ++txn->read_index;
      NextStep(id);
      return;
    case ServiceKind::kWriteCpu:
      txn->cpu_used += service;
      ++txn->write_index;
      NextStep(id);
      return;
    case ServiceKind::kLog:
      NextUpdate(id);
      return;
    case ServiceKind::kUpdateDisk:
      txn->disk_used += service;
      ++txn->update_index;
      NextUpdate(id);
      return;
    case ServiceKind::kGroupLog:
      return;  // Handled above.
  }
}

void ClosedSystem::StartInternalThink(TxnId id) {
  Txn& txn = GetTxn(id);
  SetState(txn, TxnState::kIntThink);
  Emit(EngineEventKind::kThinkStart, &txn);
  SimTime think = workload_.NextInternalThink();
  txn.pending_event =
      ScheduleTimer(think, Timer::kThinkEnd, id, txn.incarnation, think);
}

void ClosedSystem::OnThinkEnd(TxnId id, int incarnation, SimTime think) {
  CCSIM_CHECK(IsCurrent(id, incarnation));
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kIntThink);
  txn.pending_event = kInvalidEventId;
  txn.think_done = true;
  SetState(txn, TxnState::kRunning);
  if (observed()) {
    Dispatch(EngineEventKind::kThinkEnd, &txn, {.duration = think});
  }
  NextStep(id);
}

void ClosedSystem::BeginUpdates(TxnId id) {
  Txn& txn = GetTxn(id);
  txn.update_index = 0;
  // Recovery extension: update transactions force a commit log record to the
  // dedicated log disk before applying their deferred updates.
  const WorkloadParams& w = config_.workload;
  if (w.log_io > 0 && !txn.write_set.empty()) {
    if (config_.group_commit_window > 0) {
      // Group commit: join the current batch; the first joiner arms the
      // window timer that flushes everyone with one log write.
      group_commit_queue_.emplace_back(id, txn.incarnation);
      if (group_commit_queue_.size() == 1) {
        ScheduleTimer(config_.group_commit_window, Timer::kGroupCommitFlush);
      }
      return;
    }
    Serve(ServiceKind::kLog, id, txn.incarnation, w.log_io);
    return;
  }
  NextUpdate(id);
}

void ClosedSystem::FlushGroupCommit() {
  if (group_commit_queue_.empty()) return;
  // The batch moves into a recycled slot (capacity and all) that the log
  // request names in place of a transaction id.
  size_t slot = group_batches_.size();
  if (free_group_batches_.empty()) {
    group_batches_.emplace_back();
  } else {
    slot = free_group_batches_.back();
    free_group_batches_.pop_back();
  }
  group_batches_[slot].swap(group_commit_queue_);
  Serve(ServiceKind::kGroupLog, static_cast<TxnId>(slot), 0,
        config_.workload.log_io);
}

void ClosedSystem::NextUpdate(TxnId id) {
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kRunning);
  if (txn.doomed) {
    Restart(id, RestartCause::kWound);
    return;
  }
  if (txn.update_index >= static_cast<int>(txn.write_set.size())) {
    Complete(id);
    return;
  }
  Serve(ServiceKind::kUpdateDisk, id, txn.incarnation,
        config_.workload.obj_io);
}

void ClosedSystem::Complete(TxnId id) {
  Txn& txn = GetTxn(id);
  if (txn.doomed) {
    Restart(id, RestartCause::kWound);
    return;
  }
  double response = ToSeconds(sim_->Now() - txn.first_submit);
  restart_policy_.RecordResponse(response);
  batch_.response.Add(response);
  measured_response_.Add(response);
  measured_response_hist_.Add(response);
  ClassTotals& class_totals =
      class_totals_[static_cast<size_t>(txn.spec.class_index)];
  class_totals.response.Add(response);
  ++class_totals.commits;
  ++batch_.commits;
  ++lifetime_commits_;
  if (txn.terminal >= 0 &&
      txn.terminal < static_cast<int>(terminal_commits_.size())) {
    ++terminal_commits_[static_cast<size_t>(txn.terminal)];
  }
  batch_.useful_cpu += txn.cpu_used;
  batch_.useful_disk += txn.disk_used;
  if (progress_ != nullptr) {
    progress_->commits.store(lifetime_commits_, std::memory_order_relaxed);
  }
  // The deferred writes become visible before the algorithm's Commit, whose
  // publishing may wake readers synchronously (history.h).
  if (observed()) {
    Dispatch(EngineEventKind::kCommitting, &txn,
             {.write_set = &txn.write_set});
  }
  cc_->Commit(id);
  Emit(EngineEventKind::kCommit, &txn);

  int terminal = txn.terminal;
  Deactivate();
  --state_counts_[static_cast<size_t>(txn.state)];
  txns_.Erase(id);

  if (config_.source_mode == SourceMode::kClosed) {
    SimTime think = workload_.NextExternalThink();
    ScheduleTimer(think, Timer::kTerminalSubmit, terminal);
  }
  TryActivate();
  Emit(EngineEventKind::kSettled);
}

void ClosedSystem::Restart(TxnId id, RestartCause cause) {
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kRunning ||
              txn.state == TxnState::kBlocked ||
              txn.state == TxnState::kIntThink);
  if (txn.pending_event != kInvalidEventId) {
    sim_->Cancel(txn.pending_event);
    txn.pending_event = kInvalidEventId;
  }
  ++batch_.restarts;
  ++lifetime_restarts_;
  ++class_totals_[static_cast<size_t>(txn.spec.class_index)].restarts;
  cc_->Abort(id);
  Deactivate();

  // Re-entry always goes through an event, even at zero delay. A synchronous
  // re-entry could recurse Restart -> Activate -> conflict -> Restart inside
  // a single event: a zero-delay restart spin (e.g. immediate restart with a
  // conflicting replay and no delay) would then livelock *inside* one event,
  // where the event budget (checked between events, sim/simulator.h
  // RunGuard) could never interrupt it.
  SimTime delay = restart_policy_.NextDelay(&delay_rng_);
  SetState(txn, TxnState::kRestartDelay);
  txn.pending_event =
      ScheduleTimer(delay, Timer::kRestartDelayEnd, id, txn.incarnation);
  if (observed()) {
    Dispatch(EngineEventKind::kRestart, &txn,
             {.duration = delay,
              .cause = cause,
              .cpu_used = txn.cpu_used,
              .disk_used = txn.disk_used});
  }
  Emit(EngineEventKind::kSettled);
}

void ClosedSystem::OnRestartDelayEnd(TxnId id, int incarnation) {
  CCSIM_CHECK(IsCurrent(id, incarnation));
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kRestartDelay);
  txn.pending_event = kInvalidEventId;
  SetState(txn, TxnState::kReady);
  ready_queue_.push_back(id);
  TryActivate();
}

void ClosedSystem::Deactivate() {
  --active_count_;
  CCSIM_CHECK_GE(active_count_, 0);
  active_mpl_.Add(sim_->Now(), -1.0);
}

void ClosedSystem::OnGranted(TxnId id) {
  // Defer to a zero-delay event: grants arrive from inside cc calls and the
  // engine must not re-enter its own state machine mid-call.
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kBlocked);
  txn.grant_inflight = true;
  ScheduleTimer(0, Timer::kGrantResume, id, txn.incarnation);
}

void ClosedSystem::OnGrantResume(TxnId id, int incarnation) {
  if (!IsCurrent(id, incarnation)) return;  // Restarted meanwhile.
  Txn& txn = GetTxn(id);
  txn.grant_inflight = false;
  if (txn.state != TxnState::kBlocked) return;  // Stale grant.
  SetState(txn, TxnState::kRunning);
  Emit(EngineEventKind::kResume, &txn);
  Emit(EngineEventKind::kSettled);
  if (txn.doomed) {
    Restart(id, RestartCause::kWound);
    return;
  }
  // Re-issue the pending request rather than assume a grant: for lock
  // algorithms the re-request is idempotently granted (the waiter now holds
  // the lock), while timestamp algorithms re-run their checks and may block
  // again or restart.
  HandleCcRequest(id);
}

void ClosedSystem::OnWound(TxnId id) {
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kRunning ||
              txn.state == TxnState::kBlocked ||
              txn.state == TxnState::kIntThink)
      << "wound target must be active";
  if (txn.doomed) return;  // Already doomed; nothing more to do.
  txn.doomed = true;
  // A blocked or thinking victim has no service completion that would notice
  // the doom flag; abort it via a zero-delay event. A running victim aborts
  // at its next engine step.
  if (txn.state == TxnState::kBlocked || txn.state == TxnState::kIntThink) {
    ScheduleTimer(0, Timer::kWoundAbort, id, txn.incarnation);
  }
}

void ClosedSystem::OnWoundAbort(TxnId id, int incarnation) {
  if (!IsCurrent(id, incarnation)) return;
  Txn& txn = GetTxn(id);
  if (!txn.doomed) return;
  if (txn.state != TxnState::kBlocked && txn.state != TxnState::kIntThink) {
    return;  // Resumed meanwhile; doom executes at the next step.
  }
  Restart(id, RestartCause::kWound);
}

TxnCensus ClosedSystem::CountedCensus() const {
  TxnCensus census;
  census.total = static_cast<int64_t>(txns_.size());
  census.ready = StateCount(TxnState::kReady);
  census.running = StateCount(TxnState::kRunning);
  census.blocked = StateCount(TxnState::kBlocked);
  census.thinking = StateCount(TxnState::kIntThink);
  census.restart_delay = StateCount(TxnState::kRestartDelay);
  census.ready_queue = static_cast<int64_t>(ready_queue_.size());
  census.active = active_count_;
  return census;
}

TxnCensus ClosedSystem::WalkedCensus() const {
  TxnCensus census;
  census.total = static_cast<int64_t>(txns_.size());
  txns_.ForEach([&](TxnId id, const Txn& txn) {
    (void)id;
    switch (txn.state) {
      case TxnState::kReady: ++census.ready; break;
      case TxnState::kRunning: ++census.running; break;
      case TxnState::kBlocked: ++census.blocked; break;
      case TxnState::kIntThink: ++census.thinking; break;
      case TxnState::kRestartDelay: ++census.restart_delay; break;
    }
  });
  census.ready_queue = static_cast<int64_t>(ready_queue_.size());
  census.active = active_count_;
  return census;
}

const Auditor* ClosedSystem::auditor() const {
  return audit_ != nullptr ? &audit_->auditor() : nullptr;
}

void ClosedSystem::AuditFinal() {
  if (audit_ != nullptr) audit_->Final();
}

const StatsRegistry* ClosedSystem::stats_registry() const {
  return obs_ != nullptr ? obs_->registry() : nullptr;
}

ClosedSystem::Txn& ClosedSystem::GetTxn(TxnId id) {
  Txn* txn = txns_.Find(id);
  CCSIM_CHECK(txn != nullptr) << "unknown txn " << id;
  return *txn;
}

bool ClosedSystem::IsCurrent(TxnId id, int incarnation) const {
  const Txn* txn = txns_.Find(id);
  return txn != nullptr && txn->incarnation == incarnation;
}

void ClosedSystem::SetMpl(int new_mpl) {
  CCSIM_CHECK_GE(new_mpl, 1);
  mpl_ = new_mpl;
  TryActivate();
}

void ClosedSystem::ResetMeasurement() {
  measured_blocks_ = 0;
  measured_response_.Reset();
  measured_response_hist_ = Histogram(0.0, 600.0, 6000);
  class_totals_.assign(class_totals_.size(), ClassTotals());
  // Fresh interval estimators: a second RunExperiment must not inherit the
  // previous measurement's batches.
  estimators_ = Estimators();
  active_mpl_.ResetWindow(sim_->Now());
  Emit(EngineEventKind::kMeasureReset);
}

void ClosedSystem::CloseBatch(SimTime batch_length) {
  SimTime now = sim_->Now();
  double seconds = ToSeconds(batch_length);
  Estimators& e = estimators_;
  e.throughput.AddBatch(static_cast<double>(batch_.commits) / seconds);
  if (batch_.response.count() > 0) {
    e.response.AddBatch(batch_.response.Mean());
  }
  if (batch_.commits > 0) {
    e.block_ratio.AddBatch(static_cast<double>(batch_.blocks) /
                           static_cast<double>(batch_.commits));
    e.restart_ratio.AddBatch(static_cast<double>(batch_.restarts) /
                             static_cast<double>(batch_.commits));
  }
  e.disk_total.AddBatch(resources_.DiskUtilization(now));
  e.cpu_total.AddBatch(resources_.CpuUtilization(now));
  e.log.AddBatch(resources_.LogUtilization(now));
  if (!config_.resources.infinite) {
    double disk_capacity =
        seconds * static_cast<double>(config_.resources.num_disks);
    double cpu_capacity =
        seconds * static_cast<double>(config_.resources.num_cpus);
    e.disk_useful.AddBatch(ToSeconds(batch_.useful_disk) / disk_capacity);
    e.cpu_useful.AddBatch(ToSeconds(batch_.useful_cpu) / cpu_capacity);
  }
  measured_blocks_ += batch_.blocks;
}

MetricsReport ClosedSystem::RunExperiment(int batches, SimTime batch_length,
                                          SimTime warmup) {
  CCSIM_CHECK_GE(batches, 1);
  CCSIM_CHECK_GT(batch_length, 0);
  if (!primed_) Prime();

  sim_->RunUntil(sim_->Now() + warmup);
  ResetMeasurement();
  for (int b = 0; b < batches; ++b) {
    batch_ = BatchWindow();
    resources_.ResetWindow(sim_->Now());
    sim_->RunUntil(sim_->Now() + batch_length);
    CloseBatch(batch_length);
  }

  MetricsReport report;
  report.algorithm = cc_->name();
  report.mpl = mpl_;
  report.throughput = estimators_.throughput.Estimate();
  report.response_mean = estimators_.response.Estimate();
  report.response_stddev = measured_response_.StdDev();
  report.response_p50 = measured_response_hist_.Quantile(0.50);
  report.response_p90 = measured_response_hist_.Quantile(0.90);
  report.response_p99 = measured_response_hist_.Quantile(0.99);
  report.response_max = measured_response_.Max();
  report.block_ratio = estimators_.block_ratio.Estimate();
  report.restart_ratio = estimators_.restart_ratio.Estimate();
  report.disk_util_total = estimators_.disk_total.Estimate();
  report.disk_util_useful = estimators_.disk_useful.Estimate();
  report.cpu_util_total = estimators_.cpu_total.Estimate();
  report.cpu_util_useful = estimators_.cpu_useful.Estimate();
  report.log_util = estimators_.log.Estimate();
  report.avg_active_mpl = active_mpl_.Average(sim_->Now());
  report.blocks = measured_blocks_;
  report.measured_seconds = ToSeconds(batch_length) * batches;
  report.batches = batches;
  report.cc_stats = cc_->stats();
  // The Perfetto exporter closes at run end; the pools stop reporting first.
  if (obs_ != nullptr && obs_->span_sink() != nullptr) {
    resources_.AttachSpanSink(nullptr);
  }
  // Runs the auditor's end-of-run checks, then writes the obs artifacts.
  Emit(EngineEventKind::kRunEnd);
  if (audit_ != nullptr) {
    const Auditor& auditor = audit_->auditor();
    report.audited = true;
    report.audit_violations = auditor.violation_count();
    report.audit_checks = auditor.checks_performed();
    report.replay_digest = auditor.digest();
  }
  if (obs_ != nullptr) obs_->Report(&report.phases, &report.blame);
  for (size_t i = 0; i < class_totals_.size(); ++i) {
    const ClassTotals& totals = class_totals_[i];
    ClassMetrics metrics;
    metrics.name = config_.workload.ClassName(static_cast<int>(i));
    metrics.commits = totals.commits;
    metrics.restarts = totals.restarts;
    metrics.response_mean = totals.response.Mean();
    metrics.response_stddev = totals.response.StdDev();
    metrics.response_max = totals.response.Max();
    report.commits += totals.commits;
    report.restarts += totals.restarts;
    report.per_class.push_back(std::move(metrics));
  }
  return report;
}

std::string ClosedSystem::DescribeCensus() const {
  return StringPrintf(
      "census: %lld running, %lld blocked, %lld in internal think, "
      "%lld in restart delay, %lld ready (active=%d, lifetime commits=%lld, "
      "restarts=%lld)",
      static_cast<long long>(StateCount(TxnState::kRunning)),
      static_cast<long long>(StateCount(TxnState::kBlocked)),
      static_cast<long long>(StateCount(TxnState::kIntThink)),
      static_cast<long long>(StateCount(TxnState::kRestartDelay)),
      static_cast<long long>(StateCount(TxnState::kReady)), active_count_,
      static_cast<long long>(lifetime_commits_),
      static_cast<long long>(lifetime_restarts_));
}

}  // namespace ccsim
