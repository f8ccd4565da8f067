#include "core/closed_system.h"

#include <algorithm>
#include <utility>

#include "sim/choice.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/str.h"

namespace ccsim {

namespace {

/// The engine's random streams are derived from the master seed in a fixed
/// order (0 = workload specs, 1 = think times, 2 = disk choice, 3 = restart
/// delays), so runs are a pure function of the seed.
Rng NthStream(uint64_t seed, int n) {
  RngFactory factory(seed);
  Rng stream = factory.MakeStream();
  for (int i = 0; i < n; ++i) stream = factory.MakeStream();
  return stream;
}

/// Hot-granule sketch size: far above any workload's true heavy-hitter count
/// yet O(1) memory regardless of db_size (obs/contention.h).
constexpr size_t kHotGranuleCapacity = 4096;
/// Rows written to the hot_<algo>_mpl<N>.csv table.
constexpr size_t kHotGranuleTopK = 64;
/// Chain-depth walks stop here; a depth this large means a waits-for cycle
/// whose victim has not been chosen yet.
constexpr int kMaxChainWalk = 64;

}  // namespace

ClosedSystem::ClosedSystem(Simulator* sim, const EngineConfig& config)
    : sim_(sim),
      config_(config),
      mpl_(config.workload.mpl),
      workload_(config.workload, NthStream(config.seed, 0),
                NthStream(config.seed, 1)),
      resources_(sim, config.resources, NthStream(config.seed, 2), this),
      cc_(config.cc_factory
              ? config.cc_factory(config)
              : MakeConcurrencyControl(config.algorithm,
                                       config.victim_policy)),
      restart_policy_(
          config.restart_delay_mode.value_or(
              DefaultRestartDelayMode(config.algorithm)),
          config.fixed_restart_delay, BootstrapResponseSeconds()),
      delay_rng_(NthStream(config.seed, 3)),
      arrival_rng_(NthStream(config.seed, 4)),
      buffer_rng_(NthStream(config.seed, 5)),
      active_mpl_(sim->Now()) {
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
  // the same simulated instant, forever.
  if (config_.algorithm == "immediate_restart" ||
      config_.algorithm == "wait_die") {
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
  waits_for_obs_.Reserve(static_cast<size_t>(config_.workload.mpl));
  terminal_commits_.assign(
      static_cast<size_t>(std::max(config_.workload.num_terms, 1)), 0);
  class_response_.resize(static_cast<size_t>(config_.workload.ClassCount()));
  class_commits_.assign(class_response_.size(), 0);
  class_restarts_.assign(class_response_.size(), 0);
  CCCallbacks callbacks{
      [this](TxnId id) { OnGranted(id); },
      [this](TxnId id) { OnWound(id); },
      [this]() { return sim_->Now(); },
      nullptr,
      nullptr,
  };
  if (config_.record_history) {
    callbacks.on_version_read = [this](TxnId id, ObjectId obj, TxnId writer) {
      history_.RecordVersionRead(id, GetTxn(id).incarnation, obj, writer);
    };
  }
  if (config_.obs.enabled) {
    callbacks.on_blame = [this](TxnId victim, TxnId opponent, ObjectId obj,
                                BlameKind kind) {
      OnBlame(victim, opponent, obj, kind);
    };
  }
  cc_->SetCallbacks(std::move(callbacks));
  if (config_.audit) {
    auditor_ = std::make_unique<Auditor>(AuditorOptions{},
                                         [this] { return sim_->Now(); });
    cc_->SetAuditor(auditor_.get());
  }
  if (config_.lifecycle_sink != nullptr) trace_ = config_.lifecycle_sink;
  SetupObservability();
}

void ClosedSystem::SetupObservability() {
  obs_on_ = config_.obs.enabled;
  if (!obs_on_) return;
  // Direct construction (tests, examples) may carry unresolved directory
  // fields; the experiment runner resolves per-point paths up front, in
  // which case this is a no-op.
  ResolveObsPaths(&config_.obs, config_.algorithm, config_.workload.mpl,
                  config_.seed);

  registry_ = std::make_unique<StatsRegistry>();
  // Engine gauges: the population split the paper's dynamics arguments are
  // about. Gauges are evaluated only when the sampler fires.
  registry_->AddGauge("ready_queue", [this] {
    return static_cast<double>(ready_queue_.size());
  });
  registry_->AddGauge("active", [this] {
    return static_cast<double>(active_count_);
  });
  registry_->AddGauge("blocked", [this] {
    return static_cast<double>(StateCount(TxnState::kBlocked));
  });
  registry_->AddGauge("thinking", [this] {
    return static_cast<double>(StateCount(TxnState::kIntThink));
  });
  registry_->AddGauge("restart_delay", [this] {
    return static_cast<double>(StateCount(TxnState::kRestartDelay));
  });
  // Engine counters (cumulative; the sampler records them per tick so the
  // time series shows rates as slopes).
  ctr_commits_ = registry_->AddCounter("commits");
  ctr_restarts_wound_ = registry_->AddCounter("restarts_wound");
  ctr_restarts_decision_ = registry_->AddCounter("restarts_decision");
  ctr_restarts_validation_ = registry_->AddCounter("restarts_validation");
  ctr_cc_granted_ = registry_->AddCounter("cc_granted");
  ctr_cc_blocked_ = registry_->AddCounter("cc_blocked");
  ctr_cc_denied_ = registry_->AddCounter("cc_denied");
  ctr_wasted_cpu_us_ = registry_->AddCounter("wasted_cpu_us");
  ctr_wasted_disk_us_ = registry_->AddCounter("wasted_disk_us");
  // Generic cc-algorithm gauges over CCStats (every algorithm), then the
  // algorithm's own instruments (lock-table occupancy, deadlock searches,
  // cycle lengths, ...).
  const CCStats* cc_stats = &cc_->stats();
  registry_->AddGauge("cc_deadlocks", [cc_stats] {
    return static_cast<double>(cc_stats->deadlocks_detected);
  });
  registry_->AddGauge("cc_lock_conflicts", [cc_stats] {
    return static_cast<double>(cc_stats->lock_conflicts);
  });
  registry_->AddGauge("cc_validation_failures", [cc_stats] {
    return static_cast<double>(cc_stats->validation_failures);
  });
  registry_->AddGauge("cc_wounds", [cc_stats] {
    return static_cast<double>(cc_stats->wounds);
  });
  registry_->AddGauge("cc_ts_rejections", [cc_stats] {
    return static_cast<double>(cc_stats->timestamp_rejections);
  });
  // Blame / contention telemetry (obs/blame.h, obs/contention.h).
  chain_depth_hist_ =
      registry_->AddHistogram("block_chain_depth", 1.0, 33.0, 32);
  genealogy_hist_ =
      registry_->AddHistogram("restart_genealogy", 1.0, 33.0, 32);
  contention_ = std::make_unique<ContentionProfiler>(kHotGranuleCapacity);
  cc_->RegisterStats(registry_.get());
  resources_.RegisterStats(registry_.get());

  if (config_.obs.TracingOn()) {
    CCSIM_CHECK(!config_.obs.trace_path.empty())
        << "tracing requested but no trace_path/trace_dir configured";
    trace_writer_ = std::make_unique<TraceEventWriter>(config_.obs.trace_path);
    CCSIM_CHECK(trace_writer_->ok())
        << "cannot open trace file " << config_.obs.trace_path;
    perfetto_ = std::make_unique<EngineTracer>(trace_writer_.get());
    resources_.AttachSpanSink(perfetto_.get());
  }
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
  if (obs_on_ && config_.obs.SamplingOn()) {
    CCSIM_CHECK(!config_.obs.sample_path.empty())
        << "sampling requested but no sample_path/sample_dir configured";
    sampler_ = std::make_unique<TimeSeriesSampler>(
        sim_, registry_.get(), config_.obs.sample_path,
        config_.obs.sample_interval);
    CCSIM_CHECK(sampler_->ok())
        << "cannot open time-series csv " << config_.obs.sample_path;
    sampler_->Start();
  }
  if (config_.source_mode == SourceMode::kOpen) {
    ScheduleNextArrival();
    return;
  }
  for (int terminal = 0; terminal < config_.workload.num_terms; ++terminal) {
    SimTime think = workload_.NextExternalThink();
    sim_->Schedule(think, [this, terminal] { SubmitFromTerminal(terminal); });
  }
}

void ClosedSystem::ScheduleNextArrival() {
  SimTime gap = FromSeconds(arrival_rng_.Exponential(1.0 / config_.arrival_rate));
  sim_->Schedule(gap, [this] {
    ScheduleNextArrival();
    SubmitFromTerminal(/*terminal=*/-1);
  });
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
  if (obs_on_) txn.ready_since = sim_->Now();
  Trace(txn, TxnEvent::kSubmitted);
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
  if (obs_on_) {
    txn.ph_ready += sim_->Now() - txn.ready_since;
    txn.ph_cc_block = 0;
    txn.ph_cpu = 0;
    txn.ph_disk = 0;
    txn.ph_res_wait = 0;
    txn.ph_think = 0;
    txn.blame_opponent = kInvalidTxn;
    txn.blame_block_opponent = kInvalidTxn;
    txn.blame_block_charges.clear();
  }
  ++active_count_;
  active_mpl_.Add(sim_->Now(), +1.0);
  if (config_.record_history) history_.RecordActivation(id, txn.incarnation);
  Trace(txn, TxnEvent::kActivated);
  if (auditor_ != nullptr) {
    auditor_->OnTxnAdmitted(id, txn.incarnation);
    AuditFold(AuditOp::kBegin, id, txn.incarnation, 0);
  }
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
    AuditFold(AuditOp::kPredeclare, id, static_cast<int64_t>(decision),
              static_cast<int64_t>(predeclare_reads_.size() +
                                   predeclare_writes_.size()));
    CountDecision(decision);
    switch (decision) {
      case CCDecision::kGranted:
        break;
      case CCDecision::kBlocked:
        SetState(txn, TxnState::kBlocked);
        if (obs_on_) {
          txn.blocked_since = sim_->Now();
          RecordBlockedEdge(id, sim_->Now());
        }
        ++batch_blocks_;
        ++measured_blocks_;
        Trace(txn, TxnEvent::kBlocked);
        AuditBlocked(id);
        return;
      case CCDecision::kRestart:
        Restart(id, RestartCause::kDecision);
        return;
    }
  }
  NextStep(id);
}

void ClosedSystem::NextStep(TxnId id) {
  AuditTransition();
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
    AuditFold(write_intent ? AuditOp::kWrite : AuditOp::kRead, id, granule,
              static_cast<int64_t>(decision));
    CountDecision(decision);
    switch (decision) {
      case CCDecision::kGranted:
        if (config_.lock_granule_size > 1) {
          (write_intent ? txn.write_granules : txn.read_granules)
              .insert(granule);
        }
        // History records the read at the grant, not after the read I/O
        // lands: the grant is the instant the cc algorithm fixes which
        // version this read observes. Recording after the I/O would let a
        // newer writer commit (and record its writes) inside the lag, and
        // the conflict checker would misorder the pair.
        if (config_.record_history) {
          history_.RecordRead(id, txn.incarnation, granule, sim_->Now());
        }
        StartAccess(id);
        return;
      case CCDecision::kBlocked:
        SetState(txn, TxnState::kBlocked);
        if (obs_on_) {
          txn.blocked_since = sim_->Now();
          RecordBlockedEdge(id, sim_->Now());
        }
        ++batch_blocks_;
        ++measured_blocks_;
        Trace(txn, TxnEvent::kBlocked);
        AuditBlocked(id);
        return;
      case CCDecision::kRestart:
        Restart(id, RestartCause::kDecision);
        return;
    }
  }

  if (txn.write_index < static_cast<int>(txn.write_set.size())) {
    ObjectId granule =
        GranuleOf(txn.write_set[static_cast<size_t>(txn.write_index)]);
    CCDecision decision = cc_->WriteRequest(id, granule);
    AuditFold(AuditOp::kWrite, id, granule, static_cast<int64_t>(decision));
    CountDecision(decision);
    switch (decision) {
      case CCDecision::kGranted:
        if (config_.lock_granule_size > 1) txn.write_granules.insert(granule);
        StartAccess(id);
        return;
      case CCDecision::kBlocked:
        SetState(txn, TxnState::kBlocked);
        if (obs_on_) {
          txn.blocked_since = sim_->Now();
          RecordBlockedEdge(id, sim_->Now());
        }
        ++batch_blocks_;
        ++measured_blocks_;
        Trace(txn, TxnEvent::kBlocked);
        AuditBlocked(id);
        return;
      case CCDecision::kRestart:
        Restart(id, RestartCause::kDecision);
        return;
    }
  }

  // Validation at the commit point.
  bool valid = cc_->Validate(id);
  AuditFold(AuditOp::kValidate, id, valid ? 1 : 0, 0);
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
  switch (kind) {
    case ServiceKind::kCcCpu:
      txn->cpu_used += service;
      ChargePhase(*txn, &Txn::ph_cpu, service, request.requested_at);
      HandleCcRequest(id);
      return;
    case ServiceKind::kReadDisk:
      txn->disk_used += service;
      ChargePhase(*txn, &Txn::ph_disk, service, request.requested_at);
      Serve(ServiceKind::kReadCpu, id, txn->incarnation,
            config_.workload.obj_cpu);
      return;
    case ServiceKind::kReadCpu:
      txn->cpu_used += service;
      ChargePhase(*txn, &Txn::ph_cpu, service, request.requested_at);
      // The logical read was already recorded at its cc grant.
      ++txn->read_index;
      NextStep(id);
      return;
    case ServiceKind::kWriteCpu:
      txn->cpu_used += service;
      ChargePhase(*txn, &Txn::ph_cpu, service, request.requested_at);
      ++txn->write_index;
      NextStep(id);
      return;
    case ServiceKind::kLog:
      ChargePhase(*txn, &Txn::ph_disk, service, request.requested_at);
      NextUpdate(id);
      return;
    case ServiceKind::kUpdateDisk:
      txn->disk_used += service;
      ChargePhase(*txn, &Txn::ph_disk, service, request.requested_at);
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
  Trace(txn, TxnEvent::kInternalThink);
  int incarnation = txn.incarnation;
  SimTime think = workload_.NextInternalThink();
  txn.pending_event = sim_->Schedule(think, [this, id, incarnation, think] {
    CCSIM_CHECK(IsCurrent(id, incarnation));
    Txn& t = GetTxn(id);
    CCSIM_CHECK(t.state == TxnState::kIntThink);
    t.pending_event = kInvalidEventId;
    t.think_done = true;
    SetState(t, TxnState::kRunning);
    if (obs_on_) t.ph_think += think;
    NextStep(id);
  });
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
        pending_group_flush_ = sim_->Schedule(
            config_.group_commit_window, [this] { FlushGroupCommit(); });
      }
      return;
    }
    Serve(ServiceKind::kLog, id, txn.incarnation, w.log_io);
    return;
  }
  NextUpdate(id);
}

void ClosedSystem::FlushGroupCommit() {
  pending_group_flush_ = kInvalidEventId;
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
  batch_response_.Add(response);
  measured_response_.Add(response);
  measured_response_hist_.Add(response);
  auto class_index = static_cast<size_t>(txn.spec.class_index);
  class_response_[class_index].Add(response);
  ++class_commits_[class_index];
  ++batch_commits_;
  ++measured_commits_;
  ++lifetime_commits_;
  if (txn.terminal >= 0 &&
      txn.terminal < static_cast<int>(terminal_commits_.size())) {
    ++terminal_commits_[static_cast<size_t>(txn.terminal)];
  }
  batch_useful_cpu_ += txn.cpu_used;
  batch_useful_disk_ += txn.disk_used;
  if (progress_ != nullptr) {
    progress_->commits.store(lifetime_commits_, std::memory_order_relaxed);
  }
  if (obs_on_) {
    ctr_commits_->Inc();
    // Phase decomposition of the full response, folded at commit so the sums
    // cover exactly the measured population. The final incarnation's active
    // time that no bucket claims (group-commit window waits, zero-delay
    // scheduling hops) lands in `other`, keeping the identity
    //   response = ready + restart_delay + wasted + cc_block + cpu + disk
    //            + res_wait + think + other
    // exact in integer microseconds.
    phase_sums_.ready += txn.ph_ready;
    phase_sums_.restart_delay += txn.ph_restart_delay;
    phase_sums_.wasted += txn.ph_wasted;
    phase_sums_.cc_block += txn.ph_cc_block;
    phase_sums_.cpu += txn.ph_cpu;
    phase_sums_.disk += txn.ph_disk;
    phase_sums_.res_wait += txn.ph_res_wait;
    phase_sums_.think += txn.ph_think;
    SimTime final_active = sim_->Now() - txn.incarnation_start;
    phase_sums_.other += final_active -
                         (txn.ph_cc_block + txn.ph_cpu + txn.ph_disk +
                          txn.ph_res_wait + txn.ph_think);
    // Blame folds at the same instant as the phase sums, over the same
    // charges that produced ph_wasted / ph_cc_block, so attribution and
    // phase totals agree in exact integer µs (obs/blame.h).
    for (const auto& [aborter, us] : txn.blame_wasted_charges) {
      blame_ledger_.ChargeWasted(aborter, us);
    }
    for (const auto& [holder, us] : txn.blame_block_charges) {
      blame_ledger_.ChargeBlocked(holder, us);
    }
    blame_ledger_.AddGenealogy(txn.incarnation);
    genealogy_hist_->Add(static_cast<double>(txn.incarnation));
  }

  // History records deferred writes at commit, when they become visible, not
  // when the update I/O physically lands. Algorithms that let an *older*
  // reader proceed past a newer transaction's pending write (e.g. basic T/O,
  // where such a read legitimately returns the still-committed value) would
  // otherwise produce apply-before-read op sequences that the single-version
  // conflict checker misreads as writer-before-reader edges — false cycles in
  // a perfectly serializable execution. Writes must land before cc_->Commit:
  // publishing wakes waiting readers synchronously, and their reads of the
  // new value have to sequence after the writes they observe.
  if (config_.record_history) {
    for (ObjectId obj : txn.write_set) {
      history_.RecordWrite(id, txn.incarnation, GranuleOf(obj), sim_->Now());
    }
  }
  cc_->Commit(id);
  if (config_.record_history) history_.RecordCommit(id, txn.incarnation);
  Trace(txn, TxnEvent::kCommitted);
  if (auditor_ != nullptr) {
    AuditFold(AuditOp::kCommit, id, txn.incarnation, 0);
    auditor_->OnTxnFinished(id);
  }

  int terminal = txn.terminal;
  Deactivate();
  --state_counts_[static_cast<size_t>(txn.state)];
  txns_.Erase(id);

  if (config_.source_mode == SourceMode::kClosed) {
    SimTime think = workload_.NextExternalThink();
    sim_->Schedule(think, [this, terminal] { SubmitFromTerminal(terminal); });
  }
  TryActivate();
  AuditTransition();
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
  ++batch_restarts_;
  ++measured_restarts_;
  ++lifetime_restarts_;
  ++class_restarts_[static_cast<size_t>(txn.spec.class_index)];
  if (obs_on_) {
    // The whole aborted incarnation is wasted work, wall-to-wall: service,
    // waits, and thinks alike are repeated by the replay.
    const SimTime wasted = sim_->Now() - txn.incarnation_start;
    txn.ph_wasted += wasted;
    // Charge the incarnation to the opponent of the conflict that killed it
    // (kInvalidTxn when the algorithm could not name one); the charge folds
    // only if this transaction eventually commits in the window, mirroring
    // ph_wasted exactly.
    txn.blame_wasted_charges.emplace_back(txn.blame_opponent, wasted);
    waits_for_obs_.Erase(id);
    switch (cause) {
      case RestartCause::kWound: ctr_restarts_wound_->Inc(); break;
      case RestartCause::kDecision: ctr_restarts_decision_->Inc(); break;
      case RestartCause::kValidation: ctr_restarts_validation_->Inc(); break;
    }
    ctr_wasted_cpu_us_->Add(txn.cpu_used);
    ctr_wasted_disk_us_->Add(txn.disk_used);
  }
  Trace(txn, TxnEvent::kRestarted);

  cc_->Abort(id);
  if (config_.record_history) history_.RecordAbort(id, txn.incarnation);
  if (auditor_ != nullptr) {
    AuditFold(AuditOp::kRestart, id, txn.incarnation, 0);
    auditor_->OnTxnFinished(id);
  }
  Deactivate();

  // Re-entry always goes through an event, even at zero delay. A synchronous
  // re-entry could recurse Restart -> Activate -> conflict -> Restart inside
  // a single event: a zero-delay restart spin (e.g. immediate restart with a
  // conflicting replay and no delay) would then livelock *inside* one event,
  // where neither the event budget nor the wall-clock watchdog (both checked
  // between events, sim/simulator.h RunGuard) could ever interrupt it.
  SimTime delay = restart_policy_.NextDelay(&delay_rng_);
  if (obs_on_) txn.ph_restart_delay += delay;
  SetState(txn, TxnState::kRestartDelay);
  int incarnation = txn.incarnation;
  txn.pending_event = sim_->Schedule(delay, [this, id, incarnation] {
    CCSIM_CHECK(IsCurrent(id, incarnation));
    Txn& t = GetTxn(id);
    CCSIM_CHECK(t.state == TxnState::kRestartDelay);
    t.pending_event = kInvalidEventId;
    SetState(t, TxnState::kReady);
    if (obs_on_) t.ready_since = sim_->Now();
    ready_queue_.push_back(id);
    TryActivate();
  });
  AuditTransition();
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
  int incarnation = txn.incarnation;
  sim_->Schedule(0, [this, id, incarnation] {
    if (!IsCurrent(id, incarnation)) return;  // Restarted meanwhile.
    Txn& t = GetTxn(id);
    t.grant_inflight = false;
    if (t.state != TxnState::kBlocked) return;  // Stale grant.
    SetState(t, TxnState::kRunning);
    if (obs_on_) {
      const SimTime blocked = sim_->Now() - t.blocked_since;
      t.ph_cc_block += blocked;
      t.blame_block_charges.emplace_back(t.blame_block_opponent, blocked);
      t.blame_block_opponent = kInvalidTxn;
      waits_for_obs_.Erase(id);
    }
    Trace(t, TxnEvent::kResumed);
    AuditTransition();
    if (t.doomed) {
      Restart(id, RestartCause::kWound);
      return;
    }
    // Re-issue the pending request rather than assume a grant: for lock
    // algorithms the re-request is idempotently granted (the waiter now
    // holds the lock), while timestamp algorithms re-run their checks and
    // may block again or restart.
    HandleCcRequest(id);
  });
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
    int incarnation = txn.incarnation;
    sim_->Schedule(0, [this, id, incarnation] {
      if (!IsCurrent(id, incarnation)) return;
      Txn& t = GetTxn(id);
      if (!t.doomed) return;
      if (t.state != TxnState::kBlocked && t.state != TxnState::kIntThink) {
        return;  // Resumed meanwhile; doom executes at the next step.
      }
      Restart(id, RestartCause::kWound);
    });
  }
}

namespace {
/// Deep cc-algorithm checks are O(lock table) and the census walk is
/// O(population), so they run on a sampled subset of transitions; the
/// counted census and monotonicity checks run on all.
constexpr int64_t kAuditDeepCheckPeriod = 64;
}  // namespace

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

void ClosedSystem::AuditTransition() {
  if (auditor_ == nullptr) return;
  auditor_->OnEventTime(sim_->Now());
  const TxnCensus census = CountedCensus();
  auditor_->CheckConservation(census);
  if (++audit_transitions_ % kAuditDeepCheckPeriod == 0) {
    // A state write that bypassed SetState leaves the counts permanently
    // off, so this sampled walk (and always the final one) catches it.
    auditor_->CheckCensusAgrees(census, WalkedCensus());
    cc_->AuditCheck();
    // Lost-wakeup check: every blocked transaction must still be tracked as
    // a waiter by the algorithm — unless it is doomed (its abort event is
    // pending) or its grant's zero-delay resume event is in flight.
    txns_.ForEach([&](TxnId id, const Txn& txn) {
      if (txn.state == TxnState::kBlocked && !txn.doomed &&
          !txn.grant_inflight) {
        auditor_->CheckBlockedTracked(id, cc_->AuditTracksWaiter(id));
      }
    });
  }
}

void ClosedSystem::AuditBlocked(TxnId id) {
  if (auditor_ == nullptr) return;
  auditor_->CheckBlockedTracked(id, cc_->AuditTracksWaiter(id));
}

void ClosedSystem::AuditFold(AuditOp op, TxnId id, int64_t a, int64_t b) {
  if (auditor_ == nullptr) return;
  auditor_->FoldOp(static_cast<uint64_t>(op), id, a, b,
                   static_cast<int64_t>(sim_->Now()));
}

void ClosedSystem::AuditFinal() {
  if (auditor_ == nullptr) return;
  cc_->AuditCheck();
  AuditTransition();
  auditor_->CheckCensusAgrees(CountedCensus(), WalkedCensus());
  // Quiescence: with the event queue drained nothing can ever wake a
  // blocked transaction again — each one is permanently stuck.
  if (sim_->pending_events() == 0) {
    std::vector<TxnId> stuck;
    txns_.ForEach([&](TxnId id, const Txn& txn) {
      if (txn.state == TxnState::kBlocked) stuck.push_back(id);
    });
    std::sort(stuck.begin(), stuck.end());
    for (TxnId id : stuck) {
      auditor_->Report(AuditInvariant::kPermanentBlock, id,
                       "blocked transaction outlived the event queue");
    }
  }
}

ClosedSystem::Txn& ClosedSystem::GetTxn(TxnId id) {
  Txn* txn = txns_.Find(id);
  CCSIM_CHECK(txn != nullptr) << "unknown txn " << id;
  return *txn;
}


void ClosedSystem::Trace(const Txn& txn, TxnEvent event) {
  if (trace_ == nullptr && perfetto_ == nullptr) return;
  TraceRecord record{sim_->Now(), txn.id, txn.incarnation, event};
  if (trace_ != nullptr) trace_->Record(record);
  if (perfetto_ != nullptr) perfetto_->Record(record);
}

void ClosedSystem::CountDecision(CCDecision decision) {
  if (ctr_cc_granted_ == nullptr) return;
  switch (decision) {
    case CCDecision::kGranted: ctr_cc_granted_->Inc(); break;
    case CCDecision::kBlocked: ctr_cc_blocked_->Inc(); break;
    case CCDecision::kRestart: ctr_cc_denied_->Inc(); break;
  }
}

void ClosedSystem::ChargePhase(Txn& txn, SimTime Txn::* bucket,
                               SimTime service, SimTime requested_at) {
  if (!obs_on_) return;
  txn.*bucket += service;
  // Whatever elapsed beyond pure service time was spent queued for the
  // resource (FCFS server pools, res/server_pool.h).
  txn.ph_res_wait += (sim_->Now() - requested_at) - service;
}

void ClosedSystem::OnBlame(TxnId victim, TxnId opponent, ObjectId obj,
                           BlameKind kind) {
  contention_->Record(obj, kind);
  Txn& txn = GetTxn(victim);
  if (kind == BlameKind::kBlock) {
    txn.blame_block_opponent = opponent;
  } else {
    txn.blame_opponent = opponent;
  }
}

void ClosedSystem::RecordBlockedEdge(TxnId id, SimTime now) {
  Txn& txn = GetTxn(id);
  const TxnId opponent = txn.blame_block_opponent;
  if (opponent != kInvalidTxn && opponent != id) {
    waits_for_obs_.Upsert(id) = opponent;
    if (perfetto_ != nullptr) perfetto_->OnBlockedBy(id, opponent, now);
  }
  // Chain depth = waits-for edges reachable from this transaction through
  // opponents that are themselves blocked. An unknown opponent still counts
  // as one edge: the transaction does wait behind *someone*.
  int depth = 0;
  TxnId cursor = id;
  for (int hops = 0; hops < kMaxChainWalk; ++hops) {
    const TxnId* next = waits_for_obs_.Find(cursor);
    if (next == nullptr) break;
    ++depth;
    cursor = *next;
    if (cursor == id) break;  // Cycle: a deadlock awaiting victim selection.
  }
  if (depth == 0) depth = 1;
  chain_depth_hist_->Add(static_cast<double>(depth));
}

void ClosedSystem::FinishObsArtifacts() {
  if (!obs_on_) return;
  if (sampler_ != nullptr) {
    CCSIM_CHECK(sampler_->Finish())
        << "failed writing time-series csv " << config_.obs.sample_path;
    sampler_.reset();
  }
  if (perfetto_ != nullptr) {
    perfetto_->FlushOpen(sim_->Now());
    resources_.AttachSpanSink(nullptr);
    perfetto_.reset();
    CCSIM_CHECK(trace_writer_->Finish())
        << "failed writing trace file " << config_.obs.trace_path;
    trace_writer_.reset();
  }
  if (contention_ != nullptr && !config_.obs.hot_path.empty()) {
    CCSIM_CHECK(contention_->WriteCsv(config_.obs.hot_path, kHotGranuleTopK))
        << "failed writing hot-granule csv " << config_.obs.hot_path;
  }
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
  batch_commits_ = 0;
  batch_blocks_ = 0;
  batch_restarts_ = 0;
  batch_useful_cpu_ = 0;
  batch_useful_disk_ = 0;
  batch_response_.Reset();
  measured_commits_ = 0;
  measured_blocks_ = 0;
  measured_restarts_ = 0;
  measured_response_.Reset();
  measured_response_hist_ = Histogram(0.0, 600.0, 6000);
  for (Welford& response : class_response_) response.Reset();
  std::fill(class_commits_.begin(), class_commits_.end(), 0);
  std::fill(class_restarts_.begin(), class_restarts_.end(), 0);
  phase_sums_ = PhaseSums{};
  blame_ledger_.Reset();
  if (contention_ != nullptr) contention_->Reset();
  // Fresh interval estimators: a second RunExperiment must not inherit the
  // previous measurement's batches.
  throughput_bm_ = BatchMeans();
  response_bm_ = BatchMeans();
  block_ratio_bm_ = BatchMeans();
  restart_ratio_bm_ = BatchMeans();
  disk_total_bm_ = BatchMeans();
  disk_useful_bm_ = BatchMeans();
  cpu_total_bm_ = BatchMeans();
  cpu_useful_bm_ = BatchMeans();
  log_bm_ = BatchMeans();
  active_mpl_.ResetWindow(sim_->Now());
  resources_.ResetWindow(sim_->Now());
}

void ClosedSystem::CloseBatch(SimTime batch_length) {
  SimTime now = sim_->Now();
  double seconds = ToSeconds(batch_length);
  throughput_bm_.AddBatch(static_cast<double>(batch_commits_) / seconds);
  if (batch_response_.count() > 0) {
    response_bm_.AddBatch(batch_response_.Mean());
  }
  if (batch_commits_ > 0) {
    block_ratio_bm_.AddBatch(static_cast<double>(batch_blocks_) /
                             static_cast<double>(batch_commits_));
    restart_ratio_bm_.AddBatch(static_cast<double>(batch_restarts_) /
                               static_cast<double>(batch_commits_));
  }
  disk_total_bm_.AddBatch(resources_.DiskUtilization(now));
  cpu_total_bm_.AddBatch(resources_.CpuUtilization(now));
  log_bm_.AddBatch(resources_.LogUtilization(now));
  if (!config_.resources.infinite) {
    double disk_capacity =
        seconds * static_cast<double>(config_.resources.num_disks);
    double cpu_capacity =
        seconds * static_cast<double>(config_.resources.num_cpus);
    disk_useful_bm_.AddBatch(ToSeconds(batch_useful_disk_) / disk_capacity);
    cpu_useful_bm_.AddBatch(ToSeconds(batch_useful_cpu_) / cpu_capacity);
  }
  batch_commits_ = 0;
  batch_blocks_ = 0;
  batch_restarts_ = 0;
  batch_useful_cpu_ = 0;
  batch_useful_disk_ = 0;
  batch_response_.Reset();
  resources_.ResetWindow(now);
}

MetricsReport ClosedSystem::RunExperiment(int batches, SimTime batch_length,
                                          SimTime warmup) {
  CCSIM_CHECK_GE(batches, 1);
  CCSIM_CHECK_GT(batch_length, 0);
  if (!primed_) Prime();

  sim_->RunUntil(sim_->Now() + warmup);
  ResetMeasurement();
  for (int b = 0; b < batches; ++b) {
    sim_->RunUntil(sim_->Now() + batch_length);
    CloseBatch(batch_length);
  }

  MetricsReport report;
  report.algorithm = cc_->name();
  report.mpl = mpl_;
  report.throughput = throughput_bm_.Estimate();
  report.response_mean = response_bm_.Estimate();
  report.response_stddev = measured_response_.StdDev();
  report.response_p50 = measured_response_hist_.Quantile(0.50);
  report.response_p90 = measured_response_hist_.Quantile(0.90);
  report.response_p99 = measured_response_hist_.Quantile(0.99);
  report.response_max = measured_response_.Max();
  report.block_ratio = block_ratio_bm_.Estimate();
  report.restart_ratio = restart_ratio_bm_.Estimate();
  report.disk_util_total = disk_total_bm_.Estimate();
  report.disk_util_useful = disk_useful_bm_.Estimate();
  report.cpu_util_total = cpu_total_bm_.Estimate();
  report.cpu_util_useful = cpu_useful_bm_.Estimate();
  report.log_util = log_bm_.Estimate();
  report.avg_active_mpl = active_mpl_.Average(sim_->Now());
  report.commits = measured_commits_;
  report.restarts = measured_restarts_;
  report.blocks = measured_blocks_;
  report.measured_seconds = ToSeconds(batch_length) * batches;
  report.batches = batches;
  report.cc_stats = cc_->stats();
  if (obs_on_) {
    report.phases.collected = true;
    if (measured_commits_ > 0) {
      double n = static_cast<double>(measured_commits_);
      report.phases.ready = ToSeconds(phase_sums_.ready) / n;
      report.phases.cc_block = ToSeconds(phase_sums_.cc_block) / n;
      report.phases.cpu = ToSeconds(phase_sums_.cpu) / n;
      report.phases.disk = ToSeconds(phase_sums_.disk) / n;
      report.phases.resource_wait = ToSeconds(phase_sums_.res_wait) / n;
      report.phases.think = ToSeconds(phase_sums_.think) / n;
      report.phases.restart_delay = ToSeconds(phase_sums_.restart_delay) / n;
      report.phases.wasted = ToSeconds(phase_sums_.wasted) / n;
      report.phases.other = ToSeconds(phase_sums_.other) / n;
    }
    report.blame = blame_ledger_.Finish(phase_sums_.wasted,
                                        phase_sums_.cc_block);
  }
  AuditFinal();
  if (auditor_ != nullptr) {
    report.audited = true;
    report.audit_violations = auditor_->violation_count();
    report.audit_checks = auditor_->checks_performed();
    report.replay_digest = auditor_->digest();
  }
  FinishObsArtifacts();
  for (size_t i = 0; i < class_response_.size(); ++i) {
    ClassMetrics metrics;
    metrics.name = config_.workload.ClassName(static_cast<int>(i));
    metrics.commits = class_commits_[i];
    metrics.restarts = class_restarts_[i];
    metrics.response_mean = class_response_[i].Mean();
    metrics.response_stddev = class_response_[i].StdDev();
    metrics.response_max = class_response_[i].Max();
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
