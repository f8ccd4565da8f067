#include "obs/obs_listener.h"

#include "util/check.h"

namespace ccsim {

namespace {

/// Hot-granule sketch size: far above any workload's true heavy-hitter count
/// yet O(1) memory regardless of db_size (obs/contention.h).
constexpr size_t kHotGranuleCapacity = 4096;
/// Rows written to the hot_<algo>_mpl<N>.csv table.
constexpr size_t kHotGranuleTopK = 64;
/// Chain-depth walks stop here; a depth this large means a waits-for cycle
/// whose victim has not been chosen yet.
constexpr int kMaxChainWalk = 64;

bool IsCpuService(ServiceKind kind) {
  return kind == ServiceKind::kCcCpu || kind == ServiceKind::kReadCpu ||
         kind == ServiceKind::kWriteCpu;
}

}  // namespace

ObsListener::ObsListener(Simulator* sim, const ObsConfig& config,
                         std::unique_ptr<StatsRegistry> registry,
                         const CCStats* cc_stats)
    : sim_(sim),
      config_(config),
      registry_(std::move(registry)),
      contention_(kHotGranuleCapacity) {
  // Engine counters (cumulative; the sampler records them per tick so the
  // time series shows rates as slopes). A braced list registers left to
  // right, in enum order.
  commits_ = registry_->AddCounter("commits");
  restarts_ = {registry_->AddCounter("restarts_wound"),
               registry_->AddCounter("restarts_decision"),
               registry_->AddCounter("restarts_validation")};
  decisions_ = {registry_->AddCounter("cc_granted"),
                registry_->AddCounter("cc_blocked"),
                registry_->AddCounter("cc_denied")};
  wasted_cpu_us_ = registry_->AddCounter("wasted_cpu_us");
  wasted_disk_us_ = registry_->AddCounter("wasted_disk_us");
  // Generic cc-algorithm gauges over CCStats (every algorithm); the engine
  // registers the algorithm's own instruments after these.
  auto stat = [cc_stats](int64_t CCStats::*field) {
    return [cc_stats, field] { return static_cast<double>(cc_stats->*field); };
  };
  registry_->AddGauge("cc_deadlocks", stat(&CCStats::deadlocks_detected));
  registry_->AddGauge("cc_lock_conflicts", stat(&CCStats::lock_conflicts));
  registry_->AddGauge("cc_validation_failures",
                      stat(&CCStats::validation_failures));
  registry_->AddGauge("cc_wounds", stat(&CCStats::wounds));
  registry_->AddGauge("cc_ts_rejections", stat(&CCStats::timestamp_rejections));
  // Blame / contention telemetry (obs/blame.h, obs/contention.h).
  chain_depth_hist_ =
      registry_->AddHistogram("block_chain_depth", 1.0, 33.0, 32);
  genealogy_hist_ =
      registry_->AddHistogram("restart_genealogy", 1.0, 33.0, 32);

  if (config_.TracingOn()) {
    CCSIM_CHECK(!config_.trace_path.empty())
        << "tracing requested but no trace_path/trace_dir configured";
    trace_writer_ = std::make_unique<TraceEventWriter>(config_.trace_path);
    CCSIM_CHECK(trace_writer_->ok())
        << "cannot open trace file " << config_.trace_path;
    perfetto_ = std::make_unique<EngineTracer>(trace_writer_.get());
  }
}

void ObsListener::OnEvent(const EngineEvent& event) {
  switch (event.kind) {
    case EngineEventKind::kSubmit:
      txns_.Insert(event.txn).ready_since = event.time;
      break;
    case EngineEventKind::kActivate: {
      TxnObs& txn = txns_.At(event.txn);
      txn.ph.ready += event.time - txn.ready_since;
      txn.ph.cc_block = 0;
      txn.ph.cpu = 0;
      txn.ph.disk = 0;
      txn.ph.res_wait = 0;
      txn.ph.think = 0;
      txn.incarnation_start = event.time;
      txn.opponent = kInvalidTxn;
      txn.block_opponent = kInvalidTxn;
      txn.block_charges.clear();
      break;
    }
    case EngineEventKind::kCcDecision:
      if (event.op != CcOp::kValidate) {
        decisions_[static_cast<size_t>(event.decision)]->Inc();
      }
      break;
    case EngineEventKind::kBlock:
      OnBlock(event);
      return;  // OnBlock hands the trace exporter its own copy.
    case EngineEventKind::kResume: {
      TxnObs& txn = txns_.At(event.txn);
      const SimTime blocked = event.time - txn.blocked_since;
      txn.ph.cc_block += blocked;
      txn.block_charges.emplace_back(txn.block_opponent, blocked);
      txn.block_opponent = kInvalidTxn;
      waits_for_.Erase(event.txn);
      break;
    }
    case EngineEventKind::kServiceDone: {
      TxnObs& txn = txns_.At(event.txn);
      (IsCpuService(event.service) ? txn.ph.cpu : txn.ph.disk) +=
          event.duration;
      // Whatever elapsed beyond pure service time was spent queued for the
      // resource (FCFS server pools, res/server_pool.h).
      txn.ph.res_wait += (event.time - event.requested_at) - event.duration;
      break;
    }
    case EngineEventKind::kThinkEnd:
      txns_.At(event.txn).ph.think += event.duration;
      break;
    case EngineEventKind::kCommit:
      OnCommit(event);
      break;
    case EngineEventKind::kRestart:
      OnRestart(event);
      break;
    case EngineEventKind::kBlame: {
      contention_.Record(event.object, event.blame);
      TxnObs& victim = txns_.At(event.txn);
      if (event.blame == BlameKind::kBlock) {
        victim.block_opponent = event.opponent;
      } else {
        victim.opponent = event.opponent;
      }
      break;
    }
    case EngineEventKind::kRunStart:
      if (config_.SamplingOn()) {
        CCSIM_CHECK(!config_.sample_path.empty())
            << "sampling requested but no sample_path/sample_dir configured";
        sampler_ = std::make_unique<TimeSeriesSampler>(
            sim_, registry_.get(), config_.sample_path,
            config_.sample_interval);
        CCSIM_CHECK(sampler_->ok())
            << "cannot open time-series csv " << config_.sample_path;
        sampler_->Start();
      }
      break;
    case EngineEventKind::kMeasureReset:
      sums_ = PhaseSums{};
      measured_commits_ = 0;
      blame_ledger_.Reset();
      contention_.Reset();
      break;
    case EngineEventKind::kRunEnd:
      FinishArtifacts(event.time);
      break;
    default:
      break;
  }
  if (perfetto_ != nullptr) perfetto_->OnEvent(event);
}

void ObsListener::OnBlock(const EngineEvent& event) {
  TxnObs& txn = txns_.At(event.txn);
  txn.blocked_since = event.time;
  EngineEvent traced = event;
  const TxnId opponent = txn.block_opponent;
  if (opponent != kInvalidTxn && opponent != event.txn) {
    waits_for_.Upsert(event.txn) = opponent;
    traced.opponent = opponent;
  }
  // Chain depth = waits-for edges reachable from this transaction through
  // opponents that are themselves blocked. An unknown opponent still counts
  // as one edge: the transaction does wait behind *someone*.
  int depth = 0;
  TxnId cursor = event.txn;
  for (int hops = 0; hops < kMaxChainWalk; ++hops) {
    const TxnId* next = waits_for_.Find(cursor);
    if (next == nullptr) break;
    ++depth;
    cursor = *next;
    if (cursor == event.txn) break;  // A deadlock awaiting its victim.
  }
  if (depth == 0) depth = 1;
  chain_depth_hist_->Add(static_cast<double>(depth));
  if (perfetto_ != nullptr) perfetto_->OnEvent(traced);
}

void ObsListener::OnCommit(const EngineEvent& event) {
  TxnObs& txn = txns_.At(event.txn);
  commits_->Inc();
  ++measured_commits_;
  // Phase decomposition of the full response, folded at commit so the sums
  // cover exactly the measured population. The final incarnation's active
  // time that no bucket claims (group-commit window waits, zero-delay
  // scheduling hops) lands in `other`, keeping the identity
  //   response = ready + restart_delay + wasted + cc_block + cpu + disk
  //            + res_wait + think + other
  // exact in integer microseconds.
  const PhaseSums& ph = txn.ph;
  sums_.ready += ph.ready;
  sums_.restart_delay += ph.restart_delay;
  sums_.wasted += ph.wasted;
  sums_.cc_block += ph.cc_block;
  sums_.cpu += ph.cpu;
  sums_.disk += ph.disk;
  sums_.res_wait += ph.res_wait;
  sums_.think += ph.think;
  sums_.other += (event.time - txn.incarnation_start) -
                 (ph.cc_block + ph.cpu + ph.disk + ph.res_wait + ph.think);
  // Blame folds at the same instant as the phase sums, over the same
  // charges that produced ph.wasted / ph.cc_block, so attribution and phase
  // totals agree in exact integer µs (obs/blame.h).
  for (const auto& [aborter, us] : txn.wasted_charges) {
    blame_ledger_.ChargeWasted(aborter, us);
  }
  for (const auto& [holder, us] : txn.block_charges) {
    blame_ledger_.ChargeBlocked(holder, us);
  }
  blame_ledger_.AddGenealogy(event.incarnation);
  genealogy_hist_->Add(static_cast<double>(event.incarnation));
  txns_.Erase(event.txn);
}

void ObsListener::OnRestart(const EngineEvent& event) {
  TxnObs& txn = txns_.At(event.txn);
  // The whole aborted incarnation is wasted work, wall-to-wall: service,
  // waits, and thinks alike are repeated by the replay.
  const SimTime wasted = event.time - txn.incarnation_start;
  txn.ph.wasted += wasted;
  // Charge the incarnation to the opponent of the conflict that killed it
  // (kInvalidTxn when the algorithm could not name one); the charge folds
  // only if this transaction eventually commits in the window, mirroring
  // ph.wasted exactly.
  txn.wasted_charges.emplace_back(txn.opponent, wasted);
  waits_for_.Erase(event.txn);
  restarts_[static_cast<size_t>(event.cause)]->Inc();
  wasted_cpu_us_->Add(event.cpu_used);
  wasted_disk_us_->Add(event.disk_used);
  // The engine re-queues the transaction exactly when the delay expires.
  txn.ph.restart_delay += event.duration;
  txn.ready_since = event.time + event.duration;
}

void ObsListener::FinishArtifacts(SimTime now) {
  if (sampler_ != nullptr) {
    CCSIM_CHECK(sampler_->Finish())
        << "failed writing time-series csv " << config_.sample_path;
    sampler_.reset();
  }
  if (perfetto_ != nullptr) {
    perfetto_->FlushOpen(now);
    perfetto_.reset();
    CCSIM_CHECK(trace_writer_->Finish())
        << "failed writing trace file " << config_.trace_path;
    trace_writer_.reset();
  }
  if (!config_.hot_path.empty()) {
    CCSIM_CHECK(contention_.WriteCsv(config_.hot_path, kHotGranuleTopK))
        << "failed writing hot-granule csv " << config_.hot_path;
  }
}

void ObsListener::Report(PhaseBreakdown* phases, BlameBreakdown* blame) const {
  phases->collected = true;
  if (measured_commits_ > 0) {
    const double n = static_cast<double>(measured_commits_);
    phases->ready = ToSeconds(sums_.ready) / n;
    phases->cc_block = ToSeconds(sums_.cc_block) / n;
    phases->cpu = ToSeconds(sums_.cpu) / n;
    phases->disk = ToSeconds(sums_.disk) / n;
    phases->resource_wait = ToSeconds(sums_.res_wait) / n;
    phases->think = ToSeconds(sums_.think) / n;
    phases->restart_delay = ToSeconds(sums_.restart_delay) / n;
    phases->wasted = ToSeconds(sums_.wasted) / n;
    phases->other = ToSeconds(sums_.other) / n;
  }
  *blame = blame_ledger_.Finish(sums_.wasted, sums_.cc_block);
}

}  // namespace ccsim
