#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "alloc_count.h"
#include "cc/factory.h"
#include "util/str.h"

namespace perfbench {

using ccsim::CCDecision;
using ccsim::ConcurrencyControl;
using ccsim::ObjectId;
using ccsim::TraceRecord;
using ccsim::TxnEvent;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void LayerTracer::Record(const TraceRecord& record) {
  ScopedUncounted uncounted;
  ++counts_.lifecycle_records;
  if (record.event == TxnEvent::kActivated) {
    ++counts_.activations;
    const auto slot = static_cast<size_t>(record.txn);
    if (slot >= incarnation_of_.size()) incarnation_of_.resize(slot + 1, 0);
    incarnation_of_[slot] = record.incarnation;
  } else if (record.event == TxnEvent::kBlocked) {
    ++counts_.blocks;
  }
  if (keep_spans_) lifecycle_.push_back(record);
}

int LayerTracer::RegisterTrack(const std::string& name) {
  ScopedUncounted uncounted;
  tracks_.push_back(name);
  return static_cast<int>(tracks_.size()) - 1;
}

void LayerTracer::OnServiceSpan(int track, SimTime start, SimTime duration) {
  ++counts_.services;
  if (!keep_spans_) return;
  ScopedUncounted uncounted;
  service_spans_.push_back(ServiceSpan{track, start, duration});
}

void LayerTracer::OnQueueDepth(int track, SimTime now, int depth) {
  (void)track;
  (void)now;
  (void)depth;
  ++counts_.queue_events;
}

void LayerTracer::RecordCcCall(TxnId txn, CcOp op, CcOutcome outcome,
                               SimTime sim_time, int64_t start_ns,
                               int64_t dur_ns) {
  ++counts_.cc_calls;
  counts_.cc_ns += dur_ns;
  if (outcome != CcOutcome::kNone) {
    ++counts_.cc_decisions;
    if (outcome == CcOutcome::kGranted) ++counts_.cc_granted;
  }
  if (!keep_spans_) return;
  ScopedUncounted uncounted;
  const auto slot = static_cast<size_t>(txn);
  const int32_t incarnation =
      slot < incarnation_of_.size() ? incarnation_of_[slot] : 0;
  cc_spans_.push_back(
      CcSpan{txn, incarnation, op, outcome, sim_time, start_ns, dur_ns});
}

namespace {

CcOutcome OutcomeOf(CCDecision decision) {
  switch (decision) {
    case CCDecision::kGranted: return CcOutcome::kGranted;
    case CCDecision::kBlocked: return CcOutcome::kBlocked;
    case CCDecision::kRestart: return CcOutcome::kRestart;
  }
  return CcOutcome::kNone;
}

/// Times every call into the real algorithm. SetCallbacks and stats() are
/// non-virtual: the engine's callbacks land in this wrapper and are handed
/// to the inner algorithm before its first transaction, and the inner
/// algorithm's counters are copied back after every call.
class TimedCc : public ConcurrencyControl {
 public:
  TimedCc(std::unique_ptr<ConcurrencyControl> inner, LayerTracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  void ReserveCapacity(int64_t num_objects, int num_txns) override {
    inner_->ReserveCapacity(num_objects, num_txns);
  }
  void OnBegin(TxnId txn, SimTime first_start,
               SimTime incarnation_start) override {
    const int64_t start = Start();
    inner_->OnBegin(txn, first_start, incarnation_start);
    Finish(txn, CcOp::kBegin, CcOutcome::kNone, start);
  }
  bool needs_predeclaration() const override {
    return inner_->needs_predeclaration();
  }
  CCDecision Predeclare(TxnId txn, const std::vector<ObjectId>& reads,
                        const std::vector<ObjectId>& writes) override {
    const int64_t start = Start();
    const CCDecision decision = inner_->Predeclare(txn, reads, writes);
    Finish(txn, CcOp::kPredeclare, OutcomeOf(decision), start);
    return decision;
  }
  CCDecision ReadRequest(TxnId txn, ObjectId obj) override {
    const int64_t start = Start();
    const CCDecision decision = inner_->ReadRequest(txn, obj);
    Finish(txn, CcOp::kRead, OutcomeOf(decision), start);
    return decision;
  }
  CCDecision WriteRequest(TxnId txn, ObjectId obj) override {
    const int64_t start = Start();
    const CCDecision decision = inner_->WriteRequest(txn, obj);
    Finish(txn, CcOp::kWrite, OutcomeOf(decision), start);
    return decision;
  }
  bool Validate(TxnId txn) override {
    const int64_t start = Start();
    const bool valid = inner_->Validate(txn);
    Finish(txn, CcOp::kValidate,
           valid ? CcOutcome::kGranted : CcOutcome::kRestart, start);
    return valid;
  }
  void Commit(TxnId txn) override {
    const int64_t start = Start();
    inner_->Commit(txn);
    Finish(txn, CcOp::kCommit, CcOutcome::kNone, start);
  }
  void Abort(TxnId txn) override {
    const int64_t start = Start();
    inner_->Abort(txn);
    Finish(txn, CcOp::kAbort, CcOutcome::kNone, start);
  }
  void RegisterStats(ccsim::StatsRegistry* registry) override {
    inner_->RegisterStats(registry);
  }
  // The audit hooks belong to the audit layer's cost, so they pass through
  // untimed.
  void SetAuditor(ccsim::Auditor* auditor) override {
    inner_->SetAuditor(auditor);
  }
  bool AuditTracksWaiter(TxnId txn) const override {
    return inner_->AuditTracksWaiter(txn);
  }
  void AuditCheck() const override { inner_->AuditCheck(); }

 private:
  int64_t Start() {
    if (!wired_) {
      ScopedUncounted uncounted;  // The decorator's own copy, not the engine's.
      wired_ = true;
      inner_->SetCallbacks(callbacks_);
    }
    return NowNs();
  }
  void Finish(TxnId txn, CcOp op, CcOutcome outcome, int64_t start) {
    const int64_t dur = NowNs() - start;
    stats_ = inner_->stats();
    tracer_->RecordCcCall(txn, op, outcome, callbacks_.now(), start, dur);
  }

  std::unique_ptr<ConcurrencyControl> inner_;
  LayerTracer* tracer_;
  bool wired_ = false;
};

}  // namespace

std::function<std::unique_ptr<ConcurrencyControl>(const ccsim::EngineConfig&)>
TimedCcFactory(LayerTracer* tracer) {
  return [tracer](const ccsim::EngineConfig& config) {
    return std::unique_ptr<ConcurrencyControl>(std::make_unique<TimedCc>(
        ccsim::MakeConcurrencyControl(config.algorithm, config.victim_policy),
        tracer));
  };
}

namespace {

struct Interval {
  SimTime begin = 0;
  SimTime end = 0;
};

uint64_t IncarnationKey(TxnId txn, int32_t incarnation) {
  return (static_cast<uint64_t>(txn) << 24) ^
         static_cast<uint64_t>(incarnation);
}

/// Simulated lifetime of every incarnation; one still running when the
/// run ended closes at `end_time`.
std::unordered_map<uint64_t, Interval> Incarnations(
    const std::vector<TraceRecord>& records, SimTime end_time) {
  std::unordered_map<uint64_t, Interval> lives;
  for (const TraceRecord& r : records) {
    const uint64_t key = IncarnationKey(r.txn, r.incarnation);
    if (r.event == TxnEvent::kActivated) {
      lives[key] = Interval{r.time, end_time};
    } else if (r.event == TxnEvent::kRestarted ||
               r.event == TxnEvent::kCommitted) {
      auto it = lives.find(key);
      if (it != lives.end()) it->second.end = r.time;
    }
  }
  return lives;
}

const char* OpName(CcOp op) {
  switch (op) {
    case CcOp::kBegin: return "begin";
    case CcOp::kPredeclare: return "predeclare";
    case CcOp::kRead: return "read";
    case CcOp::kWrite: return "write";
    case CcOp::kValidate: return "validate";
    case CcOp::kCommit: return "commit";
    case CcOp::kAbort: return "abort";
  }
  return "?";
}

const char* OutcomeName(CcOutcome outcome) {
  switch (outcome) {
    case CcOutcome::kNone: return "-";
    case CcOutcome::kGranted: return "granted";
    case CcOutcome::kBlocked: return "blocked";
    case CcOutcome::kRestart: return "restart";
  }
  return "?";
}

}  // namespace

std::string CheckTrace(const LayerTracer& tracer, int64_t run_wall_ns,
                       SimTime end_time) {
  using ccsim::StringPrintf;
  const LayerCounts& counts = tracer.counts();
  const auto& spans = tracer.cc_spans();
  const auto lives = Incarnations(tracer.lifecycle(), end_time);

  int64_t granted = 0, decisions = 0, span_ns = 0, prev_end_ns = 0;
  for (const CcSpan& span : spans) {
    auto it = lives.find(IncarnationKey(span.txn, span.incarnation));
    if (it == lives.end()) {
      return StringPrintf("cc %s of txn %lld has no incarnation %d span",
                          OpName(span.op), static_cast<long long>(span.txn),
                          span.incarnation);
    }
    if (span.sim_time < it->second.begin || span.sim_time > it->second.end) {
      return StringPrintf(
          "cc %s of txn %lld at %lld us lies outside incarnation %d "
          "[%lld, %lld]",
          OpName(span.op), static_cast<long long>(span.txn),
          static_cast<long long>(span.sim_time), span.incarnation,
          static_cast<long long>(it->second.begin),
          static_cast<long long>(it->second.end));
    }
    if (span.start_ns < prev_end_ns) {
      return "cc spans overlap in host time (a nested cc call)";
    }
    prev_end_ns = span.start_ns + span.dur_ns;
    span_ns += span.dur_ns;
    if (span.outcome != CcOutcome::kNone) ++decisions;
    if (span.outcome == CcOutcome::kGranted) ++granted;
  }

  // The two shares come from different sources: the cc share from the
  // decorator's running counter, the rest from the kept spans.
  const double wall = static_cast<double>(run_wall_ns);
  const double cc_share = static_cast<double>(counts.cc_ns) / wall;
  const double self_share = (wall - static_cast<double>(span_ns)) / wall;
  if (std::abs(cc_share + self_share - 1.0) > 1e-9 || self_share < 0.0) {
    return StringPrintf("cc share %.12f + self share %.12f != 1", cc_share,
                        self_share);
  }

  int64_t activations = 0, blocks = 0;
  for (const TraceRecord& r : tracer.lifecycle()) {
    if (r.event == TxnEvent::kActivated) ++activations;
    if (r.event == TxnEvent::kBlocked) ++blocks;
  }
  struct Pair {
    const char* what;
    int64_t traced, counted;
  };
  const Pair pairs[] = {
      {"cc calls", static_cast<int64_t>(spans.size()), counts.cc_calls},
      {"cc decisions", decisions, counts.cc_decisions},
      {"cc grants", granted, counts.cc_granted},
      {"incarnations", activations, counts.activations},
      {"blocks", blocks, counts.blocks},
      {"lifecycle records", static_cast<int64_t>(tracer.lifecycle().size()),
       counts.lifecycle_records},
      {"services", static_cast<int64_t>(tracer.service_spans().size()),
       counts.services},
  };
  for (const Pair& p : pairs) {
    if (p.traced != p.counted) {
      return StringPrintf("%s: trace holds %lld, counters say %lld", p.what,
                          static_cast<long long>(p.traced),
                          static_cast<long long>(p.counted));
    }
  }
  return "";
}

void WriteTrace(std::FILE* out, int point, const LayerTracer& tracer,
                SimTime end_time) {
  const auto lives = Incarnations(tracer.lifecycle(), end_time);
  // Transaction spans: first submission to commit (or end of run).
  std::unordered_map<TxnId, Interval> txns;
  for (const TraceRecord& r : tracer.lifecycle()) {
    if (r.event == TxnEvent::kSubmitted) txns[r.txn] = {r.time, end_time};
    if (r.event == TxnEvent::kCommitted) txns[r.txn].end = r.time;
  }
  std::vector<std::pair<TxnId, Interval>> sorted(txns.begin(), txns.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [txn, life] : sorted) {
    std::fprintf(out, "txn\t%d\t%lld\t%lld\t%lld\n", point,
                 static_cast<long long>(txn),
                 static_cast<long long>(life.begin),
                 static_cast<long long>(life.end));
  }
  for (const TraceRecord& r : tracer.lifecycle()) {
    if (r.event != TxnEvent::kActivated) continue;
    const Interval& life = lives.at(IncarnationKey(r.txn, r.incarnation));
    std::fprintf(out, "inc\t%d\t%lld\t%d\t%lld\t%lld\n", point,
                 static_cast<long long>(r.txn), r.incarnation,
                 static_cast<long long>(life.begin),
                 static_cast<long long>(life.end));
  }
  for (const CcSpan& s : tracer.cc_spans()) {
    std::fprintf(out, "cc\t%d\t%lld\t%d\t%s\t%s\t%lld\t%lld\t%lld\n", point,
                 static_cast<long long>(s.txn), s.incarnation, OpName(s.op),
                 OutcomeName(s.outcome), static_cast<long long>(s.sim_time),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.dur_ns));
  }
  for (const ServiceSpan& s : tracer.service_spans()) {
    std::fprintf(out, "svc\t%d\t%s\t%lld\t%lld\n", point,
                 tracer.tracks()[static_cast<size_t>(s.track)].c_str(),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.duration));
  }
}

}  // namespace perfbench
