#include "verify/mutant.h"

#include <string>

#include "cc/factory.h"

namespace ccsim {
namespace verify {

namespace {

/// No concurrency control at all: the "algorithm" a correct oracle must
/// reject on any conflicting workload.
class IgnoreConflictsMutant : public ConcurrencyControl {
 public:
  std::string name() const override { return "mutant_ignore_conflicts"; }
  void OnBegin(TxnId txn, SimTime first_start,
               SimTime incarnation_start) override {
    (void)txn;
    (void)first_start;
    (void)incarnation_start;
  }
  CCDecision ReadRequest(TxnId txn, ObjectId obj) override {
    (void)txn;
    (void)obj;
    return CCDecision::kGranted;
  }
  CCDecision WriteRequest(TxnId txn, ObjectId obj) override {
    (void)txn;
    (void)obj;
    return CCDecision::kGranted;
  }
  bool Validate(TxnId txn) override {
    (void)txn;
    return true;
  }
  void Commit(TxnId txn) override { (void)txn; }
  void Abort(TxnId txn) override { (void)txn; }
};

/// The real blocking algorithm with its grant wire cut: the lock table hands
/// the lock over, the engine never hears about it.
class DropGrantMutant : public ConcurrencyControl, private CCEngine {
 public:
  explicit DropGrantMutant(int drops)
      : inner_(MakeConcurrencyControl("blocking")), drops_remaining_(drops) {}

  std::string name() const override { return "mutant_drop_grant"; }

  void OnBegin(TxnId txn, SimTime first_start,
               SimTime incarnation_start) override {
    EnsureWired();
    inner_->OnBegin(txn, first_start, incarnation_start);
  }
  bool needs_predeclaration() const override {
    return inner_->needs_predeclaration();
  }
  CCDecision Predeclare(TxnId txn, const std::vector<ObjectId>& reads,
                        const std::vector<ObjectId>& writes) override {
    EnsureWired();
    return inner_->Predeclare(txn, reads, writes);
  }
  CCDecision ReadRequest(TxnId txn, ObjectId obj) override {
    EnsureWired();
    return inner_->ReadRequest(txn, obj);
  }
  CCDecision WriteRequest(TxnId txn, ObjectId obj) override {
    EnsureWired();
    return inner_->WriteRequest(txn, obj);
  }
  bool Validate(TxnId txn) override { return inner_->Validate(txn); }
  void Commit(TxnId txn) override { inner_->Commit(txn); }
  void Abort(TxnId txn) override { inner_->Abort(txn); }
  void RegisterStats(StatsRegistry* registry) override {
    inner_->RegisterStats(registry);
  }
  void SetAuditor(Auditor* auditor) override { inner_->SetAuditor(auditor); }
  bool AuditTracksWaiter(TxnId txn) const override {
    return inner_->AuditTracksWaiter(txn);
  }
  void AuditCheck() const override { inner_->AuditCheck(); }

 private:
  /// SetCallbacks is non-virtual (it only stores), so the engine's handle
  /// lands in this wrapper; the first transaction hands the inner algorithm
  /// one on this mutant, which forwards every signal but the dropped grants.
  void EnsureWired() {
    if (wired_) return;
    wired_ = true;
    CCCallbacks wrapped = callbacks_;
    wrapped.engine = this;
    inner_->SetCallbacks(wrapped);
  }

  void OnGranted(TxnId txn) override {
    if (drops_remaining_ > 0) {
      --drops_remaining_;
      return;  // Lost wakeup: the waiter never resumes.
    }
    callbacks_.on_granted(txn);
  }
  void OnWound(TxnId txn) override { callbacks_.on_wound(txn); }
  SimTime Now() const override { return callbacks_.now(); }
  void OnVersionRead(TxnId txn, ObjectId obj, TxnId writer) override {
    callbacks_.on_version_read(txn, obj, writer);
  }
  void OnBlame(TxnId victim, TxnId opponent, ObjectId obj,
               BlameKind kind) override {
    callbacks_.on_blame(victim, opponent, obj, kind);
  }

  std::unique_ptr<ConcurrencyControl> inner_;
  int drops_remaining_;
  bool wired_ = false;
};

}  // namespace

std::unique_ptr<ConcurrencyControl> MakeIgnoreConflictsMutant() {
  return std::make_unique<IgnoreConflictsMutant>();
}

std::unique_ptr<ConcurrencyControl> MakeDropGrantMutant(int drops) {
  return std::make_unique<DropGrantMutant>(drops);
}

}  // namespace verify
}  // namespace ccsim
