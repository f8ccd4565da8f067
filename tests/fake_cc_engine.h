// Test helper: a CCEngine that records what an algorithm signals — grants,
// wounds, version reads and, when asked, blame — and serves a settable
// clock, so tests drive a concurrency control algorithm directly, without a
// simulator.
#ifndef CCSIM_TESTS_FAKE_CC_ENGINE_H_
#define CCSIM_TESTS_FAKE_CC_ENGINE_H_

#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cc/types.h"

namespace ccsim {

class FakeCCEngine final : public CCEngine {
 public:
  /// With `never_wounds`, a wound fails the test with that message (for
  /// algorithms that must never wound).
  explicit FakeCCEngine(const char* never_wounds = nullptr)
      : never_wounds_(never_wounds) {}
  // An algorithm holds this engine's address.
  FakeCCEngine(const FakeCCEngine&) = delete;
  FakeCCEngine& operator=(const FakeCCEngine&) = delete;

  /// The handle to give an algorithm: every signal reaches this fake; blame
  /// only when `blame` is set.
  CCCallbacks Callbacks(bool blame = false) {
    return {.engine = this, .version_reads = true, .blame = blame};
  }

  void OnGranted(TxnId txn) override { granted.push_back(txn); }
  void OnWound(TxnId txn) override {
    if (never_wounds_ != nullptr) FAIL() << never_wounds_;
    wounded.push_back(txn);
  }
  SimTime Now() const override { return now; }
  void OnVersionRead(TxnId, ObjectId obj, TxnId writer) override {
    version_reads.emplace_back(obj, writer);
  }
  void OnBlame(TxnId victim, TxnId opponent, ObjectId obj,
               BlameKind kind) override {
    blames.emplace_back(victim, opponent, obj, kind);
  }

  std::vector<TxnId> granted;
  std::vector<TxnId> wounded;
  /// (object, writer of the version read), in report order.
  std::vector<std::pair<ObjectId, TxnId>> version_reads;
  /// (victim, opponent, object, kind), in report order.
  using Blame = std::tuple<TxnId, TxnId, ObjectId, BlameKind>;
  std::vector<Blame> blames;
  SimTime now = 0;

 private:
  const char* never_wounds_;
};

}  // namespace ccsim

#endif  // CCSIM_TESTS_FAKE_CC_ENGINE_H_
