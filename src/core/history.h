// Execution-history recording and conflict-serializability checking.
//
// With EngineConfig::record_history the engine attaches a HistoryRecorder to
// its event stream, which logs every logical read, every deferred write as
// it becomes visible, and every commit/abort. The checker then builds the
// conflict graph over *committed incarnations* — edges ordered by a global
// operation sequence number, so there are no timestamp ties — and verifies
// acyclicity.
// Every algorithm in this library must produce conflict-serializable
// histories; the property tests sweep all of them through this checker.
#ifndef CCSIM_CORE_HISTORY_H_
#define CCSIM_CORE_HISTORY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cc/types.h"
#include "obs/engine_event.h"
#include "sim/time.h"
#include "wl/params.h"

namespace ccsim {

/// One logical data operation.
struct HistoryOp {
  enum class Kind { kRead, kWrite };
  uint64_t seq;     ///< Global order of engine processing (no ties).
  TxnId txn;
  int incarnation;  ///< Which attempt of the transaction performed it.
  ObjectId object;
  Kind kind;
  SimTime time;
};

/// A read that observed a specific version (multiversion algorithms).
struct VersionReadOp {
  uint64_t seq;
  TxnId txn;
  int incarnation;
  ObjectId object;
  /// The transaction whose committed write produced the version read;
  /// kInvalidTxn for the initial version.
  TxnId version_writer;
};

/// Records operations and terminal outcomes of transactions.
class HistoryRecorder : public EngineListener {
 public:
  /// `granule_size` maps the objects of a kCommitting event's write set to
  /// the cc granules the rest of the history names (lock_granule_size).
  explicit HistoryRecorder(int granule_size = 1)
      : granule_size_(granule_size) {}

  /// Records from the engine's event stream. A read is recorded at its cc
  /// grant, the instant the algorithm fixes which version it observes;
  /// recording after the read I/O would let a newer writer commit (and
  /// record its writes) inside the lag, and the conflict checker would
  /// misorder the pair. Deferred writes are recorded at kCommitting, before
  /// the algorithm's Commit, when they become visible: publishing wakes
  /// waiting readers synchronously, and their reads of the new value must
  /// sequence after the writes they observe. Recording at the update I/O
  /// instead would let an older reader that legitimately proceeds past a
  /// pending write (basic T/O) produce apply-before-read sequences the
  /// single-version checker misreads as false cycles.
  void OnEvent(const EngineEvent& event) override;

  /// An incarnation began; the activation sequence induces the timestamp
  /// order of timestamp-based algorithms (used as the version order by the
  /// multiversion checker).
  void RecordActivation(TxnId txn, int incarnation) {
    activation_seq_[txn] = next_seq_++;
    (void)incarnation;
  }

  void RecordRead(TxnId txn, int incarnation, ObjectId obj, SimTime now) {
    ops_.push_back(HistoryOp{next_seq_++, txn, incarnation, obj,
                             HistoryOp::Kind::kRead, now});
  }

  void RecordWrite(TxnId txn, int incarnation, ObjectId obj, SimTime now) {
    ops_.push_back(HistoryOp{next_seq_++, txn, incarnation, obj,
                             HistoryOp::Kind::kWrite, now});
  }

  /// A multiversion read observed `version_writer`'s version of `obj`.
  void RecordVersionRead(TxnId txn, int incarnation, ObjectId obj,
                         TxnId version_writer) {
    version_reads_.push_back(
        VersionReadOp{next_seq_++, txn, incarnation, obj, version_writer});
  }

  void RecordCommit(TxnId txn, int incarnation) {
    committed_incarnation_[txn] = incarnation;
    commit_seq_[txn] = next_seq_++;
  }

  void RecordAbort(TxnId txn, int incarnation) {
    (void)txn;
    (void)incarnation;
    ++aborts_;
  }

  const std::vector<HistoryOp>& ops() const { return ops_; }
  const std::vector<VersionReadOp>& version_reads() const {
    return version_reads_;
  }
  bool has_version_reads() const { return !version_reads_.empty(); }
  size_t committed_count() const { return committed_incarnation_.size(); }
  int64_t aborts() const { return aborts_; }

  /// True if `txn`'s incarnation `inc` committed.
  bool IsCommitted(TxnId txn, int incarnation) const {
    auto it = committed_incarnation_.find(txn);
    return it != committed_incarnation_.end() && it->second == incarnation;
  }

  /// True if any incarnation of `txn` committed (the recoverability oracle:
  /// a committed reader may only have observed committed versions).
  bool EverCommitted(TxnId txn) const {
    return committed_incarnation_.count(txn) > 0;
  }

  /// Activation sequence of `txn`'s most recent incarnation; for a committed
  /// transaction this is its committed incarnation's activation (restarts
  /// overwrite it). Returns 0 when never activated (init pseudo-writer).
  uint64_t ActivationSeq(TxnId txn) const {
    auto it = activation_seq_.find(txn);
    return it == activation_seq_.end() ? 0 : it->second;
  }

 private:
  int granule_size_;
  uint64_t next_seq_ = 0;
  std::vector<HistoryOp> ops_;
  std::vector<VersionReadOp> version_reads_;
  std::unordered_map<TxnId, int> committed_incarnation_;
  std::unordered_map<TxnId, uint64_t> commit_seq_;
  std::unordered_map<TxnId, uint64_t> activation_seq_;
  int64_t aborts_ = 0;
};

/// Result of checking a recorded history.
struct SerializabilityResult {
  bool serializable = true;
  /// A cycle of transaction ids when not serializable (for diagnostics).
  std::vector<TxnId> cycle;
  int64_t edges = 0;
  int64_t nodes = 0;

  std::string ToString() const;
};

/// Builds the conflict graph over committed incarnations and checks it for
/// cycles (Kahn's algorithm; any leftover nodes form cycles). Correct for
/// single-version algorithms only — a multiversion history can be perfectly
/// serializable while its single-version conflict graph is cyclic.
SerializabilityResult CheckConflictSerializability(const HistoryRecorder& history);

/// Builds the multiversion serialization graph (MVSG) over committed
/// incarnations — wr edges from recorded version reads, ww edges from the
/// version order (activation sequence of the committed writers), and rw
/// edges from reads to later-version writers — and checks it for cycles.
/// Requires the history to contain version reads.
SerializabilityResult CheckMultiversionSerializability(
    const HistoryRecorder& history);

/// Dispatch: multiversion check when version reads were recorded, the
/// single-version conflict check otherwise.
SerializabilityResult CheckHistorySerializability(const HistoryRecorder& history);

}  // namespace ccsim

#endif  // CCSIM_CORE_HISTORY_H_
