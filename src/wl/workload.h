// Transaction specification and workload generation.
//
// A transaction is described entirely by its readset (sampled uniformly
// without replacement from the database) and the subset of it that is also
// written (each read object independently with probability write_prob). All
// reads precede all writes, and updates are deferred to commit — so the spec
// fully determines the access sequence, and a restarted transaction replays
// the identical spec (the simulator "maintains backup copies of transaction
// read and write sets").
#ifndef CCSIM_WL_WORKLOAD_H_
#define CCSIM_WL_WORKLOAD_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/random.h"
#include "wl/params.h"

namespace ccsim {

/// Immutable description of one transaction's logical work.
struct TxnSpec {
  /// Objects read, in access order.
  std::vector<ObjectId> reads;
  /// writes[i] is nonzero iff reads[i] is also written. Writes are performed
  /// in readset order during the write phase. One byte per flag: refilling a
  /// std::vector<bool> calls an out-of-line fill on every transaction.
  std::vector<uint8_t> writes;
  /// Which TxnClass produced this transaction (0 for single-class).
  int class_index = 0;

  int num_reads() const { return static_cast<int>(reads.size()); }

  int num_writes() const {
    int n = 0;
    for (bool w : writes) n += w ? 1 : 0;
    return n;
  }

  bool read_only() const { return num_writes() == 0; }

  /// The written objects, in write-phase order.
  std::vector<ObjectId> WriteSet() const {
    std::vector<ObjectId> set;
    WriteSet(&set);
    return set;
  }

  /// In-place form: overwrites `*out`, keeping its capacity. The buffer is
  /// grown to fit the whole read set (rounded to a power of two), so a
  /// reused one stops growing as soon as the read buffer does.
  void WriteSet(std::vector<ObjectId>* out) const {
    out->clear();
    if (out->capacity() < reads.size()) {
      out->reserve(std::bit_ceil(reads.size()));
    }
    for (size_t i = 0; i < reads.size(); ++i) {
      if (writes[i]) out->push_back(reads[i]);
    }
  }
};

/// Draws transaction specs and think times per the workload parameters.
class WorkloadGenerator {
 public:
  /// `spec_rng` drives readset/writeset selection; `think_rng` drives the
  /// exponential think times. Separate streams keep the access pattern
  /// invariant under think-time parameter changes.
  WorkloadGenerator(const WorkloadParams& params, Rng spec_rng, Rng think_rng);

  const WorkloadParams& params() const { return params_; }

  /// Generates the next transaction spec.
  TxnSpec NextTransaction() {
    TxnSpec spec;
    NextTransaction(&spec);
    return spec;
  }

  /// In-place form: overwrites `*spec`, reusing its buffers' capacity (and
  /// the generator's own sampling scratch), so a recycled spec is refilled
  /// without allocating. Draws exactly as the form above.
  void NextTransaction(TxnSpec* spec);

  /// External think delay: exponential with mean ext_think_time (0 if the
  /// mean is 0).
  SimTime NextExternalThink();

  /// Internal (intra-transaction) think delay: exponential with mean
  /// int_think_time; 0 when the internal think path is disabled.
  SimTime NextInternalThink();

 private:
  WorkloadParams params_;
  Rng spec_rng_;
  Rng think_rng_;
  // Sampling scratch, reused across NextTransaction calls.
  std::vector<uint8_t> is_hot_;
  std::vector<ObjectId> hot_;
  std::vector<ObjectId> cold_;
};

}  // namespace ccsim

#endif  // CCSIM_WL_WORKLOAD_H_
