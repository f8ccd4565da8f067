// Hot-granule contention accounting (docs/OBSERVABILITY.md).
//
// Tracks per-object conflict / block / restart counts in a space-capped
// Space-Saving sketch: at most `capacity` objects are tracked at once, and
// when a new object arrives at a full sketch it evicts the entry with the
// smallest conflict count (deterministic tie-break: the larger object id is
// evicted first), inheriting that count as its overestimate floor — the
// classical top-K guarantee that true heavy hitters are never lost. Memory
// is O(capacity) regardless of db_size.
//
// The profiler is fed from the engine's OnBlame events, so it sees exactly
// the conflicts the blame layer attributes, keyed on simulated time only —
// same-seed runs produce byte-identical hot CSVs.
#ifndef CCSIM_OBS_CONTENTION_H_
#define CCSIM_OBS_CONTENTION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cc/types.h"

namespace ccsim {

class ContentionProfiler {
 public:
  /// `capacity` bounds the tracked-object set (>= 1).
  explicit ContentionProfiler(size_t capacity);

  /// Books one conflict on `obj`: kBlock counts as a block, every other
  /// BlameKind as a restart-causing conflict.
  void Record(ObjectId obj, BlameKind kind);

  /// Clears all counts (measurement reset).
  void Reset();

  struct Entry {
    ObjectId object = 0;
    int64_t conflicts = 0;  ///< blocks + restarts (the eviction key).
    int64_t blocks = 0;
    int64_t restarts = 0;
  };

  /// The hottest `k` objects: conflicts descending, ties broken by
  /// ascending object id. Deterministic for a fixed event stream.
  std::vector<Entry> TopK(size_t k) const;

  /// Writes the top-`k` table as CSV (header: object,conflicts,blocks,
  /// restarts). Returns stream health.
  bool WriteCsv(const std::string& path, size_t k) const;

 private:
  size_t capacity_;
  std::unordered_map<ObjectId, Entry> entries_;
};

}  // namespace ccsim

#endif  // CCSIM_OBS_CONTENTION_H_
