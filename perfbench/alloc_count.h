// Counting global operator new, linked into the perfbench binary only.
//
// Counting is off by default: an uncounted allocation costs one relaxed
// atomic load on top of malloc. The traced pass switches it on around the
// simulated run of a point; the tracer's own bookkeeping opts out with
// ScopedUncounted so only the engine's allocations are counted.
#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  uint64_t news = 0;   ///< Calls of the global operator new.
  uint64_t bytes = 0;  ///< Bytes those calls requested.
};

void SetAllocCounting(bool on);
AllocCounts ReadAllocCounts();

/// While alive, allocations made by this thread are not counted.
class ScopedUncounted {
 public:
  ScopedUncounted();
  ~ScopedUncounted();
  ScopedUncounted(const ScopedUncounted&) = delete;
  ScopedUncounted& operator=(const ScopedUncounted&) = delete;
};

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
