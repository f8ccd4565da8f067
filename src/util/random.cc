#include "util/random.h"

#include <algorithm>
#include <bit>

namespace ccsim {

void Rng::SampleWithoutReplacement(int64_t population, int64_t count,
                                   std::vector<int64_t>* out,
                                   std::vector<int64_t>* scratch) {
  CCSIM_CHECK_GE(count, 0);
  CCSIM_CHECK_LE(count, population);
  // Floyd's algorithm: for j in [population-count, population), pick t uniform
  // in [0, j]; insert t unless already chosen, else insert j. Produces a
  // uniform random subset of size `count`.
  //
  // Membership is tracked in a sorted small vector: transaction-sized samples
  // (a handful of objects) fit in one or two cache lines, where the shifted
  // insert beats a heap-allocated hash set. The draw sequence is exactly the
  // hash-set version's — only membership answers feed back into the draws.
  //
  // Buffers grow to the next power of two, so a reused pair settles at its
  // final capacity after the first large sample instead of creeping up one
  // exact size at a time.
  const auto n = static_cast<size_t>(count);
  std::vector<int64_t>& chosen = *scratch;
  std::vector<int64_t>& result = *out;
  chosen.clear();
  result.clear();
  if (chosen.capacity() < n) chosen.reserve(std::bit_ceil(n));
  if (result.capacity() < n) result.reserve(std::bit_ceil(n));
  auto insert_chosen = [&chosen](int64_t v) {
    auto it = std::lower_bound(chosen.begin(), chosen.end(), v);
    if (it != chosen.end() && *it == v) return false;
    chosen.insert(it, v);
    return true;
  };
  for (int64_t j = population - count; j < population; ++j) {
    int64_t t = UniformInt(0, j);
    if (insert_chosen(t)) {
      result.push_back(t);
    } else {
      insert_chosen(j);
      result.push_back(j);
    }
  }
  // Floyd's subset is uniform but its order is biased; shuffle so that the
  // access order is also uniform (objects are read in result order).
  std::shuffle(result.begin(), result.end(), engine_);
}

}  // namespace ccsim
