#include "util/random.h"

#include <bit>
#include <unordered_set>
#include <utility>

namespace ccsim {

Mt19937_64::Mt19937_64(uint64_t seed) : next_(kWords) {
  state_[0] = seed;
  for (int i = 1; i < kWords; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) +
                static_cast<uint64_t>(i);
  }
}

void Mt19937_64::Refill() {
  constexpr int kMid = 156;
  constexpr uint64_t kUpper = ~uint64_t{0} << 31;
  // Word k joins the top 33 bits of word k with the low 31 of word k + 1,
  // and applies the twist matrix when that is odd: masked, not branched on,
  // since the bit is a coin flip.
  auto twist = [](uint64_t hi, uint64_t lo, uint64_t far) {
    const uint64_t y = (hi & kUpper) | (lo & ~kUpper);
    return far ^ (y >> 1) ^ (-(y & 1) & 0xB5026F5AA96619E9ull);
  };
  for (int k = 0; k < kWords - kMid; ++k) {
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kMid]);
  }
  for (int k = kWords - kMid; k < kWords - 1; ++k) {
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kMid - kWords]);
  }
  state_[kWords - 1] = twist(state_[kWords - 1], state_[0], state_[kMid - 1]);
  next_ = 0;
}

void Rng::SampleWithoutReplacement(int64_t population, int64_t count,
                                   std::vector<int64_t>* out) {
  CCSIM_CHECK_GE(count, 0);
  CCSIM_CHECK_LE(count, population);
  // Floyd's algorithm: for j in [population-count, population), pick t uniform
  // in [0, j]; take t unless already chosen, else take j. Produces a uniform
  // random subset of size `count`. Every earlier pick is below j, so only t
  // needs the membership test.
  //
  // The buffer grows to the next power of two, so a reused one settles at
  // its final capacity after the first large sample instead of creeping up
  // one exact size at a time.
  const auto n = static_cast<size_t>(count);
  std::vector<int64_t>& result = *out;
  result.clear();
  if (result.capacity() < n) result.reserve(std::bit_ceil(n));
  int64_t j = population - count;
  // A transaction-sized sample scans its few picks; past kScanLimit a scan
  // would turn quadratic, and a hashed set gives the same answers.
  for (; j < population && result.size() < kScanLimit; ++j) {
    const int64_t t = UniformInt(0, j);
    const bool taken =
        std::find(result.begin(), result.end(), t) != result.end();
    result.push_back(taken ? j : t);
  }
  if (j < population) {
    std::unordered_set<int64_t> chosen(result.begin(), result.end(), 2 * n);
    for (; j < population; ++j) {
      const int64_t t = UniformInt(0, j);
      result.push_back(chosen.insert(t).second ? t : j);
      chosen.insert(result.back());
    }
  }
  // Floyd's subset is uniform but its order is biased; shuffle so that the
  // access order is also uniform (objects are read in result order). This
  // is std::shuffle's order: an even-length sample swaps element 1 alone
  // first, then elements i and i + 1 take their positions from one draw
  // below (i + 1)(i + 2). (libstdc++ draws one position at a time only past
  // 2^32 elements, which no in-memory sample reaches.)
  if (n < 2) return;
  size_t i = 1;
  if (n % 2 == 0) std::swap(result[i++], result[Below(2)]);
  for (; i < n; i += 2) {
    const uint64_t pair = Below((i + 1) * (i + 2));
    std::swap(result[i], result[pair / (i + 2)]);
    std::swap(result[i + 1], result[pair % (i + 2)]);
  }
}

}  // namespace ccsim
