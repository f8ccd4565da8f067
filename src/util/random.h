// Random number generation for the simulator.
//
// Every stochastic element of the model (think times, readset selection, disk
// choice, restart delays, ...) draws from its own Rng stream so that changing
// one element's consumption pattern does not perturb the others. Streams are
// derived from a single master seed with SplitMix64, which is also usable
// directly as a cheap stateless mixer.
//
// The engine and variates are this library's own, not <random>'s, and each
// reproduces libstdc++ 12's algorithm draw for draw (docs/MODEL.md §1):
// tests/random_golden_test.cc pins the streams every output rests on.
#ifndef CCSIM_UTIL_RANDOM_H_
#define CCSIM_UTIL_RANDOM_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace ccsim {

/// SplitMix64 step: advances `state` and returns the next 64-bit output.
/// Used for seed derivation; passes BigCrush as a generator in its own right.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// MT19937-64 with the standard's seeding and tempering, so the words of
/// std::mt19937_64. A UniformRandomBitGenerator.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~uint64_t{0}; }

  explicit Mt19937_64(uint64_t seed);

  uint64_t operator()() {
    if (next_ == kWords) Refill();
    uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

 private:
  static constexpr int kWords = 312;

  /// Regenerates the state; once per kWords draws.
  void Refill();

  uint64_t state_[kWords];
  int next_;
};

/// std::generate_canonical<double, 53> of one word: word / 2^64 rounded to
/// nearest, clamped below 1 (words from 2^64 - 1024 up round to 1).
inline double CanonicalDouble(uint64_t word) {
  // Both 32-bit halves convert exactly, so the sum rounds once, as the
  // compiler's conversion does, without its branch on the sign bit.
  const double d =
      static_cast<double>(static_cast<uint32_t>(word >> 32)) * 0x1p32 +
      static_cast<double>(static_cast<uint32_t>(word));
  return std::min(d * 0x1p-64, 0x1.fffffffffffffp-1);
}

/// A single random stream with the variate kinds the model needs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double NextDouble() { return CanonicalDouble(engine_()); }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    CCSIM_CHECK_LE(lo, hi);
    const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    const uint64_t offset = span == ~uint64_t{0} ? engine_() : Below(span + 1);
    return static_cast<int64_t>(static_cast<uint64_t>(lo) + offset);
  }

  /// Exponential variate with the given mean (not rate). Requires mean > 0.
  double Exponential(double mean) {
    CCSIM_CHECK_GT(mean, 0.0);
    return -std::log(1.0 - NextDouble()) / (1.0 / mean);
  }

  /// Bernoulli trial that succeeds with probability p in [0, 1].
  bool Bernoulli(double p) {
    CCSIM_CHECK_GE(p, 0.0);
    CCSIM_CHECK_LE(p, 1.0);
    return NextDouble() < p;
  }

  /// Samples `count` distinct integers uniformly from [0, population), in
  /// selection order. Requires count <= population. Uses Floyd's algorithm
  /// followed by a shuffle, so cost is O(count) independent of population.
  std::vector<int64_t> SampleWithoutReplacement(int64_t population,
                                                int64_t count) {
    std::vector<int64_t> out;
    SampleWithoutReplacement(population, count, &out);
    return out;
  }

  /// In-place form: overwrites `*out` with the sample, keeping its capacity,
  /// so a caller that reuses it samples up to kScanLimit objects without
  /// allocating. Draws exactly as the form above.
  void SampleWithoutReplacement(int64_t population, int64_t count,
                                std::vector<int64_t>* out);

  Mt19937_64& engine() { return engine_; }

 private:
  /// Floyd's sampler scans the earlier picks up to this many, then hashes.
  static constexpr size_t kScanLimit = 64;

  /// Uniform in [0, range), range >= 1, as std::uniform_int_distribution
  /// draws it: Lemire's nearly divisionless method (ACM TOMACS 2019).
  uint64_t Below(uint64_t range) {
    using Wide = unsigned __int128;
    Wide product = static_cast<Wide>(engine_()) * range;
    if (static_cast<uint64_t>(product) < range) {
      const uint64_t threshold = -range % range;
      while (static_cast<uint64_t>(product) < threshold) {
        product = static_cast<Wide>(engine_()) * range;
      }
    }
    return static_cast<uint64_t>(product >> 64);
  }

  Mt19937_64 engine_;
};

/// Derives independent named streams from one master seed.
class RngFactory {
 public:
  explicit RngFactory(uint64_t master_seed) : state_(master_seed) {}

  /// Returns a fresh stream; successive calls yield decorrelated streams.
  Rng MakeStream() { return Rng(SplitMix64(state_)); }

  /// The stream the (n+1)-th MakeStream() of RngFactory(master_seed)
  /// returns, seeding only that one.
  static Rng NthStream(uint64_t master_seed, int n) {
    for (int i = 0; i < n; ++i) SplitMix64(master_seed);
    return RngFactory(master_seed).MakeStream();
  }

 private:
  uint64_t state_;
};

}  // namespace ccsim

#endif  // CCSIM_UTIL_RANDOM_H_
