// Random number generation for the simulator.
//
// Every stochastic element of the model (think times, readset selection, disk
// choice, restart delays, ...) draws from its own Rng stream so that changing
// one element's consumption pattern does not perturb the others. Streams are
// derived from a single master seed with SplitMix64, which is also usable
// directly as a cheap stateless mixer.
#ifndef CCSIM_UTIL_RANDOM_H_
#define CCSIM_UTIL_RANDOM_H_

#include <cstdint>
#include <random>
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

/// A single random stream with the variate kinds the model needs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double NextDouble() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    CCSIM_CHECK_LE(lo, hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Exponential variate with the given mean (not rate). Requires mean > 0.
  double Exponential(double mean) {
    CCSIM_CHECK_GT(mean, 0.0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
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
    std::vector<int64_t> out, scratch;
    SampleWithoutReplacement(population, count, &out, &scratch);
    return out;
  }

  /// In-place form: overwrites `*out` with the sample, using `*scratch` for
  /// membership tracking. Both keep their capacity, so a caller that reuses
  /// them samples without allocating. Draws exactly as the form above.
  void SampleWithoutReplacement(int64_t population, int64_t count,
                                std::vector<int64_t>* out,
                                std::vector<int64_t>* scratch);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Derives independent named streams from one master seed.
class RngFactory {
 public:
  explicit RngFactory(uint64_t master_seed) : state_(master_seed) {}

  /// Returns a fresh stream; successive calls yield decorrelated streams.
  Rng MakeStream() { return Rng(SplitMix64(state_)); }

 private:
  uint64_t state_;
};

}  // namespace ccsim

#endif  // CCSIM_UTIL_RANDOM_H_
