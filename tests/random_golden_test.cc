// The random streams' contract. Every same-seed CSV, replay digest and
// perfbench pin rests on these draws, so the golden tables pin the first
// draws of each variate as recorded with the libstdc++ 12 <random> the
// streams were first drawn from; the differential test replays 10^5 mixed
// draws per seed against that <random>; and the clamp test feeds the
// canonical conversion the words random draws do not reach.
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

#ifdef __GLIBCXX__
#include <algorithm>
#include <random>
#endif

namespace ccsim {
namespace {

constexpr uint64_t kSeeds[] = {1, 7, 42};
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

struct Range {
  int64_t lo, hi;
};
constexpr Range kRanges[] = {{0, 0},   {4, 12},
                             {0, 9999}, {-5, 5},
                             {0, int64_t{1} << 62}, {kMin, kMax}};

// [seed][draw], each variate from a fresh Rng(seed).
constexpr double kNextDouble[3][4] = {
    {0x1.122deafddb438p-3, 0x1.175c928118c7dp-3, 0x1.ce0b479deb991p-2,
     0x1.5876015e4d702p-6},
    {0x1.823eca63d6cdbp-1, 0x1.e60acea8f4698p-1, 0x1.e0edcc1206968p-4,
     0x1.c8a8d809b3ffp-1},
    {0x1.82a3befaddcbcp-1, 0x1.472f1f73724ap-1, 0x1.81192cfe1cbcfp-1,
     0x1.171621fc50d6ap-3},
};

// [seed][range][draw], ranges as in kRanges.
constexpr int64_t kUniformInt[3][6][4] = {
    {{0, 0, 0, 0},
     {5, 5, 8, 4},
     {1338, 1364, 4512, 210},
     {-4, -4, -1, -5},
     {629066422425108115, 2080861463365914982, 96957140237643811,
      1618231925225232846},
     {-6753783847308464280, -6707106347154343346, -899926183391115878,
      -8835543475904200562}},
    {{0, 0, 0, 0},
     {10, 12, 5, 12},
     {7543, 9493, 1174, 8919},
     {3, 5, -4, 4},
     {3478988159668827754, 4377879084656308313, 541477798210591219,
      4113223526696083262},
     {4692580601820535207, 8288144301770457442, -7057460844012410930,
      7229522069929557238}},
    {{0, 0, 0, 0},
     {10, 9, 10, 5},
     {7551, 6390, 7521, 1362},
     {3, 2, 3, -4},
     {3482540213064530102, 2947012144375873706, 3468657506116935363,
      628446829801288915},
     {4706788815403344598, 2564676540648719016, 4651257987612965642,
      -6709584717649620146}},
};

constexpr double kExponentialMean1[3][4] = {
    {0x1.265ad52cffb2cp-3, 0x1.2c58ca2fd58bdp-3, 0x1.333989e536853p-1,
     0x1.5c222f8b340b3p-6},
    {0x1.676bf86dfaac5p+0, 0x1.7dad5cb8e0224p+1, 0x1.ff9679707c641p-4,
     0x1.1cc6eaabeb8dep+1},
    {0x1.6839cf27d4febp+0, 0x1.04dad7f4d36f5p+0, 0x1.6518f721dc864p+0,
     0x1.2c073b00cefa3p-3},
};

constexpr double kExponentialMean035[3][4] = {
    {0x1.49ad69a309e6fp-8, 0x1.506371cf2c9cap-8, 0x1.58177bb909dcep-6,
     0x1.85e8d916c9a63p-11},
    {0x1.928d682941b6dp-5, 0x1.ab7a7c542e3aep-4, 0x1.1e7d39c41cb2fp-8,
     0x1.3ef34445aba93p-4},
    {0x1.9373f2411783bp-5, 0x1.24284e07f70c1p-5, 0x1.8ff3004ee281fp-5,
     0x1.5008191fa0228p-8},
};

// The first 32 Bernoulli(0.25) outcomes, '1' for a success.
constexpr const char* kBernoulli[3] = {
    "11010001001001010000000001110000",
    "00101100000000000000001111000001",
    "00010100001000000011010111000100",
};

constexpr int64_t kSample10000Of8[3][8] = {
    {3507, 4509, 9111, 4707, 1337, 1363, 210, 744},
    {8915, 9007, 1173, 1412, 8324, 9487, 550, 7538},
    {940, 7517, 7546, 5745, 1362, 3728, 6386, 9029},
};

constexpr int64_t kSample20Of20[3][20] = {
    {15, 14, 11, 1, 2, 0, 19, 13, 9, 6, 7, 16, 18, 5, 17, 3, 8, 12, 10, 4},
    {6, 10, 0, 3, 19, 1, 17, 5, 7, 8, 13, 16, 18, 11, 12, 15, 9, 4, 2, 14},
    {11, 10, 18, 1, 0, 7, 19, 2, 3, 4, 8, 15, 13, 16, 12, 6, 5, 9, 17, 14},
};

TEST(RandomGoldenTest, FirstDrawsOfEveryVariate) {
  for (int s = 0; s < 3; ++s) {
    const uint64_t seed = kSeeds[s];
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    {
      Rng rng(seed);
      for (double expected : kNextDouble[s]) {
        EXPECT_EQ(rng.NextDouble(), expected);
      }
    }
    for (int r = 0; r < 6; ++r) {
      Rng rng(seed);
      for (int64_t expected : kUniformInt[s][r]) {
        EXPECT_EQ(rng.UniformInt(kRanges[r].lo, kRanges[r].hi), expected)
            << "range " << r;
      }
    }
    {
      Rng rng(seed);
      for (double expected : kExponentialMean1[s]) {
        EXPECT_EQ(rng.Exponential(1.0), expected);
      }
    }
    {
      Rng rng(seed);
      for (double expected : kExponentialMean035[s]) {
        EXPECT_EQ(rng.Exponential(0.035), expected);
      }
    }
    {
      Rng rng(seed);
      std::string outcomes;
      for (int i = 0; i < 32; ++i) outcomes += rng.Bernoulli(0.25) ? '1' : '0';
      EXPECT_EQ(outcomes, kBernoulli[s]);
    }
    {
      Rng rng(seed);
      EXPECT_EQ(rng.SampleWithoutReplacement(10000, 8),
                std::vector<int64_t>(std::begin(kSample10000Of8[s]),
                                     std::end(kSample10000Of8[s])));
    }
    {
      Rng rng(seed);
      EXPECT_EQ(rng.SampleWithoutReplacement(20, 20),
                std::vector<int64_t>(std::begin(kSample20Of20[s]),
                                     std::end(kSample20Of20[s])));
    }
  }
}

#ifdef __GLIBCXX__

// Floyd's sampler and the shuffle as written over <random>.
std::vector<int64_t> ReferenceSample(int64_t population, int64_t count,
                                     std::mt19937_64& engine) {
  std::set<int64_t> chosen;
  std::vector<int64_t> result;
  for (int64_t j = population - count; j < population; ++j) {
    int64_t pick = std::uniform_int_distribution<int64_t>(0, j)(engine);
    if (!chosen.insert(pick).second) {
      pick = j;
      chosen.insert(j);
    }
    result.push_back(pick);
  }
  std::shuffle(result.begin(), result.end(), engine);
  return result;
}

// An argument in [0, 1) from 53 bits of a word.
double Unit(uint64_t word) {
  return static_cast<double>(word >> 11) * 0x1p-53;
}

TEST(RandomDifferentialTest, MatchesLibstdcxxDrawForDraw) {
  // Ranges where Lemire's rejection loop runs often (a quarter of draws at
  // 3 * 2^62 and at 3 * 2^62 + 1 values), the full range, and negative lo.
  constexpr Range kWide[] = {{kMin + (int64_t{1} << 62), kMax},
                             {kMin, int64_t{1} << 62},
                             {kMin, kMax},
                             {-5, 5},
                             {-(int64_t{1} << 40), 3}};
  constexpr double kMeans[] = {0.035, 1.0, 3.5, 1e-6};
  constexpr double kProbs[] = {0.0, 0.25, 0.5, 1.0};
  for (uint64_t seed : {uint64_t{1}, uint64_t{7}, uint64_t{42},
                        uint64_t{0x9E3779B97F4A7C15}}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    // Every shuffle length from 1 to 40, both first-swap paths.
    for (int64_t count = 1; count <= 40; ++count) {
      ASSERT_EQ(rng.SampleWithoutReplacement(count + 7, count),
                ReferenceSample(count + 7, count, ref))
          << "count " << count;
    }
    // The operations come from a stream of their own, independent of both.
    uint64_t ops = seed;
    for (int i = 0; i < 100000; ++i) {
      const uint64_t op = SplitMix64(ops);
      const uint64_t arg = SplitMix64(ops);
      switch (op % 7) {
        case 0:
          ASSERT_EQ(rng.engine()(), ref()) << "op " << i;
          break;
        case 1:
          ASSERT_EQ(rng.NextDouble(),
                    std::uniform_real_distribution<double>(0.0, 1.0)(ref))
              << "op " << i;
          break;
        case 2: {
          Range r = kWide[arg % 5];
          if (arg & 8) {
            // Anywhere in int64: spans past 2^63 reject often.
            const auto a = static_cast<int64_t>(SplitMix64(ops));
            const auto b = static_cast<int64_t>(arg);
            r = {std::min(a, b), std::max(a, b)};
          }
          ASSERT_EQ(rng.UniformInt(r.lo, r.hi),
                    std::uniform_int_distribution<int64_t>(r.lo, r.hi)(ref))
              << "op " << i;
          break;
        }
        case 3: {
          const double mean = (arg & 4) ? Unit(arg) + 1e-3 : kMeans[arg % 4];
          ASSERT_EQ(rng.Exponential(mean),
                    std::exponential_distribution<double>(1.0 / mean)(ref))
              << "op " << i;
          break;
        }
        case 4: {
          const double p = (arg & 4) ? Unit(arg) : kProbs[arg % 4];
          const bool success = std::generate_canonical<double, 53>(ref) < p;
          ASSERT_EQ(rng.Bernoulli(p), success)
              << "op " << i;
          break;
        }
        case 5: {
          const auto count = static_cast<int64_t>(1 + arg % 40);
          const auto population =
              count + static_cast<int64_t>((arg >> 8) % 10000);
          ASSERT_EQ(rng.SampleWithoutReplacement(population, count),
                    ReferenceSample(population, count, ref))
              << "op " << i;
          break;
        }
        case 6:
          // Now and then a sample large enough for the hashed set.
          if (arg % 16 == 0) {
            const auto count = static_cast<int64_t>(65 + (arg >> 8) % 300);
            const auto population =
                count + static_cast<int64_t>((arg >> 20) % 5000);
            ASSERT_EQ(rng.SampleWithoutReplacement(population, count),
                      ReferenceSample(population, count, ref))
                << "op " << i;
          } else {
            ASSERT_EQ(rng.UniformInt(0, static_cast<int64_t>(arg >> 1)),
                      std::uniform_int_distribution<int64_t>(
                          0, static_cast<int64_t>(arg >> 1))(ref))
                << "op " << i;
          }
          break;
      }
    }
  }
}

// One word, then the generator is spent: feeds std::generate_canonical the
// exact word under test.
struct OneWord {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }
  uint64_t word;
  result_type operator()() { return word; }
};

TEST(RandomDifferentialTest, CanonicalDoubleClampsBelowOne) {
  // 2^64 - 1024 is the first word that rounds up to 2^64, so to 1.0.
  for (uint64_t word :
       {uint64_t{0}, uint64_t{1} << 53, uint64_t{1} << 63,
        ~uint64_t{0} - 1024, ~uint64_t{0} - 1023, ~uint64_t{0}}) {
    OneWord gen{word};
    const double expected = std::generate_canonical<double, 53>(gen);
    EXPECT_EQ(CanonicalDouble(word), expected) << "word " << word;
    EXPECT_LT(CanonicalDouble(word), 1.0) << "word " << word;
  }
}

#endif  // __GLIBCXX__

}  // namespace
}  // namespace ccsim
