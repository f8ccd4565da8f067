// Unit tests for workload parameters and transaction generation.
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/config.h"
#include "wl/params.h"
#include "wl/workload.h"

namespace ccsim {
namespace {

WorkloadParams PaperDefaults() { return WorkloadParams{}; }

TEST(ParamsTest, PaperDefaultsMatchTable2) {
  WorkloadParams p = PaperDefaults();
  EXPECT_EQ(p.db_size, 1000);
  EXPECT_EQ(p.tran_size, 8);
  EXPECT_EQ(p.min_size, 4);
  EXPECT_EQ(p.max_size, 12);
  EXPECT_DOUBLE_EQ(p.write_prob, 0.25);
  EXPECT_EQ(p.num_terms, 200);
  EXPECT_EQ(p.ext_think_time, kSecond);
  EXPECT_EQ(p.int_think_time, 0);
  EXPECT_EQ(p.obj_io, FromMillis(35));
  EXPECT_EQ(p.obj_cpu, FromMillis(15));
  EXPECT_EQ(p.cc_cpu, 0);
  p.Validate();  // Must not abort.
}

TEST(ParamsTest, NonFiniteOrHugeDurationIsHardError) {
  // strtod accepts these; casting them to SimTime would be undefined.
  for (const char* arg : {"ext_think_time=nan", "int_think_time=inf",
                          "obj_io_ms=1e300", "obj_cpu_ms=-inf",
                          "cc_cpu_ms=nan", "log_io_ms=1e300"}) {
    SCOPED_TRACE(arg);
    WorkloadParams p;
    Config config;
    std::string error;
    ASSERT_TRUE(config.ParseArgs({arg}, &error));
    ScopedCheckTrap trap;
    EXPECT_THROW(p.ApplyConfig(config), CheckFailure);
  }
}

TEST(ParamsTest, ApplyConfigOverrides) {
  WorkloadParams p;
  Config config;
  std::string error;
  ASSERT_TRUE(config.ParseArgs({"db_size=10000", "mpl=75", "write_prob=0.5",
                                "int_think_time=5", "obj_io_ms=20"},
                               &error));
  p.ApplyConfig(config);
  EXPECT_EQ(p.db_size, 10000);
  EXPECT_EQ(p.mpl, 75);
  EXPECT_DOUBLE_EQ(p.write_prob, 0.5);
  EXPECT_EQ(p.int_think_time, 5 * kSecond);
  EXPECT_EQ(p.obj_io, FromMillis(20));
  EXPECT_EQ(p.tran_size, 8);  // Untouched keys keep defaults.
}

TEST(ParamsTest, PaperTransactionCostArithmetic) {
  // §4.5: "On the average, a transaction requires 150 milliseconds of CPU
  // time and 350 milliseconds of disk time".
  WorkloadParams p = PaperDefaults();
  double reads = p.tran_size;
  double writes = reads * p.write_prob;
  SimTime cpu = static_cast<SimTime>((reads + writes) * p.obj_cpu);
  SimTime disk = static_cast<SimTime>((reads + writes) * p.obj_io);
  EXPECT_EQ(cpu, FromMillis(150));
  EXPECT_EQ(disk, FromMillis(350));
}

TEST(WorkloadGeneratorTest, SizesWithinBounds) {
  WorkloadParams p = PaperDefaults();
  WorkloadGenerator gen(p, Rng(1), Rng(2));
  for (int i = 0; i < 500; ++i) {
    TxnSpec spec = gen.NextTransaction();
    EXPECT_GE(spec.num_reads(), p.min_size);
    EXPECT_LE(spec.num_reads(), p.max_size);
    EXPECT_EQ(spec.writes.size(), spec.reads.size());
  }
}

TEST(WorkloadGeneratorTest, MeanSizeNearTranSize) {
  WorkloadParams p = PaperDefaults();
  WorkloadGenerator gen(p, Rng(3), Rng(4));
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += gen.NextTransaction().num_reads();
  // Uniform[4,12]: mean 8, sd ≈ 2.58; se ≈ 0.018.
  EXPECT_NEAR(total / n, 8.0, 0.1);
}

TEST(WorkloadGeneratorTest, ReadsAreDistinctAndInRange) {
  WorkloadParams p = PaperDefaults();
  WorkloadGenerator gen(p, Rng(5), Rng(6));
  for (int i = 0; i < 200; ++i) {
    TxnSpec spec = gen.NextTransaction();
    std::set<ObjectId> unique(spec.reads.begin(), spec.reads.end());
    EXPECT_EQ(unique.size(), spec.reads.size());
    for (ObjectId obj : spec.reads) {
      EXPECT_GE(obj, 0);
      EXPECT_LT(obj, p.db_size);
    }
  }
}

TEST(WorkloadGeneratorTest, WriteFractionNearWriteProb) {
  WorkloadParams p = PaperDefaults();
  WorkloadGenerator gen(p, Rng(7), Rng(8));
  int64_t reads = 0, writes = 0;
  for (int i = 0; i < 20000; ++i) {
    TxnSpec spec = gen.NextTransaction();
    reads += spec.num_reads();
    writes += spec.num_writes();
  }
  EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(reads), 0.25,
              0.01);
}

TEST(WorkloadGeneratorTest, WriteSetSubsetOfReadSet) {
  WorkloadParams p = PaperDefaults();
  WorkloadGenerator gen(p, Rng(9), Rng(10));
  for (int i = 0; i < 200; ++i) {
    TxnSpec spec = gen.NextTransaction();
    std::set<ObjectId> reads(spec.reads.begin(), spec.reads.end());
    for (ObjectId obj : spec.WriteSet()) {
      EXPECT_TRUE(reads.count(obj) > 0);
    }
  }
}

TEST(WorkloadGeneratorTest, ReadOnlyDetection) {
  TxnSpec spec;
  spec.reads = {1, 2, 3};
  spec.writes = {false, false, false};
  EXPECT_TRUE(spec.read_only());
  EXPECT_EQ(spec.num_writes(), 0);
  spec.writes[1] = true;
  EXPECT_FALSE(spec.read_only());
  EXPECT_EQ(spec.num_writes(), 1);
  EXPECT_EQ(spec.WriteSet(), (std::vector<ObjectId>{2}));
}

TEST(WorkloadGeneratorTest, ExternalThinkMean) {
  WorkloadParams p = PaperDefaults();
  WorkloadGenerator gen(p, Rng(11), Rng(12));
  double total = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) total += ToSeconds(gen.NextExternalThink());
  EXPECT_NEAR(total / n, 1.0, 0.03);  // Mean 1 s.
}

TEST(WorkloadGeneratorTest, InternalThinkDisabledReturnsZero) {
  WorkloadParams p = PaperDefaults();
  WorkloadGenerator gen(p, Rng(13), Rng(14));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(gen.NextInternalThink(), 0);
}

TEST(WorkloadGeneratorTest, InternalThinkMean) {
  WorkloadParams p = PaperDefaults();
  p.int_think_time = 5 * kSecond;
  WorkloadGenerator gen(p, Rng(15), Rng(16));
  double total = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) total += ToSeconds(gen.NextInternalThink());
  EXPECT_NEAR(total / n, 5.0, 0.15);
}

TEST(WorkloadGeneratorTest, SameSeedSameWorkload) {
  WorkloadParams p = PaperDefaults();
  WorkloadGenerator a(p, Rng(17), Rng(18));
  WorkloadGenerator b(p, Rng(17), Rng(18));
  for (int i = 0; i < 50; ++i) {
    TxnSpec sa = a.NextTransaction();
    TxnSpec sb = b.NextTransaction();
    EXPECT_EQ(sa.reads, sb.reads);
    EXPECT_EQ(sa.writes, sb.writes);
  }
}

TEST(WorkloadGeneratorTest, ThinkStreamIndependentOfSpecStream) {
  // Drawing extra transactions must not change think times (separate
  // streams), so think-time draws line up across runs that differ in spec
  // consumption.
  WorkloadParams p = PaperDefaults();
  WorkloadGenerator a(p, Rng(19), Rng(20));
  WorkloadGenerator b(p, Rng(21), Rng(20));
  (void)a.NextTransaction();
  (void)a.NextTransaction();
  EXPECT_EQ(a.NextExternalThink(), b.NextExternalThink());
}

TEST(HotspotTest, AllAccessesHotWhenProbOne) {
  WorkloadParams p = PaperDefaults();
  p.hot_fraction_db = 0.2;  // Objects [0, 200).
  p.hot_access_prob = 1.0;
  WorkloadGenerator gen(p, Rng(51), Rng(52));
  for (int i = 0; i < 100; ++i) {
    for (ObjectId obj : gen.NextTransaction().reads) {
      EXPECT_LT(obj, 200);
    }
  }
}

TEST(HotspotTest, EightyTwentyFrequencies) {
  WorkloadParams p = PaperDefaults();
  p.hot_fraction_db = 0.2;
  p.hot_access_prob = 0.8;
  WorkloadGenerator gen(p, Rng(53), Rng(54));
  int64_t hot = 0, total = 0;
  for (int i = 0; i < 20000; ++i) {
    for (ObjectId obj : gen.NextTransaction().reads) {
      hot += obj < 200 ? 1 : 0;
      ++total;
    }
  }
  EXPECT_NEAR(static_cast<double>(hot) / static_cast<double>(total), 0.8, 0.01);
}

TEST(HotspotTest, ReadsStayDistinctUnderSkew) {
  WorkloadParams p = PaperDefaults();
  p.hot_fraction_db = 0.05;  // Tiny hot set of 50: collisions would be easy.
  p.hot_access_prob = 0.9;
  WorkloadGenerator gen(p, Rng(55), Rng(56));
  for (int i = 0; i < 500; ++i) {
    TxnSpec spec = gen.NextTransaction();
    std::set<ObjectId> unique(spec.reads.begin(), spec.reads.end());
    EXPECT_EQ(unique.size(), spec.reads.size());
    for (ObjectId obj : spec.reads) {
      EXPECT_GE(obj, 0);
      EXPECT_LT(obj, p.db_size);
    }
  }
}

TEST(HotspotTest, HotSetSizeComputation) {
  WorkloadParams p = PaperDefaults();
  EXPECT_EQ(p.HotSetSize(), 0);
  p.hot_fraction_db = 0.2;
  p.hot_access_prob = 0.8;
  EXPECT_EQ(p.HotSetSize(), 200);
  p.hot_fraction_db = 0.0001;  // Rounds up to at least one object.
  EXPECT_EQ(p.HotSetSize(), 1);
}

TEST(ReadOnlyMixTest, FractionRespected) {
  WorkloadParams p = PaperDefaults();
  p.read_only_fraction = 0.4;
  WorkloadGenerator gen(p, Rng(57), Rng(58));
  int read_only = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    read_only += gen.NextTransaction().read_only() ? 1 : 0;
  }
  // Non-read-only-class transactions can still be read-only by chance
  // (all write coin flips fail: (0.75)^size), so the rate exceeds 0.4.
  double expected_extra = 0.6 * 0.130;  // E[(0.75)^size] for size~U[4,12].
  EXPECT_NEAR(static_cast<double>(read_only) / n, 0.4 + expected_extra, 0.02);
}

TEST(ReadOnlyMixTest, FullFractionMeansNoWritesEver) {
  WorkloadParams p = PaperDefaults();
  p.read_only_fraction = 1.0;
  WorkloadGenerator gen(p, Rng(59), Rng(60));
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(gen.NextTransaction().read_only());
  }
}

TEST(TxnClassTest, ClassFractionsRespected) {
  WorkloadParams p = PaperDefaults();
  p.classes = {TxnClass{"small", 0.7, 3, 2, 4, 0.5},
               TxnClass{"large", 0.3, 20, 15, 25, 0.0}};
  p.Validate();
  WorkloadGenerator gen(p, Rng(61), Rng(62));
  int small = 0, large = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    TxnSpec spec = gen.NextTransaction();
    if (spec.class_index == 0) {
      ++small;
      EXPECT_GE(spec.num_reads(), 2);
      EXPECT_LE(spec.num_reads(), 4);
    } else {
      ++large;
      EXPECT_GE(spec.num_reads(), 15);
      EXPECT_LE(spec.num_reads(), 25);
      EXPECT_TRUE(spec.read_only());  // write_prob 0 in this class.
    }
  }
  EXPECT_NEAR(static_cast<double>(small) / n, 0.7, 0.02);
  EXPECT_NEAR(static_cast<double>(large) / n, 0.3, 0.02);
}

TEST(TxnClassTest, SingleClassPathUnchanged) {
  WorkloadParams p = PaperDefaults();
  EXPECT_EQ(p.ClassCount(), 1);
  EXPECT_EQ(p.ClassName(0), "default");
  WorkloadGenerator gen(p, Rng(63), Rng(64));
  EXPECT_EQ(gen.NextTransaction().class_index, 0);
}

TEST(TxnClassTest, ClassNamesExposed) {
  WorkloadParams p = PaperDefaults();
  p.classes = {TxnClass{"a", 0.5, 8, 4, 12, 0.25},
               TxnClass{"b", 0.5, 8, 4, 12, 0.25}};
  EXPECT_EQ(p.ClassCount(), 2);
  EXPECT_EQ(p.ClassName(0), "a");
  EXPECT_EQ(p.ClassName(1), "b");
}

TEST(TxnClassDeathTest, FractionsMustSumToOne) {
  WorkloadParams p;
  p.classes = {TxnClass{"a", 0.5, 8, 4, 12, 0.25},
               TxnClass{"b", 0.4, 8, 4, 12, 0.25}};
  EXPECT_DEATH(p.Validate(), "sum to 1");
}

TEST(TxnClassDeathTest, ClassSizesValidated) {
  WorkloadParams p;
  p.db_size = 10;
  p.min_size = 2;
  p.max_size = 4;
  p.tran_size = 3;
  p.classes = {TxnClass{"huge", 1.0, 50, 40, 60, 0.25}};
  EXPECT_DEATH(p.Validate(), "exceed the database");
}

TEST(TxnClassDeathTest, IncompatibleWithReadOnlyFraction) {
  WorkloadParams p;
  p.read_only_fraction = 0.5;
  p.classes = {TxnClass{"a", 1.0, 8, 4, 12, 0.25}};
  EXPECT_DEATH(p.Validate(), "read-only class");
}

TEST(ParamsDeathTest, SkewRequiresBothKnobs) {
  WorkloadParams p;
  p.hot_fraction_db = 0.2;
  EXPECT_DEATH(p.Validate(), "skew needs both");
}

TEST(ParamsDeathTest, HotSetMustFitLargestTransaction) {
  WorkloadParams p;
  p.hot_fraction_db = 0.005;  // Hot set of 5 < max_size 12.
  p.hot_access_prob = 0.8;
  EXPECT_DEATH(p.Validate(), "hot set");
}

TEST(ParamsTest, SkewKeysApplyFromConfig) {
  WorkloadParams p;
  Config config;
  std::string error;
  ASSERT_TRUE(config.ParseArgs({"hot_fraction_db=0.2", "hot_access_prob=0.8",
                                "read_only_fraction=0.5"},
                               &error));
  p.ApplyConfig(config);
  EXPECT_DOUBLE_EQ(p.hot_fraction_db, 0.2);
  EXPECT_DOUBLE_EQ(p.hot_access_prob, 0.8);
  EXPECT_DOUBLE_EQ(p.read_only_fraction, 0.5);
  p.Validate();
}

TEST(ParamsDeathTest, ValidateRejectsOversizedTransaction) {
  WorkloadParams p;
  p.db_size = 10;
  p.min_size = 4;
  p.max_size = 12;
  EXPECT_DEATH(p.Validate(), "largest transaction");
}

TEST(ParamsDeathTest, ValidateRejectsInconsistentMean) {
  WorkloadParams p;
  p.tran_size = 9;  // Mean of [4,12] is 8.
  EXPECT_DEATH(p.Validate(), "tran_size");
}

TEST(ParamsDeathTest, ValidateRejectsAllZeroCosts) {
  WorkloadParams p;
  p.obj_io = 0;
  p.obj_cpu = 0;
  EXPECT_DEATH(p.Validate(), "consume");
}

}  // namespace
}  // namespace ccsim
