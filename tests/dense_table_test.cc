// Unit tests for the dense containers (util/dense_table.h), plus
// the behavior-preservation anchor of the dense-state migration: every
// algorithm's replay digest at a pinned contended configuration must equal
// the value recorded with the pre-migration hash-map implementation.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cc/factory.h"
#include "core/closed_system.h"
#include "sim/simulator.h"
#include "util/dense_table.h"

namespace ccsim {
namespace {

/// A value type that proves Recycle() (capacity-preserving reset) is used
/// when a slot is reused.
struct Payload {
  std::vector<int> items;
  int recycles = 0;

  void Recycle() {
    items.clear();
    ++recycles;  // Survives recycling on purpose: counts slot reuses.
  }
};

TEST(GranuleTableTest, TouchMaterializesAndFindSeesOnlyThisEpoch) {
  GranuleTable<int> table;
  table.Reserve(8);
  EXPECT_EQ(table.Find(3), nullptr);

  table.Touch(3) = 42;
  ASSERT_NE(table.Find(3), nullptr);
  EXPECT_EQ(*table.Find(3), 42);
  EXPECT_EQ(table.Find(4), nullptr);  // In capacity but never touched.
  EXPECT_EQ(table.touched_count(), 1u);

  // Touch is idempotent within an epoch: the value persists.
  EXPECT_EQ(table.Touch(3), 42);
  EXPECT_EQ(table.touched_count(), 1u);
}

TEST(GranuleTableTest, ClearIsLazy) {
  GranuleTable<int> table;
  table.Reserve(4);
  table.Touch(0) = 10;
  table.Touch(2) = 20;
  EXPECT_EQ(table.touched_count(), 2u);

  // O(1) clear: the stale values still sit in their slots, but every Find
  // answers "absent" and a re-touch sees a fresh default-constructed value.
  table.Clear();
  EXPECT_EQ(table.touched_count(), 0u);
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_EQ(table.Find(2), nullptr);
  EXPECT_EQ(table.Touch(2), 0);
  EXPECT_EQ(table.touched_count(), 1u);
}

TEST(GranuleTableTest, StaleEpochSlotIsRecycledNotReused) {
  GranuleTable<Payload> table;
  table.Touch(5).items = {1, 2, 3};
  table.Clear();

  // The stale value must be Recycle()d on re-touch: logically fresh
  // (containers cleared), physically reused (recycle counter advanced).
  // Count is 2, not 1: materialization recycles unconditionally, so the
  // first-ever touch already recycled the default-constructed value.
  Payload& p = table.Touch(5);
  EXPECT_TRUE(p.items.empty());
  EXPECT_EQ(p.recycles, 2);
}

TEST(GranuleTableTest, GrowsPastReservedCapacity) {
  GranuleTable<int> table;
  table.Reserve(2);
  table.Touch(100) = 7;  // Way past capacity: must grow, not crash.
  EXPECT_GE(table.capacity(), 101u);
  ASSERT_NE(table.Find(100), nullptr);
  EXPECT_EQ(*table.Find(100), 7);
}

TEST(GranuleTableTest, ForEachTouchedVisitsFirstTouchOrder) {
  GranuleTable<int> table;
  table.Touch(9) = 1;
  table.Touch(2) = 2;
  table.Touch(7) = 3;
  std::vector<int64_t> order;
  table.ForEachTouched([&order](int64_t id, int&) { order.push_back(id); });
  EXPECT_EQ(order, (std::vector<int64_t>{9, 2, 7}));
}

TEST(GranuleTableTest, GrowthWhileIteratingIsSafeAndVisited) {
  // ForEachTouched walks the touch list by index, so touching new ids from
  // inside the callback — which may reallocate the slot vector — must
  // neither invalidate the walk nor skip the new slots.
  GranuleTable<int> table;
  table.Reserve(2);
  table.Touch(0) = 0;
  table.Touch(1) = 1;
  std::vector<int64_t> visited;
  table.ForEachTouched([&](int64_t id, int& value) {
    visited.push_back(id);
    // Read before growing: a Touch that grows the table invalidates value
    // references taken earlier, including the one passed to this callback.
    EXPECT_EQ(value, static_cast<int>(id));
    if (id < 2) {
      // Touch an id far past capacity: slots_ reallocates mid-iteration.
      table.Touch(id + 50) = static_cast<int>(id + 50);
    }
  });
  EXPECT_EQ(visited, (std::vector<int64_t>{0, 1, 50, 51}));
  EXPECT_EQ(table.touched_count(), 4u);
}

TEST(TxnSlotMapTest, InsertFindEraseBasics) {
  TxnSlotMap<int> map;
  map.Reserve(4);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(10), nullptr);
  EXPECT_FALSE(map.Erase(10));

  map.Insert(10) = 1;
  map.Insert(20) = 2;
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.Contains(10));
  EXPECT_EQ(map.At(20), 2);
  EXPECT_TRUE(map.Erase(10));
  EXPECT_FALSE(map.Contains(10));
  EXPECT_EQ(map.size(), 1u);
}

TEST(TxnSlotMapTest, SlotReuseRecyclesValueInPlace) {
  TxnSlotMap<Payload> map;
  map.Reserve(4);
  Payload& first = map.Insert(100);
  first.items = {1, 2, 3};
  Payload* first_addr = &first;
  ASSERT_TRUE(map.Erase(100));

  // LIFO slot reuse: the next insert lands in the same slot, with the old
  // value recycled (cleared, capacity retained) rather than replaced.
  Payload& second = map.Insert(200);
  EXPECT_EQ(&second, first_addr);
  EXPECT_TRUE(second.items.empty());
  EXPECT_EQ(second.recycles, 1);
  EXPECT_EQ(map.Find(100), nullptr);
  EXPECT_EQ(map.Find(200), first_addr);
}

TEST(TxnSlotMapTest, SparseGrowingKeysOnBoundedSlots) {
  // Transaction ids grow without bound while the live set stays small; the
  // map must keep a bounded slot population (ids recycle through the same
  // handful of slots).
  TxnSlotMap<Payload> map;
  map.Reserve(4);
  int total_recycles = 0;
  for (int64_t id = 0; id < 1000; ++id) {
    Payload& p = map.Upsert(id);
    p.items.push_back(static_cast<int>(id));
    total_recycles = std::max(total_recycles, p.recycles);
    if (id >= 3) {
      ASSERT_TRUE(map.Erase(id - 3));  // Live window of 4 ids.
    }
  }
  EXPECT_EQ(map.size(), 3u);
  EXPECT_GT(total_recycles, 200);  // Slots really were reused, not grown.
}

TEST(TxnSlotMapTest, EraseKeepsProbeChainsIntact) {
  // Dense sequential ids stress the open-addressed index's backward-shift
  // deletion: after arbitrary erase patterns every surviving key must still
  // resolve.
  TxnSlotMap<int> map;
  for (int64_t id = 0; id < 64; ++id) map.Insert(id) = static_cast<int>(id);
  for (int64_t id = 0; id < 64; id += 2) ASSERT_TRUE(map.Erase(id));
  for (int64_t id = 0; id < 64; ++id) {
    if (id % 2 == 0) {
      EXPECT_EQ(map.Find(id), nullptr) << id;
    } else {
      ASSERT_NE(map.Find(id), nullptr) << id;
      EXPECT_EQ(*map.Find(id), static_cast<int>(id));
    }
  }
}

TEST(TxnSlotMapTest, ForEachIsSlotOrderDeterministic) {
  TxnSlotMap<int> map;
  map.Insert(1000) = 1;
  map.Insert(7) = 2;
  map.Insert(99) = 3;
  ASSERT_TRUE(map.Erase(7));  // Slot 1 vacated...
  map.Insert(123456) = 4;     // ...and reused (LIFO): slot order 1000,123456,99.
  std::vector<int64_t> order;
  map.ForEach([&order](int64_t key, int&) { order.push_back(key); });
  EXPECT_EQ(order, (std::vector<int64_t>{1000, 123456, 99}));
}

TEST(SmallIdSetTest, SortedDedupedMembership) {
  SmallIdSet set;
  EXPECT_TRUE(set.insert(5));
  EXPECT_TRUE(set.insert(1));
  EXPECT_TRUE(set.insert(9));
  EXPECT_FALSE(set.insert(5));  // Duplicate.
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.contains(1));
  EXPECT_EQ(set.count(4), 0u);
  EXPECT_EQ(std::vector<int64_t>(set.begin(), set.end()),
            (std::vector<int64_t>{1, 5, 9}));

  EXPECT_TRUE(set.erase(5));
  EXPECT_FALSE(set.erase(5));
  EXPECT_EQ(std::vector<int64_t>(set.begin(), set.end()),
            (std::vector<int64_t>{1, 9}));

  SmallIdSet init = {3, 1, 3};
  EXPECT_EQ(std::vector<int64_t>(init.begin(), init.end()),
            (std::vector<int64_t>{1, 3}));
}

std::vector<int64_t> Drain(RingQueue<int64_t>& ring) {
  std::vector<int64_t> out;
  while (!ring.empty()) {
    out.push_back(ring.front());
    ring.pop_front();
  }
  return out;
}

TEST(RingQueueTest, FifoAcrossWrapAroundAndGrowth) {
  RingQueue<int64_t> ring;
  EXPECT_TRUE(ring.empty());
  // Walk the head around the initial buffer several times so the live
  // window straddles the wrap point, then grow while wrapped.
  int64_t next_in = 0, next_out = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 5; ++i) ring.push_back(next_in++);
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(ring.front(), next_out++);
      ring.pop_front();
    }
  }
  EXPECT_EQ(ring.size(), 20u);  // Grew from 8 past 16 while wrapped.
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], next_out + static_cast<int64_t>(i));
  }
  std::vector<int64_t> expected;
  for (int64_t v = next_out; v < next_in; ++v) expected.push_back(v);
  EXPECT_EQ(Drain(ring), expected);
  EXPECT_TRUE(ring.empty());
}

TEST(RingQueueTest, EraseAtIndexKeepsOrder) {
  RingQueue<int64_t> ring;
  // Offset the head so erasures shift elements across the wrap point.
  for (int64_t v = 0; v < 6; ++v) ring.push_back(v);
  for (int i = 0; i < 6; ++i) ring.pop_front();
  for (int64_t v = 10; v < 17; ++v) ring.push_back(v);  // 10..16, wrapped.
  ring.erase(0);                                       // Front.
  ring.erase(2);                                       // Middle: 13.
  ring.erase(ring.size() - 1);                         // Back: 16.
  EXPECT_EQ(ring.size(), 4u);
  ring.push_back(20);
  EXPECT_EQ(Drain(ring), (std::vector<int64_t>{11, 12, 14, 15, 20}));
}

TEST(RingQueueDeathTest, PopAndEraseCheckBounds) {
  RingQueue<int64_t> ring;
  EXPECT_DEATH(ring.pop_front(), "empty");
  ring.push_back(1);
  EXPECT_DEATH(ring.erase(1), "out of range");
}

// --- Behavior-preservation anchor -------------------------------------------

struct DigestPin {
  const char* algorithm;
  uint64_t replay_digest;
  int64_t commits;
  VictimPolicy victim_policy = VictimPolicy::kYoungest;
  int lock_granule_size = 1;
};

/// Replay digests recorded at this exact configuration with the pre-dense
/// (unordered_map-based) cc implementations. The dense-state migration is a
/// pure data-structure change: every algorithm must still produce these
/// bit-identical digests. A mismatch means the migration changed a decision,
/// an iteration order that feeds one, or a callback order.
constexpr DigestPin kPins[] = {
    {"blocking", 0x2fc4f0fd2f37f480ull, 200},
    {"immediate_restart", 0x6f3c85e4b827fa32ull, 180},
    {"optimistic", 0xdf105dae5c89f62cull, 179},
    {"optimistic_forward", 0x9f2db1a246788cbfull, 201},
    {"wound_wait", 0x59e4bafc244dcec9ull, 197},
    {"wait_die", 0xefa86c4ffcf635fbull, 180},
    {"basic_to", 0xe3f56e74ce3b59cfull, 164},
    {"mvto", 0xe3f56e74ce3b59cfull, 164},
    {"static_locking", 0xd126504c8b7e86a6ull, 201},
    // Blocking under its other two victim policies, which restart other
    // cycle members here: the engine's policy must reach the algorithm.
    {"blocking", 0x1f447453f74ec0c5ull, 199, VictimPolicy::kOldest},
    {"blocking", 0x8587d94ff589deeeull, 199, VictimPolicy::kFewestLocks},
    // Static locking over 4-object granules, which transactions both read
    // and write; recorded while static locking kept its own lock table.
    {"static_locking", 0xcb107ffca7d161e4ull, 185, VictimPolicy::kYoungest, 4},
};

TEST(DenseStateDigestTest, AllNineAlgorithmsMatchPreMigrationDigests) {
  for (const std::string& algorithm : AllAlgorithms()) {
    EXPECT_TRUE(std::any_of(std::begin(kPins), std::end(kPins),
                            [&](const DigestPin& pin) {
                              return algorithm == pin.algorithm;
                            }))
        << algorithm << " has no digest pin";
  }
  for (const DigestPin& pin : kPins) {
    SCOPED_TRACE(static_cast<int>(pin.victim_policy));
    SCOPED_TRACE(pin.lock_granule_size);
    EngineConfig config;
    config.workload.db_size = 100;  // Hot: ~10 granules per transaction of 100.
    config.workload.tran_size = 5;
    config.workload.min_size = 2;
    config.workload.max_size = 8;
    config.workload.write_prob = 0.4;
    config.workload.num_terms = 20;
    config.workload.mpl = 10;
    config.workload.ext_think_time = 500 * kMillisecond;
    config.workload.obj_io = FromMillis(5);
    config.workload.obj_cpu = FromMillis(2);
    config.resources = ResourceConfig::Finite(1, 2);
    config.algorithm = pin.algorithm;
    config.victim_policy = pin.victim_policy;
    config.lock_granule_size = pin.lock_granule_size;
    config.seed = 7;
    config.audit = true;

    Simulator sim;
    ClosedSystem system(&sim, config);
    MetricsReport report = system.RunExperiment(3, 2 * kSecond, 1 * kSecond);
    EXPECT_EQ(report.replay_digest, pin.replay_digest) << pin.algorithm;
    EXPECT_EQ(report.commits, pin.commits) << pin.algorithm;
    EXPECT_EQ(report.audit_violations, 0) << pin.algorithm;
  }
}

}  // namespace
}  // namespace ccsim
