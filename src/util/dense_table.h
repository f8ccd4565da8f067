// Dense, cache-friendly containers for the concurrency-control hot path.
//
// The engine's per-granule and per-transaction state used to live in
// std::unordered_map/set even though both key spaces are nearly dense:
// ObjectId granules fall in [0, num_granules) and live transactions are
// bounded by the multiprogramming level. These containers exploit that:
//
//  * GranuleTable<T>  — a flat vector directly indexed by id, with an
//    epoch-tagged lazy reset: Clear() bumps the epoch in O(1) and a slot's
//    value materializes (default-constructed or Recycle()d) on its first
//    touch of the new epoch. A sweep can reuse one table across points with
//    millions of granules without paying an O(db_size) wipe per point.
//  * TxnSlotMap<T>    — maps sparse, ever-growing transaction ids onto a
//    small set of reusable slots (an open-addressed index over a dense slot
//    vector with a free list). Values keep their heap capacity across
//    Erase/Insert cycles, so the steady state allocates nothing.
//  * SmallIdSet       — a sorted small-vector id set (membership via binary
//    search) replacing unordered_set for paper-sized access sets and
//    victim/doomed sets. Iteration order is ascending, hence deterministic.
//  * RingQueue<T>     — a growable circular FIFO replacing std::deque for the
//    engine's steady-state queues (server-pool waiters, the ready queue). A
//    deque used as a FIFO frees and reallocates a node every few pushes; the
//    ring only allocates when it outgrows its high-water mark.
//
// Value recycling: when a slot is reused (stale-epoch touch, slot reuse in
// TxnSlotMap), the old value is reset via `value.Recycle()` when T provides
// it — implementations clear their containers but keep capacity — and via
// `value = T{}` otherwise. Both must leave the value indistinguishable from
// default-constructed.
//
// Determinism: iteration (GranuleTable in first-touch order, TxnSlotMap in
// slot order, SmallIdSet ascending) depends only on the operation history,
// never on hash seeds or pointer values, so simulation outputs stay a pure
// function of the seed (docs/PERFORMANCE.md "Dense CC state").
#ifndef CCSIM_UTIL_DENSE_TABLE_H_
#define CCSIM_UTIL_DENSE_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "util/check.h"

namespace ccsim {

namespace dense_internal {

template <typename T>
void RecycleValue(T& value) {
  if constexpr (requires(T& t) { t.Recycle(); }) {
    value.Recycle();
  } else {
    value = T{};
  }
}

/// SplitMix64 finalizer: full-avalanche mixing for sequential ids.
inline uint64_t MixId(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace dense_internal

/// Direct-indexed table over a dense id space with epoch-tagged lazy reset.
/// Ids must be non-negative; the table grows (amortized) past its reserved
/// capacity if touched beyond it.
template <typename T>
class GranuleTable {
 public:
  /// Pre-sizes the slot and touch-list storage so a workload confined to
  /// ids < n never allocates after this call.
  void Reserve(size_t n) {
    if (n > slots_.size()) slots_.resize(n);
    touched_.reserve(n);
  }

  /// O(1) logical clear: bumps the epoch so every slot reads as absent and
  /// re-materializes default-constructed on its next touch.
  void Clear() {
    ++epoch_;
    touched_.clear();
  }

  /// Materializes (resetting a stale-epoch value) and returns the slot.
  T& Touch(int64_t id) {
    CCSIM_CHECK_GE(id, 0);
    const size_t idx = static_cast<size_t>(id);
    if (idx >= slots_.size()) slots_.resize(idx + 1);
    Slot& slot = slots_[idx];
    if (slot.epoch != epoch_) {
      dense_internal::RecycleValue(slot.value);
      slot.epoch = epoch_;
      touched_.push_back(id);
    }
    return slot.value;
  }

  /// The slot's value, or nullptr if never touched this epoch.
  T* Find(int64_t id) {
    const size_t idx = static_cast<size_t>(id);
    if (id < 0 || idx >= slots_.size()) return nullptr;
    Slot& slot = slots_[idx];
    return slot.epoch == epoch_ ? &slot.value : nullptr;
  }
  const T* Find(int64_t id) const {
    return const_cast<GranuleTable*>(this)->Find(id);
  }

  /// Number of slots materialized this epoch.
  size_t touched_count() const { return touched_.size(); }
  size_t capacity() const { return slots_.size(); }

  /// Visits every slot materialized this epoch, in first-touch order, as
  /// fn(id, value). Touching new ids from inside fn is allowed; the new
  /// slots are appended to the walk and visited too. Caveat: a Touch that
  /// grows the table invalidates outstanding value references — including
  /// the one passed to the current fn invocation — so read the value before
  /// touching past capacity.
  template <typename Fn>
  void ForEachTouched(Fn&& fn) {
    for (size_t i = 0; i < touched_.size(); ++i) {
      const int64_t id = touched_[i];
      fn(id, slots_[static_cast<size_t>(id)].value);
    }
  }
  template <typename Fn>
  void ForEachTouched(Fn&& fn) const {
    for (size_t i = 0; i < touched_.size(); ++i) {
      const int64_t id = touched_[i];
      fn(id, slots_[static_cast<size_t>(id)].value);
    }
  }

 private:
  struct Slot {
    uint64_t epoch = 0;  ///< 0 never matches: epoch_ starts at 1.
    T value{};
  };
  std::vector<Slot> slots_;
  std::vector<int64_t> touched_;  ///< Ids materialized this epoch, in order.
  uint64_t epoch_ = 1;
};

/// Maps a bounded live set of sparse non-negative ids (transaction ids grow
/// without bound; at most ~MPL are live) onto reusable dense slots. Values
/// keep their capacity across Erase/Insert cycles, so the steady state is
/// allocation-free once the index and slot vector reach working size.
template <typename T>
class TxnSlotMap {
 public:
  /// Pre-sizes for n simultaneously live ids.
  void Reserve(size_t n) {
    slots_.reserve(n);
    free_.reserve(n);
    size_t buckets = 16;
    while (buckets < 2 * n) buckets <<= 1;
    if (buckets > buckets_.size()) Rehash(buckets);
  }

  /// Creates the entry for `key` (which must not be present) and returns its
  /// value, recycled from a previously erased slot when one is free.
  T& Insert(int64_t key) {
    CCSIM_CHECK_GE(key, 0);
    if ((size_ + 1) * 2 > buckets_.size()) {
      Rehash(buckets_.empty() ? 16 : buckets_.size() * 2);
    }
    size_t pos = dense_internal::MixId(static_cast<uint64_t>(key)) & mask_;
    while (buckets_[pos].slot >= 0) {
      CCSIM_CHECK_NE(buckets_[pos].key, key) << "duplicate TxnSlotMap insert";
      pos = (pos + 1) & mask_;
    }
    int32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      dense_internal::RecycleValue(slots_[static_cast<size_t>(slot)].value);
    } else {
      slot = static_cast<int32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[static_cast<size_t>(slot)].key = key;
    buckets_[pos] = Bucket{key, slot};
    ++size_;
    return slots_[static_cast<size_t>(slot)].value;
  }

  /// The entry for `key`, inserting a recycled one if absent.
  T& Upsert(int64_t key) {
    T* value = Find(key);
    return value != nullptr ? *value : Insert(key);
  }

  /// Removes `key` if present; returns whether it was. The slot is kept
  /// (capacity and all) for reuse by a later Insert.
  bool Erase(int64_t key) {
    size_t pos = FindBucket(key);
    if (pos == kNoBucket) return false;
    const int32_t slot = buckets_[pos].slot;
    slots_[static_cast<size_t>(slot)].key = -1;
    free_.push_back(slot);
    --size_;
    // Backward-shift deletion keeps probe chains tombstone-free.
    size_t hole = pos;
    size_t next = (hole + 1) & mask_;
    while (buckets_[next].slot >= 0) {
      const size_t home =
          dense_internal::MixId(static_cast<uint64_t>(buckets_[next].key)) &
          mask_;
      // Shift back unless the entry already sits in [home, hole] cyclically.
      const bool reachable = ((next - home) & mask_) >= ((next - hole) & mask_);
      if (reachable) {
        buckets_[hole] = buckets_[next];
        hole = next;
      }
      next = (next + 1) & mask_;
    }
    buckets_[hole] = Bucket{};
    return true;
  }

  T* Find(int64_t key) {
    const size_t pos = FindBucket(key);
    if (pos == kNoBucket) return nullptr;
    return &slots_[static_cast<size_t>(buckets_[pos].slot)].value;
  }
  const T* Find(int64_t key) const {
    return const_cast<TxnSlotMap*>(this)->Find(key);
  }

  T& At(int64_t key) {
    T* value = Find(key);
    CCSIM_CHECK(value != nullptr) << "TxnSlotMap missing key " << key;
    return *value;
  }
  const T& At(int64_t key) const {
    return const_cast<TxnSlotMap*>(this)->At(key);
  }

  bool Contains(int64_t key) const { return FindBucket(key) != kNoBucket; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Visits every live entry as fn(key, value) in slot order — a
  /// deterministic function of the Insert/Erase history (slots are reused
  /// LIFO), independent of the key values' magnitudes.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& slot : slots_) {
      if (slot.key >= 0) fn(slot.key, slot.value);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key >= 0) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    int64_t key = -1;  ///< -1 marks a vacant (reusable) slot.
    T value{};
  };
  struct Bucket {
    int64_t key = -1;
    int32_t slot = -1;  ///< -1 marks an empty bucket.
  };
  static constexpr size_t kNoBucket = static_cast<size_t>(-1);

  size_t FindBucket(int64_t key) const {
    if (buckets_.empty() || key < 0) return kNoBucket;
    size_t pos = dense_internal::MixId(static_cast<uint64_t>(key)) & mask_;
    while (buckets_[pos].slot >= 0) {
      if (buckets_[pos].key == key) return pos;
      pos = (pos + 1) & mask_;
    }
    return kNoBucket;
  }

  void Rehash(size_t new_buckets) {
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(new_buckets, Bucket{});
    mask_ = new_buckets - 1;
    for (const Bucket& bucket : old) {
      if (bucket.slot < 0) continue;
      size_t pos =
          dense_internal::MixId(static_cast<uint64_t>(bucket.key)) & mask_;
      while (buckets_[pos].slot >= 0) pos = (pos + 1) & mask_;
      buckets_[pos] = bucket;
    }
  }

  std::vector<Slot> slots_;    ///< Dense values; indices stay stable.
  std::vector<int32_t> free_;  ///< Vacant slot indices (LIFO reuse).
  std::vector<Bucket> buckets_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Sorted small-vector set of non-negative ids. Insert/erase shift the tail
/// (fine for paper-sized sets: access sets of ~8 objects, doomed sets of a
/// few victims); membership is a binary search; iteration is ascending.
/// clear() keeps capacity, so per-incarnation reuse is allocation-free.
class SmallIdSet {
 public:
  SmallIdSet() = default;
  SmallIdSet(std::initializer_list<int64_t> init) {
    for (int64_t v : init) insert(v);
  }

  /// Inserts `v`; returns true if it was not already present.
  bool insert(int64_t v) {
    auto it = std::lower_bound(items_.begin(), items_.end(), v);
    if (it != items_.end() && *it == v) return false;
    // push_back + rotate rather than vector::insert: same effect, but the
    // iterator survives no reallocation, which also dodges GCC 12's spurious
    // -Warray-bounds on insert's realloc path.
    const size_t pos = static_cast<size_t>(it - items_.begin());
    items_.push_back(v);
    std::rotate(items_.begin() + static_cast<ptrdiff_t>(pos),
                items_.end() - 1, items_.end());
    return true;
  }

  /// Removes `v`; returns true if it was present.
  bool erase(int64_t v) {
    auto it = std::lower_bound(items_.begin(), items_.end(), v);
    if (it == items_.end() || *it != v) return false;
    items_.erase(it);
    return true;
  }

  bool contains(int64_t v) const {
    return std::binary_search(items_.begin(), items_.end(), v);
  }
  size_t count(int64_t v) const { return contains(v) ? 1 : 0; }

  void clear() { items_.clear(); }
  void reserve(size_t n) { items_.reserve(n); }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  std::vector<int64_t>::const_iterator begin() const { return items_.begin(); }
  std::vector<int64_t>::const_iterator end() const { return items_.end(); }

  SmallIdSet& operator=(const SmallIdSet&) = default;
  SmallIdSet(const SmallIdSet&) = default;
  SmallIdSet(SmallIdSet&&) = default;
  SmallIdSet& operator=(SmallIdSet&&) = default;

  /// Slot-recycling hook: keep capacity on reuse.
  void Recycle() { items_.clear(); }

 private:
  std::vector<int64_t> items_;
};

/// Circular FIFO over a power-of-two buffer that doubles when full. Starts
/// empty (no allocation until the first push) and never shrinks, so a queue
/// that has reached its working depth pushes and pops without touching the
/// heap. T should be cheap to copy: elements move by assignment on growth
/// and erase.
template <typename T>
class RingQueue {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void push_back(const T& value) {
    if (size_ == buf_.size()) Grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = value;
    ++size_;
  }

  /// The i-th element from the front (0 = oldest). Requires i < size().
  T& operator[](size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  const T& operator[](size_t i) const {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  T& front() { return (*this)[0]; }

  void pop_front() {
    CCSIM_CHECK_GT(size_, 0u) << "pop_front on an empty RingQueue";
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  /// Removes the i-th element, keeping the others in order. O(size - i):
  /// meant for picks near the front (the verifier's ready-queue choice).
  void erase(size_t i) {
    CCSIM_CHECK_LT(i, size_) << "RingQueue erase out of range";
    for (size_t j = i + 1; j < size_; ++j) (*this)[j - 1] = (*this)[j];
    --size_;
  }

 private:
  void Grow() {
    std::vector<T> bigger(buf_.empty() ? kInitialCapacity : 2 * buf_.size());
    for (size_t i = 0; i < size_; ++i) bigger[i] = (*this)[i];
    buf_.swap(bigger);
    head_ = 0;
  }

  static constexpr size_t kInitialCapacity = 8;

  std::vector<T> buf_;  ///< Power-of-two length (or empty).
  size_t head_ = 0;     ///< Index of the front element in buf_.
  size_t size_ = 0;
};

}  // namespace ccsim

#endif  // CCSIM_UTIL_DENSE_TABLE_H_
