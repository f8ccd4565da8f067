#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_news{0};
std::atomic<uint64_t> g_bytes{0};
thread_local int t_uncounted = 0;

}  // namespace

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCounts ReadAllocCounts() {
  return AllocCounts{g_news.load(std::memory_order_relaxed),
                     g_bytes.load(std::memory_order_relaxed)};
}

ScopedUncounted::ScopedUncounted() { ++t_uncounted; }
ScopedUncounted::~ScopedUncounted() { --t_uncounted; }

}  // namespace perfbench

// The array and nothrow forms of the standard library call these two, so
// replacing them counts every non-aligned allocation.
void* operator new(std::size_t size) {
  if (perfbench::g_counting.load(std::memory_order_relaxed) &&
      perfbench::t_uncounted == 0) {
    perfbench::g_news.fetch_add(1, std::memory_order_relaxed);
    perfbench::g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
