#include "exec/thread_pool.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/check.h"

namespace ccsim {

ThreadPool::ThreadPool(int threads) {
  CCSIM_CHECK_GE(threads, 1);
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  WaitIdle();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    if (first_exception_ != nullptr) {
      // A task threw and nobody called Wait() to collect it; don't let the
      // failure vanish silently, but a destructor must not throw.
      std::fprintf(stderr,
                   "ThreadPool: dropping an unobserved task exception "
                   "(no Wait() after the failing task)\n");
      first_exception_ = nullptr;
    }
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  CCSIM_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    CCSIM_CHECK(!stopping_) << "Submit after destruction began";
    queue_.push_back(std::move(task));
    ++pending_;
  }
  work_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::exception_ptr pending_exception;
  {
    std::unique_lock<std::mutex> lock(mu_);
    all_idle_.wait(lock, [this] { return pending_ == 0; });
    pending_exception = std::exchange(first_exception_, nullptr);
  }
  if (pending_exception != nullptr) std::rethrow_exception(pending_exception);
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock, [this] { return pending_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (first_exception_ == nullptr) {
        first_exception_ = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
      if (pending_ == 0) all_idle_.notify_all();
    }
  }
}

void ParallelFor(int64_t n, int jobs,
                 const std::function<void(int64_t)>& body) {
  CCSIM_CHECK_GE(n, 0);
  if (n == 0) return;
  if (jobs <= 1 || n == 1) {
    for (int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool(static_cast<int>(
      std::min<int64_t>(jobs, n)));
  for (int64_t i = 0; i < n; ++i) {
    pool.Submit([&body, i] { body(i); });
  }
  pool.Wait();
}

}  // namespace ccsim
