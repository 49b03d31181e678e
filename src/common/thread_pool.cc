#include "common/thread_pool.h"

#include <algorithm>

namespace platod2gl {

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn,
                             std::size_t grain) {
  if (n == 0) return;
  if (grain == 0) {
    const std::size_t blocks = std::min(n, num_threads());
    grain = (n + blocks - 1) / blocks;
  }
  Call call;
  {
    MutexLock call_lock(call.mu);
    call.pending = (n + grain - 1) / grain;
  }
  {
    MutexLock lock(mu_);
    for (std::size_t begin = 0; begin < n; begin += grain) {
      blocks_.push(Block{&fn, begin, std::min(n, begin + grain), &call});
    }
  }
  task_cv_.notify_all();
  MutexLock call_lock(call.mu);
  // while-loop form instead of a predicate lambda: the guarded read of
  // pending stays inside this function's capability scope, so the
  // thread-safety analysis can check it (a lambda body would need its own
  // annotation).
  while (call.pending != 0) call.done_cv.wait(call.mu);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    Block block{};
    {
      MutexLock lock(mu_);
      while (!stop_ && blocks_.empty()) task_cv_.wait(mu_);
      if (stop_ && blocks_.empty()) return;
      block = blocks_.front();
      blocks_.pop();
    }
    for (std::size_t i = block.begin; i < block.end; ++i) (*block.fn)(i);
    // Notify under the call's lock: the caller cannot see pending reach 0,
    // return and destroy `call` until this unlock.
    MutexLock call_lock(block.call->mu);
    if (--block.call->pending == 0) block.call->done_cv.notify_all();
  }
}

}  // namespace platod2gl
