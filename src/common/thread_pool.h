// Fixed-size worker pool used by the micro-batcher's latch-free batch apply
// and the distributed-shard simulation.
//
// ParallelFor is the only entry point, and each call waits for its own
// tasks only, so threads sharing one pool never wait for each other's
// work. The queue is guarded by one Mutex and each call's completion
// count by that call's own Mutex, all annotated for Clang's thread-safety
// analysis; condition waits use the spurious-wakeup-safe while-loop form
// so every guarded read stays inside the capability scope.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace platod2gl {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Run fn(i) for i in [0, n) on the pool's workers and return once every
  /// one of them has finished. Thread-safe, but not from inside one of
  /// this pool's own tasks (the caller would hold a worker while waiting).
  /// The range is cut into blocks of `grain` consecutive indices; grain = 0
  /// means one block per worker — the lowest queue overhead, but a block
  /// of expensive indices stalls the whole call, which smaller grains
  /// rebalance across the pool.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                   std::size_t grain = 0) EXCLUDES(mu_);

  std::size_t num_threads() const { return workers_.size(); }

 private:
  /// One ParallelFor call's outstanding blocks.
  struct Call {
    Mutex mu;
    CondVar done_cv;  // signalled when pending reaches 0
    std::size_t pending GUARDED_BY(mu) = 0;
  };
  /// fn(begin) ... fn(end - 1) of one call.
  struct Block {
    const std::function<void(std::size_t)>* fn;
    std::size_t begin;
    std::size_t end;
    Call* call;
  };

  void WorkerLoop() EXCLUDES(mu_);

  std::vector<std::thread> workers_;  // immutable after construction
  Mutex mu_;
  CondVar task_cv_;  // signalled when a block is available
  std::queue<Block> blocks_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace platod2gl
