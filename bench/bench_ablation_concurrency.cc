// Ablation: latch-free batch updates (PALM-style, Section VI-B) vs the
// latch-based design the paper argues against, vs plain sequential
// application.
//
// The paper's argument: latch-free beats latch-based, since it acquires
// one lock per source group instead of one per update and gets locality
// from the sorted batch. Measured on a 4-vCPU host with OS-placed workers
// (EXPERIMENTS.md, 7 interleaved runs), latch-based is ahead at every
// thread count from 1 to 8: the latch-free path sorts the whole batch on
// the calling thread before its parallel phase (~40% of a 4-thread
// batch), so it passes sequential only from 4 threads, while latch-based
// does from 2.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "common/thread_pool.h"

using namespace platod2gl;
using namespace platod2gl::bench;

namespace {

// The latch-based reference (Fig. 11(c)'s implicit baseline): threads race
// over the raw batch and take the map-shard latch for every update. ~8
// blocks per worker keep the task queue cold while still letting the pool
// rebalance when a block lands on a run of expensive updates (deep trees,
// splits).
void ApplyLatchBased(TopologyStore* store, ThreadPool* pool,
                     const std::vector<EdgeUpdate>& batch) {
  const std::size_t grain = std::max<std::size_t>(
      16, batch.size() / (pool->num_threads() * 8));
  pool->ParallelFor(
      batch.size(), [&](std::size_t i) { store->Apply(batch[i]); }, grain);
}

}  // namespace

int main() {
  std::printf("=== Ablation: latch-free vs latch-based batch updates ===\n");
  std::printf("(%u hardware thread(s) available)\n\n",
              std::thread::hardware_concurrency());

  const Dataset ds = MakeWeChatMini();
  UpdateStreamParams sp;
  sp.num_ops = 1u << 16;
  sp.insert_fraction = 0.4;
  sp.update_fraction = 0.4;
  const std::vector<EdgeUpdate> ops = MakeUpdateStream(ds.edges, sp);

  auto preload = [&](TopologyStore* store) {
    for (std::size_t i = 0;
         i < std::min<std::size_t>(ds.edges.size(), 1000000); ++i) {
      const Edge& e = ds.edges[i];
      store->AddEdgeUnchecked(e.src, e.dst, e.weight);
    }
  };

  {
    TopologyStore store;
    preload(&store);
    Timer t;
    for (const EdgeUpdate& u : ops) store.Apply(u);
    std::printf("%-22s %10.2f ms\n", "sequential", t.ElapsedMillis());
  }

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    TopologyStore a, b;
    preload(&a);
    preload(&b);
    ThreadPool pool(threads);

    Timer t1;
    a.ApplyBatch(ops, &pool);
    const double latch_free = t1.ElapsedMillis();

    Timer t2;
    ApplyLatchBased(&b, &pool, ops);
    const double latch_based = t2.ElapsedMillis();

    std::printf("%zu thread(s):  latch-free %10.2f ms   latch-based "
                "%10.2f ms   (%.2fx)\n",
                threads, latch_free, latch_based, latch_based / latch_free);
  }
  return 0;
}
