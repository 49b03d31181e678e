// Table V reproduction: distribution of updating operations over leaf vs
// non-leaf samtree nodes while building the WeChat dataset, varying node
// capacity 64 .. 1024.
//
// Paper result: leaf operations dominate (>98%) at every capacity, and
// the internal share shrinks as capacity grows (1.91% at 64 down to
// 0.02% at 1024) — which is why making *leaf* updates cheap (FSTable)
// matters far more than the internal CSTables.
//
// Counting note: we count *structural* node modifications (appends,
// removals, splits, child adoptions), not the O(c)-bounded aggregation
// refreshes that every ancestor performs — the paper's ratios only make
// sense under this interpretation (see EXPERIMENTS.md).
#include <cstdio>

#include "baselines/samtree_store.h"
#include "bench_util.h"

using namespace platod2gl;
using namespace platod2gl::bench;

int main() {
  std::printf(
      "=== Table V: leaf vs non-leaf update operations (wechat-mini) "
      "===\n");
  std::printf("(scale factor %.2f)\n\n", DatasetScale());
  const Dataset ds = MakeWeChatMini();

  std::printf("%-14s %14s %14s %10s %10s\n", "capacity", "leaf ops",
              "internal ops", "leaf %", "internal %");
  PrintRule();

  for (std::uint32_t capacity : {64u, 128u, 256u, 512u, 1024u}) {
    SamtreeStore store(SamtreeConfig{.node_capacity = capacity,
                                     .alpha = 0,
                                     .compress_ids = true});
    // The build runs on this thread, so its counters are exactly the
    // build's ops.
    SamtreeOpStats& ops = Samtree::ThreadOpStats();
    ops = {};
    BuildSamtreeStore(store, ds.edges);
    const SamtreeOpStats stats = ops;
    const double total =
        static_cast<double>(stats.leaf_ops + stats.internal_ops);
    std::printf("%-14u %14llu %14llu %9.2f%% %9.3f%%\n", capacity,
                static_cast<unsigned long long>(stats.leaf_ops),
                static_cast<unsigned long long>(stats.internal_ops),
                100.0 * stats.leaf_ops / total,
                100.0 * stats.internal_ops / total);
  }
  std::printf("\npaper shape: leaf ops >98%% at every capacity; internal "
              "share shrinks with capacity (1.91%% -> 0.02%%)\n");
  return 0;
}
