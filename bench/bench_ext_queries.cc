// Extension bench: cost of the query types the FSTable/samtree design
// enables beyond the paper — weighted sampling WITHOUT replacement and
// ranged neighbourhood queries.
#include <cstdio>

#include "baselines/samtree_store.h"
#include "bench_util.h"

using namespace platod2gl;
using namespace platod2gl::bench;

int main() {
  std::printf("=== Extension: query-type costs on the samtree store ===\n\n");

  // One large tree (a popular live-room's neighbourhood).
  Samtree tree(SamtreeConfig{});
  Xoshiro256 gen(3);
  constexpr VertexId kBase = 0x0001000000000000ULL;
  constexpr std::size_t kDegree = 200000;
  for (std::size_t i = 0; i < kDegree; ++i) {
    tree.InsertUnchecked(kBase + i, 0.05 + gen.NextDouble());
  }

  // Sampling without replacement vs with replacement.
  std::printf("weighted sampling from a degree-%zu neighbourhood:\n",
              kDegree);
  Xoshiro256 rng(4);
  for (std::size_t k : {10u, 100u, 1000u, 10000u}) {
    Timer t1;
    std::vector<VertexId> with;
    for (int rep = 0; rep < 20; ++rep) {
      with.clear();
      tree.SampleWeighted(k, rng, &with);
    }
    const double with_ms = t1.ElapsedMillis() / 20;

    Timer t2;
    for (int rep = 0; rep < 20; ++rep) {
      tree.SampleWeightedDistinct(k, rng);
    }
    const double without_ms = t2.ElapsedMillis() / 20;
    std::printf("  k=%-6zu with replacement %8.3f ms   distinct %8.3f ms "
                "(%.1fx)\n",
                k, with_ms, without_ms, without_ms / with_ms);
  }

  // Ranged queries: count a namespace slice vs full enumeration.
  std::printf("\nranged queries (count IDs in a half-namespace window):\n");
  {
    Timer t;
    std::size_t sink = 0;
    for (int rep = 0; rep < 200; ++rep) {
      sink += tree.CountInRange(kBase + kDegree / 4, kBase + kDegree / 2);
    }
    std::printf("  CountInRange:      %8.3f ms per call (count %zu)\n",
                t.ElapsedMillis() / 200, sink / 200);
  }
  {
    Timer t;
    std::size_t sink = 0;
    for (int rep = 0; rep < 20; ++rep) {
      tree.ForEachNeighbor([&](VertexId v, Weight) {
        sink += (v >= kBase + kDegree / 4 && v <= kBase + kDegree / 2);
      });
    }
    std::printf("  full-scan filter:  %8.3f ms per call (count %zu)\n",
                t.ElapsedMillis() / 20, sink / 20);
  }
  return 0;
}
