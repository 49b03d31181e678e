// Figure 11 reproduction: parameter sensitivity of PlatoD2GL on the
// WeChat dataset.
//
//   (a) dynamic-insertion time by batch size (2^12 .. 2^17): grows with
//       batch size, still < ~25 ms at 2^17 on the paper's cluster.
//   (b) insertion time by samtree node capacity (2^4 .. 2^12): U-shaped,
//       minimum around 2^8 = 256.
//   (c) concurrent update time by thread count (batch 2^12 .. 2^14):
//       decreases as threads increase.
//   (d) total insertion time by slackness alpha: larger alpha -> faster
//       splits -> less time.
#include <cstdio>
#include <span>
#include <thread>

#include "baselines/samtree_store.h"
#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/alpha_split.h"

using namespace platod2gl;
using namespace platod2gl::bench;

namespace {

std::vector<EdgeUpdate> InsertStream(const std::vector<Edge>& edges) {
  std::vector<EdgeUpdate> ops;
  ops.reserve(edges.size());
  for (const Edge& e : edges) ops.push_back({UpdateKind::kInsert, e});
  return ops;
}

}  // namespace

int main() {
  std::printf("=== Figure 11: parameter sensitivity (wechat-mini) ===\n");
  std::printf("(scale factor %.2f)\n", DatasetScale());
  const Dataset ds = MakeWeChatMini();
  const std::vector<EdgeUpdate> stream = InsertStream(ds.edges);

  // (a) dynamic insertion time by batch size ------------------------------
  std::printf("\n--- Fig. 11(a): insertion time by batch size (latch-free, "
              "8 threads) ---\n");
  {
    TopologyStore store;
    ThreadPool pool(8);
    std::size_t cursor = 0;
    for (int logn = 12; logn <= 17; ++logn) {
      const std::size_t n = 1u << logn;
      if (cursor + n > stream.size()) cursor = 0;
      const std::span<const EdgeUpdate> batch(stream.data() + cursor, n);
      cursor += n;
      Timer t;
      store.ApplyBatch(batch, &pool);
      std::printf("  batch 2^%-3d %10.2f ms\n", logn, t.ElapsedMillis());
    }
  }

  // (b) insertion time by node capacity -----------------------------------
  std::printf("\n--- Fig. 11(b): dynamic-insertion time by samtree node "
              "capacity (checked inserts, Algorithm 2) ---\n");
  for (int logc = 4; logc <= 12; ++logc) {
    SamtreeStore store(SamtreeConfig{.node_capacity = 1u << logc});
    const double secs = BuildSamtreeStoreChecked(store, ds.edges);
    std::printf("  capacity 2^%-3d %10.3f s\n", logc, secs);
  }

  // (c) concurrent update time by threads ---------------------------------
  std::printf("\n--- Fig. 11(c): concurrent dynamic update by threads ---\n");
  std::printf("  (%u hardware thread(s) available; the paper's downward "
              "trend needs >1 core)\n",
              std::thread::hardware_concurrency());
  std::printf("  %-10s", "threads");
  for (int logn = 12; logn <= 14; ++logn) std::printf("  batch 2^%d", logn);
  std::printf("\n");
  for (std::size_t threads : {1u, 2u, 4u, 8u, 16u}) {
    std::printf("  %-10zu", threads);
    for (int logn = 12; logn <= 14; ++logn) {
      const std::size_t n = 1u << logn;
      // Fresh store pre-loaded with a prefix so updates hit real trees.
      TopologyStore target;
      for (std::size_t i = 0; i < std::min<std::size_t>(ds.edges.size(),
                                                        500000);
           ++i) {
        const Edge& e = ds.edges[i];
        target.AddEdge(e.src, e.dst, e.weight);
      }
      UpdateStreamParams sp;
      sp.num_ops = n;
      sp.insert_fraction = 0.4;
      sp.update_fraction = 0.4;
      sp.seed = 17;
      const std::vector<EdgeUpdate> batch = MakeUpdateStream(ds.edges, sp);
      ThreadPool pool(threads);
      Timer t;
      target.ApplyBatch(batch, &pool);
      std::printf(" %9.2fms", t.ElapsedMillis());
    }
    std::printf("\n");
  }

  // (d) insertion time by slackness alpha ---------------------------------
  std::printf("\n--- Fig. 11(d): build time by alpha-split slackness ---\n");
  std::printf("  (at this scale splits are a small share of total insert "
              "cost, so the end-to-end\n   trend is mild; the isolated "
              "split-cost column shows the paper's mechanism)\n");
  for (std::uint32_t alpha : {0u, 1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    SamtreeStore store(
        SamtreeConfig{.node_capacity = 256, .alpha = alpha});
    const double secs = BuildSamtreeStore(store, ds.edges);

    // Isolated split cost: partition many overflowing 257-element leaves.
    Xoshiro256 rng(4);
    std::vector<VertexId> proto_ids(257);
    for (auto& v : proto_ids) v = rng.Next();
    std::vector<Weight> proto_w(257, 1.0);
    Timer t;
    for (int rep = 0; rep < 3000; ++rep) {
      auto ids = proto_ids;
      auto w = proto_w;
      AlphaSplit(ids, w, ids.size() / 2, alpha);
    }
    std::printf("  alpha %-6u build %8.3f s    split-only %7.2f ms/3k\n",
                alpha, secs, t.ElapsedMillis());
  }

  std::printf("\npaper shape: (a) grows with batch size; (b) minimum near "
              "capacity 2^8; (c) time falls as threads grow; (d) larger "
              "alpha -> less time\n");
  return 0;
}
