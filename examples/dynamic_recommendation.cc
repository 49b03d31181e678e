// Dynamic recommendation scenario: the live-streaming workload the paper's
// introduction motivates.
//
// A heterogeneous user/live-room graph receives a continuous stream of
// interaction batches (applied latch-free through the PALM-style batch
// apply, GraphStore::ApplyBatch) while recommendation queries
// concurrently sample fresh neighbourhoods. Demonstrates that new
// interactions influence the sampling distribution immediately — the
// freshness property a dynamic store exists for.
#include <cstdio>
#include <map>
#include <utility>

#include "platod2gl.h"

using namespace platod2gl;

namespace {

constexpr VertexId kUserBase = 0x0001000000000000ULL;
constexpr VertexId kLiveBase = 0x0002000000000000ULL;
constexpr std::size_t kUsers = 20000;
constexpr std::size_t kLives = 512;

}  // namespace

int main() {
  std::printf("Dynamic live-streaming recommendation\n");
  std::printf("=====================================\n\n");

  // Bootstrap a user->live interaction graph: room popularity is
  // Zipf-skewed (like the production User-Live relation) and every user
  // has a genre preference — 80% of their interactions stay inside one of
  // four room genres.
  constexpr int kGenres = 4;
  std::vector<Edge> bootstrap;
  {
    Xoshiro256 gen(99);
    const ZipfSampler in_genre(kLives / kGenres, 0.9);
    bootstrap.reserve(400000);
    for (int e = 0; e < 400000; ++e) {
      const VertexId u = gen.NextUint64(kUsers);
      const int genre = (gen.NextDouble() < 0.8)
                            ? static_cast<int>(u % kGenres)
                            : static_cast<int>(gen.NextUint64(kGenres));
      const VertexId room = genre * (kLives / kGenres) + in_genre.Sample(gen);
      bootstrap.push_back(Edge{kUserBase + u, kLiveBase + room,
                               0.1 + gen.NextDouble(), 0});
    }
  }
  MakeBidirected(&bootstrap);  // rooms link back to their viewers
  DedupEdges(&bootstrap);

  GraphStore graph;
  ThreadPool pool(4);
  {
    std::vector<EdgeUpdate> batch;
    batch.reserve(bootstrap.size());
    for (const Edge& e : bootstrap) batch.push_back({UpdateKind::kInsert, e});
    Timer t;
    graph.ApplyBatch(batch, &pool);
    std::printf("bootstrap: %zu interactions ingested in %.1f ms "
                "(latch-free, %zu threads)\n\n",
                graph.NumEdges(), t.ElapsedMillis(), pool.num_threads());
  }

  // One user we will watch: what does the recommender sample for them?
  const VertexId user = kUserBase + 7;
  Xoshiro256 rng(1);
  auto top_sampled = [&](int draws) {
    std::vector<VertexId> out;
    graph.SampleNeighbors(user, draws, /*weighted=*/true, rng, &out);
    std::map<VertexId, int> hist;
    for (VertexId v : out) ++hist[v];
    VertexId best = kInvalidVertex;
    int best_n = -1;
    for (const auto& [v, n] : hist) {
      if (n > best_n) {
        best = v;
        best_n = n;
      }
    }
    return std::pair<VertexId, double>(best, 100.0 * best_n / draws);
  };

  auto [before_room, before_pct] = top_sampled(2000);
  std::printf("user %llu's dominant sampled room: live-%llu (%.0f%% of "
              "draws)\n",
              (unsigned long long)(user - kUserBase),
              (unsigned long long)(before_room - kLiveBase), before_pct);

  // The user suddenly binges a new room: a burst of heavily-weighted
  // interactions arrives in the next dynamic batch.
  const VertexId new_room = kLiveBase + 300;
  std::vector<EdgeUpdate> burst;
  burst.push_back(
      {UpdateKind::kInsert, Edge{user, new_room, 50.0, 0}});
  // ... amid 10k unrelated interactions from other users.
  Xoshiro256 noise(2);
  for (int i = 0; i < 10000; ++i) {
    burst.push_back({UpdateKind::kInsert,
                     Edge{kUserBase + noise.NextUint64(kUsers),
                          kLiveBase + noise.NextUint64(kLives),
                          0.1 + noise.NextDouble(), 0}});
  }
  Timer t;
  graph.ApplyBatch(burst, &pool);
  std::printf("burst of %d interactions applied in %.1f ms\n", 10001,
              t.ElapsedMillis());

  auto [after_room, after_pct] = top_sampled(2000);
  std::printf("user %llu's dominant sampled room is now: live-%llu "
              "(%.0f%% of draws)\n",
              (unsigned long long)(user - kUserBase),
              (unsigned long long)(after_room - kLiveBase), after_pct);
  std::printf("-> the brand-new interest dominates instantly: %s\n\n",
              after_room == new_room ? "OK" : "unexpected!");

  // Interest decays: in-place weight update, O(log n) via FSTable.
  graph.topology(0).UpdateEdge(user, new_room, 0.01);
  auto [decayed_room, decayed_pct] = top_sampled(2000);
  std::printf("after decaying that edge to 0.01, dominant room: live-%llu "
              "(%.0f%%)\n",
              (unsigned long long)(decayed_room - kLiveBase), decayed_pct);

  // 2-hop recommendation candidates via subgraph sampling on the
  // bi-directed graph: user -> rooms -> co-watching users.
  SubgraphSampler sampler(&graph);
  const SampledSubgraph sg =
      sampler.Sample({user}, {{.fanout = 10}, {.fanout = 5}}, rng);
  std::printf("\n2-hop candidate pool: %zu rooms -> %zu co-watching "
              "viewers\n",
              sg.layers[1].size(), sg.layers[2].size());

  std::printf("\ndone.\n");
  return 0;
}
