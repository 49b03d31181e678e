#include "gen/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>
#include <utility>

namespace platod2gl {

std::vector<Edge> GenerateRmat(const RmatParams& params) {
  Xoshiro256 rng(params.seed);
  std::vector<Edge> edges;
  edges.reserve(params.num_edges);
  const double ab = params.a + params.b;
  const double abc = params.a + params.b + params.c;

  for (std::size_t e = 0; e < params.num_edges; ++e) {
    VertexId src = 0, dst = 0;
    for (std::uint32_t bit = 0; bit < params.scale; ++bit) {
      const double r = rng.NextDouble();
      // Pick one quadrant of the recursive adjacency matrix.
      const bool right = (r >= params.a && r < ab) || r >= abc;
      const bool down = r >= ab;
      src = (src << 1) | (down ? 1u : 0u);
      dst = (dst << 1) | (right ? 1u : 0u);
    }
    const Weight w = 0.1 + rng.NextDouble();  // positive weights
    edges.push_back(Edge{params.base + src, params.base + dst, w,
                         params.type});
  }
  return edges;
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  assert(n > 0);
  cdf_.resize(n);
  double running = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    running += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = running;
  }
}

std::size_t ZipfSampler::Sample(Xoshiro256& rng) const {
  const double r = rng.NextDouble(cdf_.back());
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), r);
  if (it == cdf_.end()) --it;
  return static_cast<std::size_t>(it - cdf_.begin());
}

std::vector<Edge> GenerateBipartite(const BipartiteParams& params) {
  Xoshiro256 rng(params.seed);
  const ZipfSampler item_popularity(params.num_targets, params.zipf_exponent);
  std::vector<Edge> edges;
  edges.reserve(params.num_edges);
  for (std::size_t e = 0; e < params.num_edges; ++e) {
    const VertexId src =
        params.source_base + rng.NextUint64(params.num_sources);
    const VertexId dst = params.target_base + item_popularity.Sample(rng);
    const Weight w = 0.1 + rng.NextDouble();
    edges.push_back(Edge{src, dst, w, params.type});
  }
  return edges;
}

std::vector<Edge> GenerateUniform(const UniformParams& params) {
  Xoshiro256 rng(params.seed);
  std::vector<Edge> edges;
  edges.reserve(params.num_edges);
  for (std::size_t e = 0; e < params.num_edges; ++e) {
    const VertexId src = params.base + rng.NextUint64(params.num_vertices);
    const VertexId dst = params.base + rng.NextUint64(params.num_vertices);
    const Weight w = 0.1 + rng.NextDouble();
    edges.push_back(Edge{src, dst, w, params.type});
  }
  return edges;
}

void MakeBidirected(std::vector<Edge>* edges) {
  const std::size_t n = edges->size();
  edges->reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const Edge& e = (*edges)[i];
    edges->push_back(Edge{e.dst, e.src, e.weight, e.type});
  }
}

void DedupEdges(std::vector<Edge>* edges) {
  struct PairHash {
    std::size_t operator()(const std::pair<VertexId, VertexId>& p) const {
      std::uint64_t z = p.first * 0x9E3779B97F4A7C15ULL ^ p.second;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      return z ^ (z >> 27);
    }
  };
  // One seen-set per relation keeps the key a simple pair.
  std::vector<std::unordered_set<std::pair<VertexId, VertexId>, PairHash>>
      seen;
  seen.resize(1);
  seen[0].reserve(edges->size());  // avoid rehash churn on the hot relation
  std::vector<Edge> out;
  out.reserve(edges->size());
  for (const Edge& e : *edges) {
    if (e.type >= seen.size()) seen.resize(e.type + 1);
    if (seen[e.type].insert({e.src, e.dst}).second) out.push_back(e);
  }
  *edges = std::move(out);
}

std::vector<EdgeUpdate> MakeUpdateStream(const std::vector<Edge>& base,
                                         const UpdateStreamParams& params) {
  assert(!base.empty());
  assert(params.insert_fraction + params.update_fraction <= 1.0 + 1e-9);
  Xoshiro256 rng(params.seed);
  std::vector<EdgeUpdate> ops;
  ops.reserve(params.num_ops);

  // Brand-new destinations stay in the *same ID namespace* as existing
  // destinations (top 4 bytes preserved) — production ID allocators hand
  // out new live-rooms/items from the type's own range. The offset starts
  // at 2^31, far above any generator-assigned offset, so inserts are
  // guaranteed fresh.
  VertexId fresh_offset = 1ULL << 31;

  for (std::size_t i = 0; i < params.num_ops; ++i) {
    const double r = rng.NextDouble();
    const Edge& pick = base[rng.NextUint64(base.size())];
    if (r < params.insert_fraction) {
      const VertexId fresh =
          (pick.dst & 0xFFFFFFFF00000000ULL) | fresh_offset++;
      ops.push_back(EdgeUpdate{
          UpdateKind::kInsert,
          Edge{pick.src, fresh, 0.1 + rng.NextDouble(), pick.type}});
    } else if (r < params.insert_fraction + params.update_fraction) {
      ops.push_back(EdgeUpdate{
          UpdateKind::kInPlaceUpdate,
          Edge{pick.src, pick.dst, 0.1 + rng.NextDouble(), pick.type}});
    } else {
      ops.push_back(EdgeUpdate{UpdateKind::kDelete, pick});
    }
  }
  return ops;
}

}  // namespace platod2gl
