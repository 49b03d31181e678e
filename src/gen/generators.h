// Synthetic graph and workload generators.
//
// The paper evaluates on OGBN-Products, Reddit and the proprietary WeChat
// live-streaming graph. Those graphs cannot ship with this repo, so the
// experiments run on synthetic stand-ins that preserve what the measured
// costs actually depend on: degree distribution (power-law), density
// (average degree), bipartite shape for user-item relations, and vertex-ID
// locality (IDs allocated from per-type contiguous ranges, which is what
// makes CP-IDs compression effective in production).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/types.h"

namespace platod2gl {

/// R-MAT recursive-matrix generator (a=0.57 b=0.19 c=0.19 d=0.05 defaults
/// give the usual skewed social-graph shape). Vertices are [base,
/// base + 2^scale).
struct RmatParams {
  std::uint32_t scale = 16;  ///< 2^scale vertices
  std::size_t num_edges = 1 << 20;
  double a = 0.57, b = 0.19, c = 0.19, d = 0.05;
  VertexId base = 0;      ///< ID-space offset (models namespaced 64-bit IDs)
  EdgeType type = 0;
  std::uint64_t seed = 42;
};
std::vector<Edge> GenerateRmat(const RmatParams& params);

/// Bipartite user-item interaction stream with Zipf-skewed item
/// popularity — the shape of the WeChat User-Live relation.
struct BipartiteParams {
  std::size_t num_sources = 1 << 16;
  std::size_t num_targets = 1 << 14;
  std::size_t num_edges = 1 << 20;
  double zipf_exponent = 0.8;  ///< item-popularity skew
  VertexId source_base = 0;
  VertexId target_base = 1ULL << 32;  ///< distinct ID namespace for targets
  EdgeType type = 0;
  std::uint64_t seed = 42;
};
std::vector<Edge> GenerateBipartite(const BipartiteParams& params);

/// Uniform (Erdos-Renyi-style) edges — the unskewed control workload.
struct UniformParams {
  std::size_t num_vertices = 1 << 16;
  std::size_t num_edges = 1 << 20;
  VertexId base = 0;
  EdgeType type = 0;
  std::uint64_t seed = 42;
};
std::vector<Edge> GenerateUniform(const UniformParams& params);

/// Mirror every edge so the graph is bi-directed, as the paper's datasets
/// are ("all the datasets in our experiments are bi-directed").
void MakeBidirected(std::vector<Edge>* edges);

/// Drop repeated (src, dst, type) pairs, keeping the first occurrence and
/// the original stream order. Dataset presets apply this so bulk loaders
/// may use the duplicate-free AddEdgeFast path.
void DedupEdges(std::vector<Edge>* edges);

/// A timestamped stream of dynamic updates derived from a base edge set:
/// `insert_fraction` of the ops insert brand-new edges, the rest split
/// between in-place weight updates and deletions of already-present edges.
/// Fractions must sum to <= 1; the remainder becomes deletions.
struct UpdateStreamParams {
  std::size_t num_ops = 1 << 16;
  double insert_fraction = 0.6;
  double update_fraction = 0.3;  // deletions take the remaining 0.1
  std::uint64_t seed = 7;
};
std::vector<EdgeUpdate> MakeUpdateStream(const std::vector<Edge>& base,
                                         const UpdateStreamParams& params);

/// Zipf sampler over [0, n): P(k) ~ 1/(k+1)^s, built once in O(n).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);
  std::size_t Sample(Xoshiro256& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace platod2gl
