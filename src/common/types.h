// Core identifier and edge types shared by every PlatoD2GL module.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace platod2gl {

/// Unique 64-bit identifier of a vertex in the graph.
using VertexId = std::uint64_t;

/// Identifier of an edge relation (type) in a heterogeneous graph,
/// e.g. User-Live vs. Live-Tag in the WeChat dataset.
using EdgeType = std::uint32_t;

/// Edge weight. The paper assumes W : E -> R+.
using Weight = double;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex =
    std::numeric_limits<VertexId>::max();

/// A directed weighted edge e(src, dst, weight) of a given relation.
struct Edge {
  VertexId src = kInvalidVertex;
  VertexId dst = kInvalidVertex;
  Weight weight = 1.0;
  EdgeType type = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Kind of a dynamic topology mutation.
enum class UpdateKind : std::uint8_t {
  kInsert,         ///< insert a new edge (or refresh weight if it exists)
  kInPlaceUpdate,  ///< overwrite the weight of an existing edge
  kDelete,         ///< remove an edge
};

/// One entry in a dynamic update batch.
struct EdgeUpdate {
  UpdateKind kind = UpdateKind::kInsert;
  Edge edge;

  friend bool operator==(const EdgeUpdate&, const EdgeUpdate&) = default;
};

/// Whether a store of `num_relations` edge relations can hold `u`: its
/// type names one of them, neither endpoint is kInvalidVertex (the vertex
/// map asserts it never sees that key), and an insert or in-place update
/// carries a finite weight >= 0 (the rule Samtree::CheckInvariants
/// enforces; a delete's weight is never read). GraphCluster::ApplyBatch
/// and UpdateIngestor::Offer refuse an update that fails it before it is
/// logged or applied.
inline bool IsValidUpdate(const EdgeUpdate& u, std::size_t num_relations) {
  if (u.edge.type >= num_relations) return false;
  if (u.edge.src == kInvalidVertex || u.edge.dst == kInvalidVertex) {
    return false;
  }
  return u.kind == UpdateKind::kDelete ||
         (std::isfinite(u.edge.weight) && u.edge.weight >= 0.0);
}

/// A sampled neighbour: destination vertex plus the weight of the edge
/// that was traversed.
struct SampledNeighbor {
  VertexId vertex = kInvalidVertex;
  Weight weight = 0.0;

  friend bool operator==(const SampledNeighbor&,
                         const SampledNeighbor&) = default;
};

}  // namespace platod2gl
