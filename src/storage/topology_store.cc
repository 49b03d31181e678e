#include "storage/topology_store.h"

namespace platod2gl {

TopologyStore::TopologyStore(SamtreeConfig config, std::size_t num_shards)
    : config_(config), trees_(num_shards) {}

void TopologyStore::AddEdge(VertexId src, VertexId dst, Weight w) {
  WithTree(src, [&](Samtree& tree) {
    const std::size_t before = tree.size();
    tree.Insert(dst, w);
    if (tree.size() != before) {
      // order: stat tally, read for reporting only
      num_edges_.fetch_add(1, std::memory_order_relaxed);
    }
  });
}

void TopologyStore::AddEdgeUnchecked(VertexId src, VertexId dst, Weight w) {
  WithTree(src, [&](Samtree& tree) {
    tree.InsertUnchecked(dst, w);
    // order: stat tally, read for reporting only
    num_edges_.fetch_add(1, std::memory_order_relaxed);
  });
}

void TopologyStore::InstallTree(VertexId src, Samtree&& tree) {
  std::size_t delta = 0;
  trees_.With(src, [&](Samtree& existing) {
    if (existing.empty()) {
      delta = tree.size();
      existing = std::move(tree);
      return;
    }
    // Merge path: the slower but lossless fallback.
    const std::size_t before = existing.size();
    tree.ForEachNeighbor(
        [&](VertexId dst, Weight w) { existing.Insert(dst, w); });
    delta = existing.size() - before;
  });
  // order: stat tally, read for reporting only
  num_edges_.fetch_add(delta, std::memory_order_relaxed);
}

bool TopologyStore::UpdateEdge(VertexId src, VertexId dst, Weight w) {
  bool updated = false;
  trees_.WithExisting(src,
                      [&](Samtree& tree) { updated = tree.Update(dst, w); });
  return updated;
}

bool TopologyStore::RemoveEdge(VertexId src, VertexId dst) {
  bool removed = false;
  trees_.WithExisting(src,
                      [&](Samtree& tree) { removed = tree.Remove(dst); });
  // order: stat tally, read for reporting only
  if (removed) num_edges_.fetch_sub(1, std::memory_order_relaxed);
  return removed;
}

void TopologyStore::Apply(const EdgeUpdate& update) {
  const Edge& e = update.edge;
  switch (update.kind) {
    case UpdateKind::kInsert:
      AddEdge(e.src, e.dst, e.weight);
      break;
    case UpdateKind::kInPlaceUpdate:
      UpdateEdge(e.src, e.dst, e.weight);
      break;
    case UpdateKind::kDelete:
      RemoveEdge(e.src, e.dst);
      break;
  }
}

bool TopologyStore::HasEdge(VertexId src, VertexId dst) const {
  const Samtree* tree = trees_.FindUnsafe(src);
  return tree && tree->Contains(dst);
}

std::optional<Weight> TopologyStore::EdgeWeight(VertexId src,
                                                VertexId dst) const {
  const Samtree* tree = trees_.FindUnsafe(src);
  if (!tree) return std::nullopt;
  return tree->GetWeight(dst);
}

std::size_t TopologyStore::Degree(VertexId src) const {
  const Samtree* tree = trees_.FindUnsafe(src);
  return tree ? tree->size() : 0;
}

Weight TopologyStore::VertexWeight(VertexId src) const {
  const Samtree* tree = trees_.FindUnsafe(src);
  return tree ? tree->TotalWeight() : 0.0;
}

bool TopologyStore::SampleNeighbors(VertexId src, std::size_t k,
                                    bool weighted, Xoshiro256& rng,
                                    std::vector<VertexId>* out) const {
  const Samtree* tree = trees_.FindUnsafe(src);
  if (!tree || tree->empty()) return false;
  if (weighted) {
    tree->SampleWeighted(k, rng, out);
  } else {
    tree->SampleUniform(k, rng, out);
  }
  return true;
}

std::vector<VertexId> TopologyStore::SampleNeighborsDistinct(
    VertexId src, std::size_t k, Xoshiro256& rng) {
  std::vector<VertexId> out;
  trees_.WithExisting(src, [&](Samtree& tree) {
    out = tree.SampleWeightedDistinct(k, rng);
  });
  return out;
}

std::size_t TopologyStore::RemoveSource(VertexId src) {
  std::size_t removed = 0;
  trees_.WithExisting(src, [&](Samtree& tree) {
    removed = tree.size();
    tree = Samtree(config_);
  });
  if (removed > 0) {
    trees_.Erase(src);
    // order: stat tally, read for reporting only
    num_edges_.fetch_sub(removed, std::memory_order_relaxed);
  }
  return removed;
}

std::size_t TopologyStore::CountNeighborsInRange(VertexId src, VertexId lo,
                                                 VertexId hi) const {
  const Samtree* tree = trees_.FindUnsafe(src);
  return tree ? tree->CountInRange(lo, hi) : 0;
}

std::vector<std::pair<VertexId, Weight>> TopologyStore::Neighbors(
    VertexId src) const {
  const Samtree* tree = trees_.FindUnsafe(src);
  if (!tree) return {};
  return tree->Neighbors();
}

MemoryBreakdown TopologyStore::Memory() const {
  MemoryBreakdown mem;
  // The samtree layer is non-key-value: the only map keys are one 8-byte
  // vertex ID per *source vertex* (vs. one composite key per block in
  // PlatoGL) — the saving Table IV measures.
  mem.key_bytes += trees_.MemoryUsage();
  trees_.ForEach([&](VertexId, const Samtree& tree) {
    const MemoryBreakdown m = tree.Memory();
    mem.topology_bytes += m.topology_bytes;
    mem.index_bytes += m.index_bytes;
    mem.other_bytes += m.other_bytes;
  });
  return mem;
}

SamtreeOpStats TopologyStore::AggregateStats() const {
  SamtreeOpStats total;
  trees_.ForEach([&](VertexId, const Samtree& tree) {
    const SamtreeOpStats& s = tree.stats();
    total.leaf_ops += s.leaf_ops;
    total.internal_ops += s.internal_ops;
    total.leaf_splits += s.leaf_splits;
    total.internal_splits += s.internal_splits;
    total.merges += s.merges;
  });
  return total;
}

bool TopologyStore::CheckAllInvariants(std::string* error) const {
  bool ok = true;
  std::size_t edge_total = 0;
  trees_.ForEach([&](VertexId src, const Samtree& tree) {
    if (!ok) return;
    edge_total += tree.size();
    std::string err;
    if (!tree.CheckInvariants(&err)) {
      ok = false;
      if (error) {
        *error = "samtree of source " + std::to_string(src) + ": " + err;
      }
    }
  });
  if (ok && edge_total != NumEdges()) {
    ok = false;
    if (error) {
      *error = "edge counter drift: NumEdges()=" +
               std::to_string(NumEdges()) + " but trees hold " +
               std::to_string(edge_total);
    }
  }
  return ok;
}

}  // namespace platod2gl
