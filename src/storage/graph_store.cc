#include "storage/graph_store.h"

#include <algorithm>

namespace platod2gl {

GraphStore::GraphStore(GraphStoreConfig config)
    : config_(config), attributes_(config.num_shards) {
  config_.num_relations = std::max<std::size_t>(1, config_.num_relations);
  relations_.reserve(config_.num_relations);
  for (std::size_t i = 0; i < config_.num_relations; ++i) {
    relations_.push_back(std::make_unique<TopologyStore>(
        config_.samtree, config_.num_shards));
  }
  if (config_.sample_cache.enabled) {
    sample_cache_ = std::make_unique<SampleCache>(config_.sample_cache);
  }
}

void GraphStore::AddEdge(const Edge& e) {
  relations_.at(e.type)->AddEdge(e.src, e.dst, e.weight);
}

void GraphStore::Apply(const EdgeUpdate& update) {
  relations_.at(update.edge.type)->Apply(update);
}

void GraphStore::ApplyBatch(std::span<const EdgeUpdate> batch,
                            ThreadPool* pool) {
  if (batch.empty()) return;
  const EdgeType type = batch.front().edge.type;
  if (std::all_of(batch.begin(), batch.end(), [&](const EdgeUpdate& u) {
        return u.edge.type == type;
      })) {
    relations_.at(type)->ApplyBatch(batch, pool);
    return;
  }
  std::vector<std::vector<EdgeUpdate>> by_relation(relations_.size());
  for (const EdgeUpdate& u : batch) by_relation.at(u.edge.type).push_back(u);
  for (std::size_t rel = 0; rel < by_relation.size(); ++rel) {
    relations_[rel]->ApplyBatch(by_relation[rel], pool);
  }
}

bool GraphStore::HasEdge(VertexId src, VertexId dst, EdgeType type) const {
  return relations_.at(type)->HasEdge(src, dst);
}

std::optional<Weight> GraphStore::EdgeWeight(VertexId src, VertexId dst,
                                             EdgeType type) const {
  return relations_.at(type)->EdgeWeight(src, dst);
}

std::size_t GraphStore::Degree(VertexId src, EdgeType type) const {
  return relations_.at(type)->Degree(src);
}

bool GraphStore::SampleNeighbors(VertexId src, std::size_t k, bool weighted,
                                 Xoshiro256& rng, std::vector<VertexId>* out,
                                 EdgeType type) const {
  const TopologyStore& rel = *relations_.at(type);
  if (!sample_cache_) return rel.SampleNeighbors(src, k, weighted, rng, out);
  const Samtree* tree = rel.FindTree(src);
  if (!tree || tree->empty()) return false;
  if (sample_cache_->Sample(src, type, *tree, weighted, k, rng, out)) {
    return true;
  }
  // Cold vertex (or warming up): the regular ITS+FTS descent.
  if (weighted) {
    tree->SampleWeighted(k, rng, out);
  } else {
    tree->SampleUniform(k, rng, out);
  }
  return true;
}

std::vector<std::pair<VertexId, Weight>> GraphStore::Neighbors(
    VertexId src, EdgeType type) const {
  return relations_.at(type)->Neighbors(src);
}

std::size_t GraphStore::NumEdges() const {
  std::size_t n = 0;
  for (const auto& r : relations_) n += r->NumEdges();
  return n;
}

MemoryBreakdown GraphStore::TopologyMemory() const {
  MemoryBreakdown mem;
  for (const auto& r : relations_) {
    const MemoryBreakdown m = r->Memory();
    mem.topology_bytes += m.topology_bytes;
    mem.index_bytes += m.index_bytes;
    mem.key_bytes += m.key_bytes;
    mem.other_bytes += m.other_bytes;
  }
  return mem;
}

}  // namespace platod2gl
