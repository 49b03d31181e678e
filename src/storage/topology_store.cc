#include "storage/topology_store.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "common/thread_pool.h"
#include "obs/profile.h"

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

void TopologyStore::ApplyBatch(std::span<const EdgeUpdate> batch,
                               ThreadPool* pool) {
  if (batch.empty()) return;
  PD2GL_PROFILE_SCOPE(obs::ProfileSite::kBatchApply);
  if (pool == nullptr) {
    // One thread gains nothing from grouping; the oracle itself keeps the
    // map layout independent of where a stream is cut into batches.
    for (const EdgeUpdate& u : batch) Apply(u);
  } else {
    ApplyGrouped(batch, *pool);
  }

#if defined(PD2GL_ENABLE_INVARIANTS)
  // The batch is quiescent here: re-prove that every tree and the shared
  // edge counter are consistent (with a pool: that per-tree exclusivity
  // kept them so).
  std::string err;
  if (!CheckAllInvariants(&err)) {
    std::fprintf(stderr, "PD2GL invariant violation after batch: %s\n",
                 err.c_str());
    std::abort();
  }
#endif
}

void TopologyStore::ApplyGrouped(std::span<const EdgeUpdate> batch,
                                 ThreadPool& pool) {
  // Phase 1 — group. The position tiebreak keeps each source's updates in
  // arrival order (insert-then-delete of one edge stays that way).
  struct Key {
    VertexId src;
    std::uint32_t pos;
    std::uint32_t insert;  // 1 when batch[pos] is an insert
  };
  std::vector<Key> keys(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    keys[i] = {batch[i].edge.src, static_cast<std::uint32_t>(i),
               batch[i].kind == UpdateKind::kInsert ? 1u : 0u};
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return a.src != b.src ? a.src < b.src : a.pos < b.pos;
  });
  struct Group {
    std::uint32_t begin;  // [begin, end) of keys
    std::uint32_t end;
    bool inserts;
  };
  std::vector<Group> groups;
  for (std::uint32_t begin = 0; begin < keys.size();) {
    Group g{begin, begin, false};
    for (; g.end < keys.size() && keys[g.end].src == keys[begin].src;
         ++g.end) {
      g.inserts = g.inserts || keys[g.end].insert != 0;
    }
    begin = g.end;
    groups.push_back(g);
  }

  // Phase 2 — in parallel, look each group's tree up once under its
  // map-shard lock (a group that inserts gets-or-creates it; updates and
  // deletes on an absent source are no-ops, as in Apply), apply the group
  // to it with no latch, then settle the edge counter once. A tree belongs
  // to one group, so no two threads touch it; trees are heap-pinned, so
  // the pointer survives other groups' inserts and rehashes.
  const auto apply_group = [&](const Group& g) {
    const VertexId src = keys[g.begin].src;
    Samtree* tree = nullptr;
    if (g.inserts) {
      tree = trees_.GetOrCreate(src);
    } else {
      trees_.WithExisting(src, [&](Samtree& t) { tree = &t; });
    }
    if (tree == nullptr) return;
    const std::size_t before = tree->size();
    for (std::uint32_t k = g.begin; k < g.end; ++k) {
      const EdgeUpdate& u = batch[keys[k].pos];
      switch (u.kind) {
        case UpdateKind::kInsert:
          AdoptConfigIfEmpty(*tree);
          tree->Insert(u.edge.dst, u.edge.weight);
          break;
        case UpdateKind::kInPlaceUpdate:
          tree->Update(u.edge.dst, u.edge.weight);
          break;
        case UpdateKind::kDelete:
          tree->Remove(u.edge.dst);
          break;
      }
    }
    // Unsigned wrap-around turns a group's net loss into a subtraction.
    // order: stat tally, read for reporting only
    num_edges_.fetch_add(tree->size() - before, std::memory_order_relaxed);
  };
  // ~4 blocks per worker, so the queue rebalances uneven groups.
  const std::size_t grain =
      std::max<std::size_t>(1, groups.size() / (pool.num_threads() * 4));
  pool.ParallelFor(
      groups.size(), [&](std::size_t i) { apply_group(groups[i]); }, grain);
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
