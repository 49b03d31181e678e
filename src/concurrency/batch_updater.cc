#include "concurrency/batch_updater.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/profile.h"

namespace platod2gl {

BatchUpdater::BatchUpdater(TopologyStore* store, ThreadPool* pool)
    : store_(store), pool_(pool) {}

void BatchUpdater::ApplyBatch(std::vector<EdgeUpdate> batch) {
  if (batch.empty()) return;
  PD2GL_PROFILE_SCOPE(obs::ProfileSite::kBatchApply);

  // Phase 1 — sort an index array by (source, arrival position): cheaper
  // than moving 40-byte updates, and the position tiebreak keeps the
  // per-edge update order semantic (stable).
  std::vector<std::uint32_t> order(batch.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const VertexId sa = batch[a].edge.src;
              const VertexId sb = batch[b].edge.src;
              return sa != sb ? sa < sb : a < b;
            });

  // Group boundaries: one group per source vertex.
  std::vector<std::size_t> group_starts;
  group_starts.push_back(0);
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (batch[order[i]].edge.src != batch[order[i - 1]].edge.src) {
      group_starts.push_back(i);
    }
  }
  group_starts.push_back(order.size());
  const std::size_t num_groups = group_starts.size() - 1;

  // Phase 2 — source groups spread over the pool in blocks of `grain`
  // groups (~4 per worker, so the queue rebalances uneven groups); a
  // samtree is looked up (and created if new) once per group under its
  // map-shard lock, then the whole group is applied to it with no
  // per-update latching at all — two threads never touch the same tree.
  const std::size_t grain =
      std::max<std::size_t>(1, num_groups / (pool_->num_threads() * 4));
  pool_->ParallelFor(
      num_groups,
      [&](std::size_t g) {
        // The only synchronisation is the shard-locked lookup; the tree
        // itself is owned by this thread for the whole group.
        Samtree* tree =
            store_->GetOrCreateTree(batch[order[group_starts[g]]].edge.src);
        for (std::size_t i = group_starts[g]; i < group_starts[g + 1]; ++i) {
          const EdgeUpdate& u = batch[order[i]];
          switch (u.kind) {
            case UpdateKind::kInsert: {
              const std::size_t before = tree->size();
              tree->Insert(u.edge.dst, u.edge.weight);
              if (tree->size() != before) store_->NoteEdgeInserted();
              break;
            }
            case UpdateKind::kInPlaceUpdate:
              tree->Update(u.edge.dst, u.edge.weight);
              break;
            case UpdateKind::kDelete:
              if (tree->Remove(u.edge.dst)) store_->NoteEdgeRemoved();
              break;
          }
        }
      },
      grain);
  MaybeVerifyStore();
}

void BatchUpdater::ApplyBatchLatchBased(const std::vector<EdgeUpdate>& batch) {
  PD2GL_PROFILE_SCOPE(obs::ProfileSite::kBatchApply);
  // Blocked submission: ~8 blocks per worker keeps the task queue cold
  // while still letting the pool rebalance when a block lands on a run of
  // expensive updates (deep trees, splits).
  const std::size_t grain = std::max<std::size_t>(
      16, batch.size() / (pool_->num_threads() * 8));
  pool_->ParallelFor(
      batch.size(), [&](std::size_t i) { store_->Apply(batch[i]); }, grain);
  MaybeVerifyStore();
}

void BatchUpdater::ApplySequential(const std::vector<EdgeUpdate>& batch) {
  for (const EdgeUpdate& u : batch) store_->Apply(u);
  MaybeVerifyStore();
}

void BatchUpdater::MaybeVerifyStore() {
#if defined(PD2GL_ENABLE_INVARIANTS)
  std::string err;
  if (!store_->CheckAllInvariants(&err)) {
    std::fprintf(stderr, "PD2GL invariant violation after batch: %s\n",
                 err.c_str());
    std::abort();
  }
#endif
}

}  // namespace platod2gl
