#include "dist/shard.h"

#include <algorithm>
#include <utility>

#include "io/checkpoint.h"

namespace platod2gl {

GraphShard::GraphShard(GraphStoreConfig config)
    : config_(config), store_(std::make_unique<GraphStore>(config)) {}

void GraphShard::ApplyBatch(std::span<const EdgeUpdate> batch) {
  MutexLock writer(writer_mu_);
  {
    // WAL first: the sequence number is strictly increasing, so Append can
    // never hit a time regression here. Locked because another client
    // thread's replication ship may be reading a window concurrently
    // (docs/replication.md).
    SpinlockGuard g(wal_mu_);
    for (const EdgeUpdate& u : batch) wal_.Append(++wal_seq_, u);
  }
  // No pool: shards already run inside the cluster's fan-out.
  if (!crashed()) store_->ApplyBatch(batch);
}

bool GraphShard::SampleNeighbors(VertexId src, std::size_t k, bool weighted,
                                 Xoshiro256& rng, std::vector<VertexId>* out,
                                 EdgeType type) const {
  if (crashed()) return false;
  return store_->SampleNeighbors(src, k, weighted, rng, out, type);
}

bool GraphShard::Traverse(VertexId src, std::size_t cap,
                          std::vector<VertexId>* out, EdgeType type) const {
  if (crashed()) return false;
  const std::vector<std::pair<VertexId, Weight>> nbrs =
      store_->Neighbors(src, type);
  // No exact reserve: `out` is usually a whole response shared by many
  // seeds, where reserving size() + n would reallocate on every call.
  const std::size_t n = std::min(cap, nbrs.size());
  for (std::size_t i = 0; i < n; ++i) out->push_back(nbrs[i].first);
  return true;
}

bool GraphShard::GatherFeatures(VertexId v, std::vector<float>* out) const {
  if (crashed()) return false;
  const std::vector<float>* f = store_->attributes().GetFeatures(v);
  if (f == nullptr) return false;
  out->insert(out->end(), f->begin(), f->end());
  return true;
}

void GraphShard::Crash() {
  crashed_.store(true, std::memory_order_release);
  // The serving process is gone: release the volatile store. Recover()
  // rebuilds it; until then sampling is refused while the WAL (durable)
  // keeps accepting writes.
  store_ = std::make_unique<GraphStore>(config_);
}

Status GraphShard::Checkpoint(const std::string& path) {
  if (crashed()) {
    return Status::Unavailable("cannot checkpoint a crashed shard");
  }
  Status s = SaveGraph(*store_, path);
  if (!s.ok()) return s;
  SpinlockGuard g(wal_mu_);
  checkpoint_path_ = path;
  checkpoint_seq_ = wal_seq_;
  wal_.TruncateThrough(checkpoint_seq_);
  return Status::Ok();
}

Status GraphShard::Recover(std::size_t* replayed) {
  auto fresh = std::make_unique<GraphStore>(config_);
  std::string ckpt_path;
  std::uint64_t ckpt_seq = 0;
  {
    SpinlockGuard g(wal_mu_);
    ckpt_path = checkpoint_path_;
    ckpt_seq = checkpoint_seq_;
  }
  if (!ckpt_path.empty()) {
    Status s = LoadGraph(ckpt_path, fresh.get());
    if (!s.ok()) return s;
  }
  {
    SpinlockGuard g(wal_mu_);
    // Checked replay: the checkpoint must cover the truncated prefix
    // exactly — a gap here means the durable state is unrecoverable and
    // must be reported, never silently skipped (tests/test_temporal.cc
    // pins the boundary).
    Status s =
        wal_.CheckedReplayInto(fresh.get(), ckpt_seq, wal_seq_, replayed);
    if (!s.ok()) return s;
  }
  store_ = std::move(fresh);
  crashed_.store(false, std::memory_order_release);
  return Status::Ok();
}

void GraphShard::Promote(std::unique_ptr<GraphStore> store) {
  store_ = std::move(store);
  crashed_.store(false, std::memory_order_release);
}

}  // namespace platod2gl
