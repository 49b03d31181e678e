// GraphShard: one simulated graph server.
//
// The paper's evaluation cluster dedicates 54 machines to graph storage;
// this repo substitutes in-process shards (see DESIGN.md, substitutions).
// A shard owns a full GraphStore for the vertices hashed onto it; the
// cluster counts the load routed to it (pd2gl_shard_* series).
//
// Fault tolerance (DESIGN.md §9): the shard separates volatile from
// durable state. The GraphStore is volatile — Crash() wipes it, modelling
// a dead serving process. The write-ahead log (a TemporalEdgeLog keyed by
// a per-shard sequence number) and the last checkpoint are durable — they
// model the disk that survives the process. Every update is logged before
// it is applied, so Recover() can always rebuild the store exactly:
// load the last checkpoint (covering sequence numbers <= checkpoint_seq),
// then replay the WAL window (checkpoint_seq, wal_seq]. While crashed the
// shard still accepts durable WAL writes (the log service outlives the
// serving process, as in GNNFlow's log-structured recovery) but refuses
// sampling.
//
// Replication (DESIGN.md §13, docs/replication.md): the durable WAL
// doubles as the replication log. The ReplicationManager reads windows of
// it to ship to replicas — possibly on one client thread while another
// client thread's ApplyBatch appends — so the WAL and its watermarks are
// guarded by a spinlock and exposed through the locked accessors below.
// Promote() is the failover hand-off: a caught-up replica store is
// installed as the serving store and the shard returns to service.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/spinlock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "storage/graph_store.h"
#include "temporal/edge_log.h"

namespace platod2gl {

class GraphShard {
 public:
  explicit GraphShard(GraphStoreConfig config = {});

  GraphStore& store() { return *store_; }
  const GraphStore& store() const { return *store_; }

  /// Durably log the batch, then apply it through the store's batch apply
  /// with no pool: update by update, on the calling thread (skipped while
  /// crashed — the WAL write is the hinted handoff that Recover()
  /// replays). Callers are serialised, so the WAL order is the apply
  /// order.
  void ApplyBatch(std::span<const EdgeUpdate> batch)
      EXCLUDES(writer_mu_, wal_mu_);

  /// Serve a sampling request. Returns false without touching `out` while
  /// crashed (callers should have checked crashed() — the cluster's RPC
  /// path treats a crashed shard as refusing the connection).
  bool SampleNeighbors(VertexId src, std::size_t k, bool weighted,
                       Xoshiro256& rng, std::vector<VertexId>* out,
                       EdgeType type = 0) const;

  /// Serve a traversal request: append up to `cap` of src's neighbours in
  /// store order (deterministic, RNG-free — the serving layer's traverse
  /// operator). Returns false without touching `out` while crashed.
  bool Traverse(VertexId src, std::size_t cap, std::vector<VertexId>* out,
                EdgeType type = 0) const;

  /// Serve an attribute gather: append v's feature vector to `out` (one
  /// row of a gather reply; nothing when v has no features), returning
  /// whether it had any. Returns false without touching `out` while
  /// crashed.
  bool GatherFeatures(VertexId v, std::vector<float>* out) const;

  // --- Fault-tolerance lifecycle -----------------------------------------

  /// Kill the serving process: the in-memory store is destroyed. The WAL
  /// and the last checkpoint survive (they are the "disk").
  void Crash();
  bool crashed() const {
    return crashed_.load(std::memory_order_acquire);
  }

  /// Persist the current store to `path` (io/checkpoint format) and
  /// truncate the WAL prefix the checkpoint now covers. Refused while
  /// crashed (there is no store to persist).
  Status Checkpoint(const std::string& path);

  /// Rebuild the store after a crash: fresh store, load the last
  /// checkpoint if one was taken, replay the WAL window past it. After a
  /// successful recovery the shard serves again and the rebuilt store is
  /// byte-for-byte equivalent to one that never crashed.
  /// Returns the number of WAL updates replayed via `replayed` (optional).
  Status Recover(std::size_t* replayed = nullptr);

  /// Failover hand-off: install `store` (a promoted replica's store,
  /// already rolled forward to wal_seq by the caller) as the serving store
  /// and return to service. The WAL and checkpoint state are untouched —
  /// the new serving process inherits the same durable log.
  void Promote(std::unique_ptr<GraphStore> store);

  // --- Durable-log access -------------------------------------------------

  /// Direct WAL reference for quiesced inspection (tests, single-threaded
  /// recovery drills). NOT safe against a concurrent ApplyBatch(); the
  /// replication layer uses the locked window/watermark accessors instead.
  // NO_THREAD_SAFETY_ANALYSIS: quiesced-only escape hatch — callers
  // guarantee no concurrent ApplyBatch/Checkpoint (see accessor contract).
  const TemporalEdgeLog& wal() const NO_THREAD_SAFETY_ANALYSIS {
    return wal_;
  }

  /// Sequence number of the last durably logged update (0 = none).
  std::uint64_t wal_seq() const EXCLUDES(wal_mu_) {
    SpinlockGuard g(wal_mu_);
    return wal_seq_;
  }
  /// Sequence number covered by the last checkpoint (0 = never).
  std::uint64_t checkpoint_seq() const EXCLUDES(wal_mu_) {
    SpinlockGuard g(wal_mu_);
    return checkpoint_seq_;
  }
  /// Path of the last checkpoint ("" = never checkpointed) — the snapshot
  /// source when a crashed primary must bootstrap a replica.
  std::string checkpoint_path() const EXCLUDES(wal_mu_) {
    SpinlockGuard g(wal_mu_);
    return checkpoint_path_;
  }
  /// The WAL's erased-prefix watermark (see TemporalEdgeLog).
  std::uint64_t wal_truncated_through() const EXCLUDES(wal_mu_) {
    SpinlockGuard g(wal_mu_);
    return wal_.truncated_through();
  }

  /// Copy of the WAL entries in (from, to] into a reusable buffer — the
  /// replication sender's read path, safe against concurrent ApplyBatch().
  /// The buffer keeps the hot ship path free of per-round allocations (and
  /// so keeps the spinlock hold short).
  void WalWindowInto(std::uint64_t from, std::uint64_t to,
                     std::vector<TimedUpdate>* out) const EXCLUDES(wal_mu_) {
    SpinlockGuard g(wal_mu_);
    wal_.WindowInto(from, to, out);
  }

  /// Truncation-gap-checked WAL replay into `graph` (see
  /// TemporalEdgeLog::CheckedReplayInto) under the WAL lock — the
  /// promotion path's roll-forward.
  Status CheckedWalReplay(GraphStore* graph, std::uint64_t from,
                          std::uint64_t to, std::size_t* applied) const
      EXCLUDES(wal_mu_) {
    SpinlockGuard g(wal_mu_);
    return wal_.CheckedReplayInto(graph, from, to, applied);
  }

 private:
  GraphStoreConfig config_;
  std::unique_ptr<GraphStore> store_;  // volatile (lost on Crash)
  /// Serialises ApplyBatch callers across the WAL append and the store
  /// apply. Not wal_mu_: a replication ship reads under that one and must
  /// not wait behind a whole apply.
  Mutex writer_mu_;
  /// Guards the durable-log state: ApplyBatch appends while another
  /// client thread's replication ship may read windows/watermarks. Held
  /// only for short log operations, never across a store apply.
  mutable Spinlock wal_mu_;
  TemporalEdgeLog wal_ GUARDED_BY(wal_mu_);  // durable
  std::uint64_t wal_seq_ GUARDED_BY(wal_mu_) = 0;
  std::uint64_t checkpoint_seq_ GUARDED_BY(wal_mu_) = 0;
  std::string checkpoint_path_ GUARDED_BY(wal_mu_);  // "" = never
  std::atomic<bool> crashed_{false};
};

}  // namespace platod2gl
