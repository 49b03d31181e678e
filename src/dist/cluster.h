// GraphCluster: the distributed graph-storage simulation.
//
// Routes every request to the shard owning its source vertex
// (hash-by-source, like the production deployment), fans batched requests
// out across shards on a thread pool (one simulated RPC per shard per
// batch), and keeps virtual-time accounting of the network cost so
// experiments can report "what a real cluster would have paid" without
// sleeping.
//
// Fault tolerance (DESIGN.md §9, docs/fault_tolerance.md): every RPC runs
// through a FaultInjector and a RetryPolicy — bounded attempts,
// exponential backoff with jitter and a per-call deadline, all accounted
// in virtual time like rpc_latency_us (never slept). Sampling degrades
// gracefully: seeds whose shard stays unreachable past the budget come
// back with empty ranges flagged kDegraded instead of an exception or a
// hang. Updates are durable via the shards' write-ahead logs: a crashed
// shard keeps accepting WAL writes (hinted handoff) and RecoverShard()
// rebuilds it from checkpoint + WAL replay to the exact never-crashed
// state.
//
// Replication (DESIGN.md §13, docs/replication.md): with
// config.replication.num_replicas > 0 each shard additionally feeds N read
// replicas by WAL shipping (dist/replication.h). Sampling falls back to a
// replica within the staleness budget when a primary stays unreachable
// (seeds flagged kStale instead of kDegraded), a virtual-time health
// monitor promotes the best replica of a primary that stays crashed past
// the suspicion timeout (under the epoch barrier, bit-identical to a
// sequential log replay), and RunAntiEntropy() repairs injected
// divergence via per-keyrange CRC digests. With num_replicas == 0 (the
// default) none of this machinery is constructed and the cluster behaves
// exactly as before.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "dist/fault_injector.h"
#include "dist/partitioner.h"
#include "dist/replication.h"
#include "dist/shard.h"
#include "obs/metrics.h"
#include "pipeline/epoch_coordinator.h"
#include "sampling/neighbor_sampler.h"

namespace platod2gl {

/// Client-side resilience knobs for one logical RPC (one shard, one
/// group of seeds/updates). All waits are virtual time, never slept; the
/// backoff schedule and the timeout cost are fixed in cluster.cc.
struct RetryPolicy {
  std::size_t max_attempts = 3;
  /// Per-call virtual deadline: once the accumulated virtual cost of
  /// attempts + backoffs reaches this, the call gives up (degraded
  /// sampling / failed update delivery) instead of retrying further.
  std::uint64_t deadline_us = 50000;
};

struct ClusterConfig {
  std::size_t num_shards = 4;
  GraphStoreConfig shard_config;
  /// Virtual per-RPC latency (accounted, never slept).
  std::uint64_t rpc_latency_us = 150;
  std::size_t num_client_threads = 4;
  RetryPolicy retry;
  FaultConfig fault;
  /// Per-shard read replication; num_replicas == 0 disables it.
  ReplicationConfig replication;
};

/// The cluster's transport counters, one row each: exported as
/// pd2gl_cluster_<name> through GraphCluster::metrics() and snapshotted
/// into ClusterStats by GraphCluster::stats().
#define PD2GL_CLUSTER_COUNTERS(X)                                              \
  X(rpcs)                /* attempts, including retried/failed ones */         \
  X(virtual_network_us)                                                        \
  /* Wire-format sizes (see dist/wire.h) the RPCs would have shipped. */       \
  X(bytes_sent)          /* client -> shards (requests) */                     \
  X(bytes_received)      /* shards -> client (responses) */                    \
  /* Fault tolerance. */                                                       \
  X(retries)             /* re-attempts after a failure */                     \
  X(transient_faults)    /* injected fail/timeout/corrupt hits */              \
  X(corrupt_responses)   /* responses dropped by the codec */                  \
  X(deadline_hits)       /* calls abandoned at the deadline */                 \
  X(crash_rejections)    /* attempts refused by a dead shard */                \
  X(degraded_seeds)      /* seeds returned empty-degraded */                   \
  X(wal_handoffs)        /* updates durably logged while down */               \
  X(lost_updates)        /* updates undeliverable AND unlogged */              \
  X(recoveries)          /* RecoverShard completions */                        \
  X(replayed_updates)    /* WAL entries replayed on recovery */                \
  /* Replication (docs/replication.md). */                                     \
  X(replica_read_seeds)  /* seeds served by replica fallback */                \
  X(stale_replica_seeds) /* ...of those, behind the primary */                 \
  X(failovers)           /* replica promotions */                              \
  X(failover_replayed)   /* WAL entries replayed at promotion */               \
  X(digest_rounds)       /* anti-entropy comparisons run */                    \
  X(digest_mismatches)   /* digest buckets that disagreed */                   \
  X(antientropy_repairs) /* replicas repaired by a round */                    \
  X(antientropy_edges)   /* edges re-shipped by repairs */

/// Point-in-time snapshot of the pd2gl_cluster_* series.
struct ClusterStats {
  PD2GL_CLUSTER_COUNTERS(PD2GL_STATS_FIELD)
};

/// One item's result of a batched round plus per-id delivery status:
/// `batch` always has one (possibly empty) range per input id, and
/// `seed_status[i]` says whether id i's range is authoritative or a
/// degraded empty marker. Sampling and traversal rounds return neighbour
/// ranges (SampleReport); the gather round densifies feature rows into a
/// GatherReport.
template <typename Batch>
struct RangeReport {
  Batch batch;
  std::vector<SeedStatus> seed_status;  // size = #ids
  std::uint64_t degraded_seeds = 0;

  bool complete() const { return degraded_seeds == 0; }
};
using SampleReport = RangeReport<NeighborBatch>;

/// One request's sampling work inside a cross-request batched round
/// (src/serve): its own seeds, fanout, and RNG seed. The round ships ONE
/// RPC per touched shard covering every item, but each item's per-shard
/// RNG stream is derived exactly as SampleNeighborsChecked would derive
/// it, so batched results are bit-identical to issuing the items one by
/// one (pinned in tests/test_serve.cc).
struct SampleWorkItem {
  const std::vector<VertexId>* seeds = nullptr;
  std::size_t fanout = 0;
  bool weighted = true;
  std::uint64_t rng_seed = 0;
  EdgeType type = 0;
};

/// Traversal work: up to `cap` neighbours per seed in store order
/// (RNG-free).
struct TraverseWorkItem {
  const std::vector<VertexId>* seeds = nullptr;
  std::size_t cap = 0;
  EdgeType type = 0;
};

/// Attribute-gather work: feature rows for `ids`.
struct GatherWorkItem {
  const std::vector<VertexId>* ids = nullptr;
};

/// Result of one cross-request round: one report per work item plus the
/// round's virtual wall time — the max across the per-shard RPCs, since
/// they fan out in parallel (vs. stats().virtual_network_us, which sums
/// every RPC's cost).
template <typename Batch>
struct MultiRangeReport {
  std::vector<RangeReport<Batch>> reports;
  std::uint64_t round_virtual_us = 0;
};
using MultiSampleReport = MultiRangeReport<NeighborBatch>;

/// Per-item gather result: dense row-major rows over this item's ids
/// (missing vertices get zero rows, flagged in `row_status`).
struct GatherReport {
  std::vector<float> features;          // ids.size() x dim
  std::vector<SeedStatus> row_status;   // kOk / kDegraded per id
  std::uint64_t degraded_rows = 0;
};

struct MultiGatherReport {
  std::vector<GatherReport> reports;
  std::uint32_t dim = 0;
  std::uint64_t round_virtual_us = 0;
};

class GraphCluster {
 public:
  explicit GraphCluster(ClusterConfig config = {});

  /// ApplyBatch({update}): route one update to its owning shard. Non-OK
  /// if the update is refused, or could not be delivered or durably logged
  /// within the retry budget.
  Status Apply(const EdgeUpdate& update) { return ApplyBatch({update}); }

  /// Apply a batch: updates are grouped per shard and shipped as one RPC
  /// per non-empty shard, executed in parallel. Updates owned by a crashed
  /// shard are durably appended to its WAL (hinted handoff, replayed by
  /// RecoverShard); transient RPC faults are retried. An update that fails
  /// IsValidUpdate (common/types.h) is neither logged nor applied, the
  /// rest of the batch proceeds, and the call returns kInvalidArgument.
  /// Otherwise non-OK reports updates that were lost past the retry budget
  /// (stats().lost_updates).
  Status ApplyBatch(const std::vector<EdgeUpdate>& batch);

  /// Batched neighbour sampling across shards: seeds are grouped by owner,
  /// one RPC per shard, results re-assembled in seed order. Transient
  /// faults are retried (retries re-derive the per-shard RNG stream, so
  /// results are bit-identical to a fault-free run); shards unreachable
  /// past the budget degrade their seeds to flagged empty ranges.
  SampleReport SampleNeighborsChecked(const std::vector<VertexId>& seeds,
                                      std::size_t fanout, bool weighted,
                                      std::uint64_t seed, EdgeType type = 0);

  /// Back-compat convenience: the batch alone. Degradation is still
  /// visible in stats().degraded_seeds.
  NeighborBatch SampleNeighbors(const std::vector<VertexId>& seeds,
                                std::size_t fanout, bool weighted,
                                std::uint64_t seed, EdgeType type = 0) {
    return SampleNeighborsChecked(seeds, fanout, weighted, seed, type).batch;
  }

  // --- Cross-request batched rounds (the serving layer's data plane) ------

  /// Sample many requests' seed sets in ONE round: one RPC per touched
  /// shard carries every item's seeds for that shard, amortising the
  /// per-RPC virtual latency across requests. Each item's per-shard RNG is
  /// re-derived from its own rng_seed, so reports[i] is bit-identical to
  /// SampleNeighborsChecked(*work[i].seeds, ...) issued alone (in fact
  /// SampleNeighborsChecked is now the 1-item special case). Retries,
  /// replica fallback, and per-seed degradation behave per item exactly as
  /// in the single-request path.
  MultiSampleReport SampleMany(const std::vector<SampleWorkItem>& work);

  /// Batched traversal round: up to `cap` neighbours per seed in store
  /// order, deterministic and RNG-free. Unreachable shards degrade their
  /// seeds (no replica fallback: traversal is a serving-plan operator, and
  /// degraded frontiers must be visible to the SLO accounting).
  MultiSampleReport TraverseMany(const std::vector<TraverseWorkItem>& work);

  /// Batched attribute-gather round: dense [ids x dim] rows per item,
  /// zero rows (flagged kDegraded) for ids on unreachable shards. `dim` is
  /// taken from the widest feature vector seen this round.
  MultiGatherReport GatherMany(const std::vector<GatherWorkItem>& work);

  // --- Fault-tolerance lifecycle -----------------------------------------

  /// Kill shard i: wipes its in-memory store and makes it refuse RPCs
  /// until RecoverShard. Its WAL and last checkpoint survive.
  void CrashShard(std::size_t i);

  /// Rebuild a crashed shard from its last checkpoint + WAL replay and
  /// put it back in service.
  Status RecoverShard(std::size_t i);

  /// Checkpoint every live shard into dir/shard_<i>.ckpt (io/checkpoint
  /// format with CRC32 footer) and truncate the covered WAL prefixes.
  /// Crashed shards are skipped (first error wins otherwise).
  Status CheckpointAll(const std::string& dir);

  FaultInjector& fault_injector() { return injector_; }
  const FaultInjector& fault_injector() const { return injector_; }

  // --- Replication (no-ops / empty results when num_replicas == 0) --------

  bool has_replication() const { return replication_ != nullptr; }
  /// The manager itself (tests / tools); nullptr when disabled.
  ReplicationManager* replication() { return replication_.get(); }

  /// Advance the virtual clock by `us` and run the replica health monitor:
  /// suspicion starts/ages here, and a primary crashed past the suspicion
  /// timeout is failed over (stats().failovers).
  void AdvanceVirtualTime(std::uint64_t us);

  /// Ship until every reachable replica is caught up (see
  /// ReplicationManager::Flush).
  Status FlushReplication();

  /// One anti-entropy digest round over every shard; outcomes are also
  /// accumulated into stats().
  ReplicationManager::AntiEntropyReport RunAntiEntropy();

  /// Kill replica r of shard s: its store is wiped; after RecoverReplica
  /// the next ship round re-feeds it (snapshot bootstrap if the WAL was
  /// truncated meanwhile).
  void CrashReplica(std::size_t s, std::size_t r);
  void RecoverReplica(std::size_t s, std::size_t r);
  /// Partition / heal the primary<->replica link (the replica keeps
  /// serving stale reads while cut off).
  void PartitionReplica(std::size_t s, std::size_t r);
  void HealReplica(std::size_t s, std::size_t r);

  /// Read/write barrier ordering replica reads against failover cut-overs;
  /// epoch() counts completed promotions.
  EpochCoordinator& cutover() { return cutover_; }

  /// Transport-level replication counters (zeros when disabled).
  ReplicationStats replication_stats() const {
    return replication_ ? replication_->stats() : ReplicationStats{};
  }

  /// Degree/NumEdges read the live stores directly; a crashed shard
  /// contributes its wiped (empty) store until recovered.
  std::size_t Degree(VertexId src, EdgeType type = 0) const;
  std::size_t NumEdges() const;

  GraphShard& shard(std::size_t i) { return *shards_.at(i); }
  const GraphShard& shard(std::size_t i) const { return *shards_.at(i); }
  std::size_t num_shards() const { return shards_.size(); }

  const Partitioner& partitioner() const { return partitioner_; }
  /// Snapshot of the transport counters.
  ClusterStats stats() const;

  /// The cluster's metric registry: pd2gl_cluster_* transport counters,
  /// per-shard load series (pd2gl_shard_*{shard="i"}), the RPC compute
  /// histogram, pd2gl_replication_* (when replication is on), and
  /// per-shard sample-cache series (when the cache is on). The cache series
  /// read the serving store's cache, so they restart from zero when a
  /// crash, recovery or failover replaces a shard's store.
  obs::MetricRegistry& metrics() { return metrics_; }
  const obs::MetricRegistry& metrics() const { return metrics_; }

  /// Per-RPC compute-latency distribution (excludes the virtual network
  /// cost). Thread-safe.
  const LatencyHistogram& rpc_latency() const { return rpc_latency_; }

 private:
  /// Outcome of one logical RPC (all attempts against one shard).
  struct RpcOutcome {
    bool delivered = false;
    bool deadline_hit = false;
    std::uint64_t attempts = 0;
    std::uint64_t virtual_us = 0;
    std::uint64_t transient_faults = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t crash_rejections = 0;
    std::uint64_t resp_bytes = 0;  ///< response bytes shipped back
  };

  /// Drive the retry loop for one logical RPC against shard s. `body`
  /// performs one attempt's shard-side work; body(corrupt, out) returns
  /// whether the client accepted the response.
  template <typename Body>
  RpcOutcome RunRpc(std::size_t s, Body&& body);

  /// The one engine behind every read round (SampleMany, TraverseMany,
  /// GatherMany): groups every item's ids by shard, ships one RPC per
  /// touched shard via RunRpc, and scatters each shard's reply into
  /// per-item RangeReports in id order. A shard's reply is ONE flat Batch
  /// — the SampleResponse wire layout over ids (NeighborBatch) or feature
  /// values (wire::FeatureBatch) — with one range per (item, position),
  /// items in order; a damaged reply is encoded, damaged and judged by the
  /// hardened decoder. `fill(s, item, positions, resp)` appends one item
  /// group's ranges for one attempt; `fallback(s, item, positions, resp,
  /// report)` may append them from a replica instead when the shard
  /// failed, returning whether it did. `values_per_id[item]` sizes the
  /// reply buffer (0 = unknown, grow as needed). Each shard's routed ids
  /// count into `shard_load[s]`, degraded ids into `degraded` (if set).
  template <typename Batch, typename Fill, typename Fallback>
  MultiRangeReport<Batch> ShardRound(
      const std::vector<const std::vector<VertexId>*>& item_ids,
      const std::vector<std::size_t>& values_per_id,
      const std::vector<obs::Counter*>& shard_load, obs::Counter* degraded,
      Fill&& fill, Fallback&& fallback);

  /// The fan-out step of every round: run body(s) for each shard s with
  /// has_work(s). When only one shard has work it runs on the calling
  /// thread, so a one-shard request wakes no worker; otherwise the pool
  /// gets the shards with work and nothing else.
  template <typename HasWork, typename Body>
  void FanOut(HasWork&& has_work, Body&& body);

  /// Update delivery to one shard (crash handoff / retry loop). Pure
  /// w.r.t. stats_; the caller merges the outcome serially.
  RpcOutcome DeliverUpdates(std::size_t s,
                            const std::vector<EdgeUpdate>& group);

  /// Fold one logical RPC's outcome into stats_ (serial sections only).
  void MergeOutcome(const RpcOutcome& out);

  /// Ship outstanding WAL entries and run the failover health monitor
  /// against the current virtual clock (serial sections only).
  void ShipReplication();
  /// Health monitor only (read paths: nothing new to ship).
  void ReplicationHealthCheck();
  /// Point the pd2gl_sample_cache_*{shard="i"} series at the cache of
  /// each shard's serving store. A crash, a recovery and a failover each
  /// replace that store, and the series must never read a destroyed one.
  void ExportShardCaches();

  ClusterConfig config_;
  HashBySourcePartitioner partitioner_;
  std::vector<std::unique_ptr<GraphShard>> shards_;
  ThreadPool pool_;
  FaultInjector injector_;
  // Declared before replication_ so it outlives the manager's series.
  obs::MetricRegistry metrics_;
  // The pd2gl_cluster_* handles, one per list row. All bumps happen in
  // serial sections (outcome merges).
  struct {
    PD2GL_CLUSTER_COUNTERS(PD2GL_COUNTER_HANDLE)
  } counters_;
  /// Per-shard load series, {shard="i"}-labelled: seeds routed to each
  /// shard by sampling/traversal rounds and ids by gather rounds. The
  /// load signal dynamic partitioning (ROADMAP) and `pd2gl serve-bench`'s
  /// hottest-shard summary read.
  std::vector<obs::Counter*> shard_seed_counters_;
  std::vector<obs::Counter*> shard_gather_counters_;
  LatencyHistogram rpc_latency_;
  EpochCoordinator cutover_;
  std::unique_ptr<ReplicationManager> replication_;  // null when disabled
};

}  // namespace platod2gl
