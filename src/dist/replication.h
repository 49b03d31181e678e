// ReplicationManager: per-shard read replicas fed by WAL shipping, with
// deterministic failover and anti-entropy repair (DESIGN.md §13,
// docs/replication.md).
//
// The paper's deployment answers "what happens when a graph server dies
// mid-training?" with replicated serving processes behind each keyrange;
// this module reproduces that layer on top of the existing simulation:
//
//   * Log shipping. The durable per-shard WAL (dist/shard.h) doubles as
//     the replication log: Ship() delivers the window (applied, wal_seq]
//     as chunked RepLogAppend messages. A replica applies a message only
//     if it starts exactly at applied_seq + 1, so injected drops /
//     duplicates / reorders degrade into deterministic retransmits —
//     never divergence. Watermark invariant per replica:
//     acked_seq <= applied_seq <= wal_seq.
//   * Snapshot bootstrap. A replica behind the WAL's truncation point is
//     re-seeded with a CRC-verified io/checkpoint image (RepSnapshot),
//     then log shipping resumes past covered_seq.
//   * Deterministic failover. AdvanceTime() suspects a crashed primary,
//     waits out suspicion_timeout_us of virtual time, then promotes the
//     furthest-applied replica: WAL roll-forward + store install under
//     the epoch-coordinator write barrier, so the promoted store is
//     bit-identical to sequential replay of the primary's log.
//   * Anti-entropy. Per-keyrange (edge count, CRC-32 xor) bucket digests;
//     mismatches repaired by re-shipping the delta, lagging replicas
//     skipped (honest lag is not divergence — no false positives).
//
// Threading: every per-shard mutable structure is guarded by that shard's
// mutex. Shipping runs inline on the cluster's client thread after every
// write, so a run driven from one client thread is seed-pure. Two client
// threads writing at once each ship under the shard mutex, reading the
// primary's WAL through its locked accessors. Lock order: shard mutex
// before the epoch coordinator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "dist/fault_injector.h"
#include "dist/shard.h"
#include "dist/wire.h"
#include "obs/metrics.h"
#include "pipeline/epoch_coordinator.h"
#include "storage/graph_store.h"

namespace platod2gl {

struct ReplicationConfig {
  /// Read replicas per shard; 0 disables replication entirely (the
  /// cluster then behaves bit-identically to a build without this module).
  std::size_t num_replicas = 0;
  /// Max WAL entries per RepLogAppend message (the chunking unit faults
  /// are drawn against).
  std::size_t max_entries_per_append = 64;
  /// A replica may serve reads while at most this many WAL entries behind
  /// its primary; beyond it the read degrades instead (bounded staleness).
  std::uint64_t staleness_budget = 256;
  /// Virtual microseconds a primary must stay crashed (as observed by
  /// AdvanceTime) before a replica is promoted.
  std::uint64_t suspicion_timeout_us = 20000;
  /// Wire version stamped on outgoing messages. Tests set an unknown
  /// version to model an old-format peer; such replicas are excluded with
  /// kUnimplemented rather than fed garbage.
  std::uint8_t wire_version = wire::kReplicationWireVersion;
};

/// Transport-level counters, one row each: exported as
/// pd2gl_replication_<name> through the bound MetricRegistry and
/// snapshotted into ReplicationStats by ReplicationManager::stats().
#define PD2GL_REPLICATION_COUNTERS(X)                                          \
  X(ship_rounds)         /* Ship() passes over a shard */                      \
  X(append_messages)     /* RepLogAppend messages encoded */                   \
  X(ack_messages)        /* RepAck messages encoded */                         \
  X(bytes_shipped)       /* encoded bytes on all channels */                   \
  X(entries_applied)     /* WAL entries applied at replicas */                 \
  X(duplicate_entries)   /* entries skipped as <= applied */                   \
  X(rejected_appends)    /* messages refused (gap after drop/reorder) */       \
  X(dropped_messages)    /* injected kDrop faults taken */                     \
  X(duplicated_messages) /* injected kDuplicate faults taken */                \
  X(reordered_messages)  /* injected kReorder faults taken */                  \
  X(snapshot_bootstraps) /* RepSnapshot images applied */                      \
  X(unimplemented_peers) /* replicas excluded by version */                    \
  /* CPU nanoseconds spent doing the replica's side of replication:            \
     decoding appends and applying entries / snapshot images to replica        \
     stores. In a deployment this burns the replica machine's cores, not       \
     the primary's; bench_replication subtracts it to price what               \
     replication costs the ingest path itself on a shared-host simulation. */  \
  X(replica_apply_nanos)

struct ReplicationStats {
  PD2GL_REPLICATION_COUNTERS(PD2GL_STATS_FIELD)
};

class ReplicationManager {
 public:
  /// Outcome of one virtual-time health check.
  struct HealthReport {
    std::size_t failovers = 0;          ///< promotions performed
    std::uint64_t replayed_entries = 0; ///< WAL entries rolled forward
  };

  /// Outcome of one anti-entropy digest round over one or all shards.
  struct AntiEntropyReport {
    std::uint64_t digest_rounds = 0;     ///< replica comparisons performed
    std::uint64_t digest_mismatches = 0; ///< buckets that disagreed
    std::uint64_t repaired_replicas = 0; ///< replicas with >= 1 bad bucket
    std::uint64_t repaired_edges = 0;    ///< primary edges re-shipped
    std::uint64_t skipped_replicas = 0;  ///< lagging/partitioned/crashed
  };

  /// Which replica served a batch of seeds, and how far behind it was.
  struct ReplicaServe {
    std::size_t replica = 0;
    std::uint64_t lag = 0;  ///< wal_seq - applied_seq at serve time
  };

  /// Per-replica observability snapshot (tests, pd2gl verify-store).
  struct ReplicaProbe {
    std::uint64_t applied_seq = 0;
    std::uint64_t acked_seq = 0;
    std::uint64_t head_seq = 0;  ///< primary wal_seq at probe time
    bool crashed = false;
    bool partitioned = false;
    bool incompatible = false;  ///< excluded by version negotiation
    std::size_t edges = 0;
  };

  /// `primaries`, `injector` and `cutover` must outlive the manager.
  /// `metrics` (optional, must outlive the manager when given) is where
  /// the pd2gl_replication_* series are registered; null means a private
  /// registry (stats() works either way).
  ReplicationManager(const ReplicationConfig& config,
                     const GraphStoreConfig& store_config,
                     std::vector<GraphShard*> primaries,
                     FaultInjector* injector, EpochCoordinator* cutover,
                     obs::MetricRegistry* metrics = nullptr);
  ReplicationManager(const ReplicationManager&) = delete;
  ReplicationManager& operator=(const ReplicationManager&) = delete;

  // --- Shipping -----------------------------------------------------------

  /// New WAL entries may exist: one shipping pass over every shard, on
  /// the calling thread.
  void Kick();

  /// Ship until every live, unpartitioned, compatible replica has applied
  /// the full WAL; kDeadlineExceeded if the fault schedule keeps a channel
  /// lossy for an absurd number of rounds.
  Status Flush();

  // --- Reads --------------------------------------------------------------

  /// Serve `seeds` of `shard` from the freshest replica whose lag is
  /// within the staleness budget, sampling with an RNG seeded exactly like
  /// the primary path would (rng_seed). The draws are appended to `out`,
  /// one range per seed (`out->offsets` must already hold its leading 0).
  /// Pins the epoch coordinator for the duration, so a racing promotion
  /// waits for this read to drain. nullopt, with `out` untouched, when no
  /// replica qualifies (caller degrades the seeds).
  std::optional<ReplicaServe> SampleFromReplica(
      std::size_t shard, const std::vector<VertexId>& seeds,
      std::size_t fanout, bool weighted, std::uint64_t rng_seed,
      EdgeType type, NeighborBatch* out);

  // --- Failover -----------------------------------------------------------

  /// Virtual-time health monitor: note `now_us` (monotonic max) and check
  /// every shard — start suspicion on a crashed primary, and once a
  /// suspicion is older than suspicion_timeout_us promote the best
  /// replica. Deterministic given the operation sequence.
  HealthReport AdvanceTime(std::uint64_t now_us);

  // --- Anti-entropy -------------------------------------------------------

  /// One digest round for one shard (skipped entirely while its primary
  /// is crashed — there is no authoritative side to compare against).
  AntiEntropyReport RunAntiEntropy(std::size_t shard);
  /// One digest round over every shard.
  AntiEntropyReport RunAntiEntropyAll();

  // --- Replica lifecycle (driven by GraphCluster / tests) -----------------

  /// Wipe a replica's volatile store after FaultInjector::CrashReplica:
  /// both watermarks drop to 0 and the next ship round re-feeds it from the
  /// log (or a snapshot if the log was truncated).
  void WipeReplica(std::size_t shard, std::size_t replica);

  /// Deterministically corrupt one edge weight on a replica (divergence
  /// injection for anti-entropy tests). The victim is picked with the
  /// injector's RepDraw stream. Returns false if the replica has no edges.
  bool CorruptReplicaEdgeForTest(std::size_t shard, std::size_t replica);

  // --- Observability ------------------------------------------------------

  ReplicationStats stats() const;
  std::vector<ReplicaProbe> Probe(std::size_t shard);
  /// Serialize a replica's store (io/checkpoint byte format) — the
  /// byte-for-byte comparison hook for tests and `pd2gl verify-store`.
  Status SnapshotReplica(std::size_t shard, std::size_t replica,
                         std::string* out);
  const ReplicationConfig& config() const { return config_; }
  /// The registry the pd2gl_replication_* series live in (the caller's,
  /// or the private fallback).
  obs::MetricRegistry& metrics() { return *metrics_; }

 private:
  // The per-shard mutex lives behind a unique_ptr in a vector, so callers
  // cannot name it in an EXCLUDES clause; public methods document their
  // locking in prose and the private helpers use REQUIRES on the
  // dereferenced member.
  struct Replica {
    std::unique_ptr<GraphStore> store;
    std::uint64_t applied_seq = 0;
    std::uint64_t acked_seq = 0;  ///< primary-side view (<= applied_seq)
    bool incompatible = false;
    Status last_error;
  };

  struct ShardRep {
    mutable Mutex mu;
    std::vector<Replica> replicas GUARDED_BY(mu);
    /// Virtual time at which the primary was first seen crashed;
    /// kNotSuspected while it looks healthy.
    std::uint64_t suspected_since_us GUARDED_BY(mu) = kNotSuspected;
    /// Ship-round scratch: WAL windows are similarly sized round over
    /// round, so reusing the buffer keeps the hot path allocation-free.
    std::vector<TimedUpdate> window_scratch GUARDED_BY(mu);
  };

  static constexpr std::uint64_t kNotSuspected = ~std::uint64_t{0};
  static constexpr int kMaxFlushRounds = 4096;

  /// One shipping pass over `shard`: bootstrap lagging-behind-truncation
  /// replicas, then deliver the outstanding WAL window to every reachable
  /// replica and collect acks. Takes the shard's mutex.
  void Ship(std::size_t shard);
  /// Deliver one encoded RepLogAppend to a replica (decode + contiguity
  /// check + apply). Updates watermarks and counters.
  void DeliverAppend(const std::string& bytes, Replica& rep);
  /// Version negotiation failed: the peer speaks a format we do not. Mark
  /// it incompatible (kUnimplemented), counted once; it is excluded from
  /// shipping, reads and promotion until reconfigured.
  void MarkIncompatible(Replica& rep);
  /// Send the cumulative ack for one replica back to the primary side
  /// (subject to a drop draw on the reverse channel).
  void SendAck(std::size_t shard, std::size_t replica, ShardRep& sr)
      REQUIRES(sr.mu);
  /// Bootstrap one replica from a snapshot image. False if no image is
  /// obtainable right now (crashed primary without a checkpoint) or the
  /// message was dropped. A live primary is imaged from its serving
  /// store, so the caller must keep writers off that store meanwhile.
  bool BootstrapReplica(std::size_t shard, std::size_t replica, Replica& rep);
  /// Promote the best replica of a crashed shard. Returns entries
  /// replayed, or nullopt if no replica qualifies.
  std::optional<std::uint64_t> PromoteLocked(std::size_t shard, ShardRep& sr)
      REQUIRES(sr.mu);

  ReplicationConfig config_;
  GraphStoreConfig store_config_;
  std::vector<GraphShard*> primaries_;
  FaultInjector* injector_;
  EpochCoordinator* cutover_;
  std::vector<std::unique_ptr<ShardRep>> reps_;

  std::unique_ptr<obs::MetricRegistry> owned_metrics_;  ///< when none given
  obs::MetricRegistry* metrics_;
  // The pd2gl_replication_* handles, one per list row.
  struct {
    PD2GL_REPLICATION_COUNTERS(PD2GL_COUNTER_HANDLE)
  } counters_;
};

}  // namespace platod2gl
