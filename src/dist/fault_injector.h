// FaultInjector: deterministic, seedable fault injection for the
// distributed graph service simulation.
//
// The paper's deployment keeps graph servers alive for weeks under heavy
// traffic; any honest reproduction of that claim has to survive the
// failures such a deployment actually sees. The injector sits in
// GraphCluster's RPC dispatch and models four fault classes:
//
//   crash    — a shard's serving process dies (manual CrashShard): its
//              in-memory store is wiped and it refuses RPCs until
//              GraphCluster::RecoverShard rebuilds it from checkpoint +
//              WAL replay (see dist/shard.h).
//   failure  — a transient RPC loss: the request never reaches the shard
//              (so retries are exactly-once safe by construction).
//   timeout  — the response never arrives; the attempt costs the retry
//              policy's timeout budget in virtual time.
//   corrupt  — the response arrives with flipped/truncated bytes. The
//              cluster routes these through the real wire.h codec so the
//              decoder hardening is exercised on every injected fault.
//   slow     — the RPC succeeds but its virtual latency is inflated.
//
// Determinism: the n-th fault decision for shard s is a pure function of
// (seed, s, n) via SplitMix64 — independent of thread interleaving across
// shards and of wall-clock time — so fault runs are reproducible
// bit-for-bit and retries never perturb the per-shard sampling RNG
// streams (those are derived from an unrelated seed).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace platod2gl {

/// Probabilities of the transient fault classes, drawn independently per
/// RPC attempt (first match in the order below wins; they partition the
/// unit interval, so keep the sum <= 1).
struct FaultConfig {
  std::uint64_t seed = 0xFA017EC7ED5EEDULL;
  double failure_prob = 0.0;  ///< request lost in flight
  double timeout_prob = 0.0;  ///< response never arrives
  double corrupt_prob = 0.0;  ///< response bytes damaged in flight
  double slow_prob = 0.0;     ///< response delayed by slow_extra_us
  std::uint64_t slow_extra_us = 2000;
  // Replication-channel faults (primary -> replica log stream; see
  // docs/replication.md). Drawn per message from a stream independent of
  // the RPC fault draws, keyed by (shard, replica), so replication chaos
  // never perturbs the client-RPC fault schedule and vice versa.
  double rep_drop_prob = 0.0;       ///< replication message lost in flight
  double rep_duplicate_prob = 0.0;  ///< message delivered twice
  double rep_reorder_prob = 0.0;    ///< message swapped with its successor
};

class FaultInjector {
 public:
  enum class Fault : std::uint8_t { kNone, kFail, kTimeout, kCorrupt, kSlow };

  /// Fault classes on a replication channel (one primary -> one replica).
  /// kDrop models a lost message, kDuplicate an at-least-once transport,
  /// kReorder a message overtaken by its successor; the replica's
  /// contiguity check turns all three into deterministic retransmits.
  enum class RepFault : std::uint8_t { kNone, kDrop, kDuplicate, kReorder };

  /// Hard cap on replicas per shard the injector tracks state for
  /// (replication configs are validated against it).
  static constexpr std::size_t kMaxReplicas = 8;

  FaultInjector(FaultConfig config, std::size_t num_shards);

  /// Kill a shard: it refuses every RPC until RecoverShard. Thread-safe.
  void CrashShard(std::size_t shard);
  /// Mark a shard recovered (called by GraphCluster::RecoverShard once the
  /// store has been rebuilt). Thread-safe.
  void RestoreShard(std::size_t shard);
  bool IsCrashed(std::size_t shard) const;
  std::size_t NumCrashed() const;

  /// Fault decision for the next RPC attempt against `shard`.
  /// Deterministic per shard (see file header); thread-safe across shards.
  Fault NextFault(std::size_t shard);

  // --- Replica lifecycle + replication-channel faults --------------------

  /// Kill one replica process of a shard: its store is volatile (the
  /// ReplicationManager wipes it) and it neither receives log messages nor
  /// serves reads until RestoreReplica + re-bootstrap. Thread-safe.
  void CrashReplica(std::size_t shard, std::size_t replica);
  void RestoreReplica(std::size_t shard, std::size_t replica);
  bool IsReplicaCrashed(std::size_t shard, std::size_t replica) const;

  /// Partition the primary<->replica link: messages in BOTH directions are
  /// withheld (the replica falls behind, its acks stop) until HealReplica.
  /// Unlike a crash the replica keeps its store and may still serve reads.
  void PartitionReplica(std::size_t shard, std::size_t replica);
  void HealReplica(std::size_t shard, std::size_t replica);
  bool IsReplicaPartitioned(std::size_t shard, std::size_t replica) const;

  /// Fault decision for the next message on the (shard, replica) channel.
  /// The n-th draw is a pure function of (seed, shard, replica, n) —
  /// independent of RPC draws and of thread interleaving across channels.
  RepFault NextRepFault(std::size_t shard, std::size_t replica);

  /// Next raw 64-bit draw on the (shard, replica) channel — the
  /// deterministic randomness source for replication tests that need to
  /// pick a victim record (anti-entropy divergence injection).
  std::uint64_t RepDraw(std::size_t shard, std::size_t replica);

  /// Deterministically damage an encoded response in a way a length-
  /// prefixed codec must detect: flip the tag, blow up a length prefix,
  /// truncate the tail, or append trailing garbage. Never a silent payload
  /// flip — end-to-end payload checksums are out of scope for the wire
  /// format (see docs/fault_tolerance.md).
  void CorruptBytes(std::size_t shard, std::string* bytes);

  /// True when every transient probability is zero — lets the RPC path
  /// skip the draw entirely.
  bool PassiveExceptCrashes() const { return passive_; }

  const FaultConfig& config() const { return config_; }

 private:
  std::uint64_t Draw(std::size_t shard);  // next raw 64-bit draw for shard
  std::size_t Channel(std::size_t shard, std::size_t replica) const {
    return shard * kMaxReplicas + replica;
  }

  FaultConfig config_;
  bool passive_ = true;
  bool rep_passive_ = true;
  std::size_t num_shards_;
  std::unique_ptr<std::atomic<bool>[]> crashed_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> draws_;
  // Per-(shard, replica) state, indexed by Channel(): bit 0 = crashed,
  // bit 1 = partitioned. Sized num_shards x kMaxReplicas up front so a
  // cluster can enable replication without resizing the injector.
  std::unique_ptr<std::atomic<std::uint8_t>[]> replica_state_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> rep_draws_;
};

}  // namespace platod2gl
