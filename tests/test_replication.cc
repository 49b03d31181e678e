// Replication suite: WAL shipping to read replicas, deterministic
// failover and anti-entropy repair (DESIGN.md §13, docs/replication.md).
// The headline guarantees pinned here:
//
//   * replicas converge to the primary's exact bytes under drop /
//     duplicate / reorder faults, replica crashes, partitions and
//     WAL-truncating checkpoints (snapshot bootstrap);
//   * reads fall back to a replica within the staleness budget when a
//     primary is down (kStale, bit-identical when caught up) and degrade
//     beyond it;
//   * kill-and-promote is deterministic: same seed, same schedule, and
//     the promoted store is byte-identical to a never-crashed control;
//   * a fault-free replicated run is bit-identical to a
//     replication-disabled run;
//   * anti-entropy repairs injected divergence within one digest round
//     and reports zero mismatches across a clean 10-seed sweep.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "dist/cluster.h"
#include "dist/replication.h"
#include "dist/wire.h"
#include "io/checkpoint.h"

namespace platod2gl {
namespace {

ClusterConfig ReplicatedConfig(std::size_t replicas,
                               std::uint64_t seed = 0xC0FFEE) {
  ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.fault.seed = seed;
  cfg.replication.num_replicas = replicas;
  cfg.replication.suspicion_timeout_us = 1000;
  return cfg;
}

std::vector<EdgeUpdate> MakeBatch(VertexId lo, VertexId hi, VertexId offset,
                                  Weight w) {
  std::vector<EdgeUpdate> batch;
  for (VertexId s = lo; s <= hi; ++s) {
    batch.push_back({UpdateKind::kInsert, Edge{s, s + offset, w, 0}});
  }
  return batch;
}

std::string PrimaryBytes(GraphCluster& c, std::size_t s) {
  std::string bytes;
  EXPECT_TRUE(SaveGraphToBytes(c.shard(s).store(), &bytes).ok());
  return bytes;
}

std::string ReplicaBytes(GraphCluster& c, std::size_t s, std::size_t r) {
  std::string bytes;
  EXPECT_TRUE(c.replication()->SnapshotReplica(s, r, &bytes).ok());
  return bytes;
}

/// Assert every replica of every shard holds the primary's exact bytes.
void ExpectAllReplicasConverged(GraphCluster& c, std::size_t replicas) {
  for (std::size_t s = 0; s < c.num_shards(); ++s) {
    const std::string want = PrimaryBytes(c, s);
    for (std::size_t r = 0; r < replicas; ++r) {
      EXPECT_EQ(want, ReplicaBytes(c, s, r))
          << "shard " << s << " replica " << r << " diverged";
    }
  }
}

// --- Basic shipping --------------------------------------------------------

TEST(ReplicationShipTest, ReplicasMatchPrimaryByteForByte) {
  GraphCluster c(ReplicatedConfig(2));
  ASSERT_TRUE(c.has_replication());
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 300, 1000, 1.0)).ok());
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 100, 2000, 2.0)).ok());
  ASSERT_TRUE(c.FlushReplication().ok());
  ExpectAllReplicasConverged(c, 2);
  const ReplicationStats rs = c.replication_stats();
  EXPECT_GT(rs.entries_applied, 0u);
  EXPECT_GT(rs.append_messages, 0u);
  EXPECT_GT(rs.bytes_shipped, 0u);
  EXPECT_EQ(rs.rejected_appends, 0u) << "clean channel: no retransmits";
}

TEST(ReplicationShipTest, DisabledByDefaultAndBehaviourUnchanged) {
  ClusterConfig cfg;
  cfg.num_shards = 4;
  GraphCluster c(cfg);
  EXPECT_FALSE(c.has_replication());
  EXPECT_EQ(c.replication(), nullptr);
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 50, 1000, 1.0)).ok());
  EXPECT_TRUE(c.FlushReplication().ok());          // no-op
  EXPECT_EQ(c.RunAntiEntropy().digest_rounds, 0u); // no-op
  EXPECT_EQ(c.replication_stats().append_messages, 0u);
}

TEST(ReplicationShipTest, AckedWatermarkReachesLogHeadAfterFlush) {
  GraphCluster c(ReplicatedConfig(1));
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 80, 1000, 1.0)).ok());
  ASSERT_TRUE(c.FlushReplication().ok());
  for (std::size_t s = 0; s < c.num_shards(); ++s) {
    const std::uint64_t head = c.shard(s).wal_seq();
    for (const auto& probe : c.replication()->Probe(s)) {
      EXPECT_EQ(probe.applied_seq, head);
      EXPECT_EQ(probe.acked_seq, head);
      EXPECT_LE(probe.acked_seq, probe.applied_seq) << "watermark invariant";
    }
  }
}

// --- Channel faults --------------------------------------------------------

ClusterConfig LossyReplicatedConfig(std::uint64_t seed) {
  ClusterConfig cfg = ReplicatedConfig(2, seed);
  cfg.fault.rep_drop_prob = 0.15;
  cfg.fault.rep_duplicate_prob = 0.10;
  cfg.fault.rep_reorder_prob = 0.10;
  cfg.replication.max_entries_per_append = 8;  // many messages per window
  return cfg;
}

TEST(ReplicationChaosTest, ConvergesUnderDropDuplicateReorder) {
  GraphCluster c(LossyReplicatedConfig(0xBADCAB));
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 120, 1000 + round * 500,
                                       1.0 + round))
                    .ok());
  }
  ASSERT_TRUE(c.FlushReplication().ok());
  ExpectAllReplicasConverged(c, 2);
  const ReplicationStats rs = c.replication_stats();
  EXPECT_GT(rs.dropped_messages, 0u) << "fault schedule must have fired";
  EXPECT_GT(rs.duplicated_messages, 0u);
  EXPECT_GT(rs.reordered_messages, 0u);
  EXPECT_GT(rs.rejected_appends + rs.duplicate_entries, 0u)
      << "contiguity check must have refused or skipped something";
}

TEST(ReplicationChaosTest, ChaosRunIsAPureFunctionOfTheSeed) {
  auto run = [](std::uint64_t seed) {
    GraphCluster c(LossyReplicatedConfig(seed));
    for (int round = 0; round < 4; ++round) {
      EXPECT_TRUE(
          c.ApplyBatch(MakeBatch(1, 90, 1000 + round * 300, 2.0)).ok());
    }
    EXPECT_TRUE(c.FlushReplication().ok());
    std::vector<std::string> state;
    for (std::size_t s = 0; s < c.num_shards(); ++s) {
      state.push_back(PrimaryBytes(c, s));
      for (std::size_t r = 0; r < 2; ++r) {
        state.push_back(ReplicaBytes(c, s, r));
      }
    }
    return std::make_pair(state, c.replication_stats());
  };
  const auto a = run(7);
  const auto b = run(7);
  EXPECT_EQ(a.first, b.first) << "same seed, same bytes";
  EXPECT_EQ(a.second.dropped_messages, b.second.dropped_messages);
  EXPECT_EQ(a.second.duplicated_messages, b.second.duplicated_messages);
  EXPECT_EQ(a.second.reordered_messages, b.second.reordered_messages);
  EXPECT_EQ(a.second.rejected_appends, b.second.rejected_appends);
  EXPECT_EQ(a.second.append_messages, b.second.append_messages);
  EXPECT_EQ(a.second.bytes_shipped, b.second.bytes_shipped);
}

// --- Replica lifecycle -----------------------------------------------------

TEST(ReplicaLifecycleTest, CrashWipesAndRejoinCatchesUpFromTheLog) {
  GraphCluster c(ReplicatedConfig(2));
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 100, 1000, 1.0)).ok());
  ASSERT_TRUE(c.FlushReplication().ok());
  for (std::size_t s = 0; s < c.num_shards(); ++s) c.CrashReplica(s, 0);
  for (std::size_t s = 0; s < c.num_shards(); ++s) {
    EXPECT_EQ(c.replication()->Probe(s)[0].applied_seq, 0u) << "wiped";
  }
  // Writes continue while replica 0 is down; replica 1 keeps up.
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 100, 2000, 2.0)).ok());
  for (std::size_t s = 0; s < c.num_shards(); ++s) c.RecoverReplica(s, 0);
  ASSERT_TRUE(c.FlushReplication().ok());
  ExpectAllReplicasConverged(c, 2);
  // No checkpoint was taken, so the rejoin replayed the log from seq 0 —
  // never a snapshot.
  EXPECT_EQ(c.replication_stats().snapshot_bootstraps, 0u);
}

TEST(ReplicaLifecycleTest, PartitionStallsThenHealCatchesUp) {
  GraphCluster c(ReplicatedConfig(1));
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 60, 1000, 1.0)).ok());
  ASSERT_TRUE(c.FlushReplication().ok());
  std::vector<std::uint64_t> applied_at_cut(c.num_shards());
  for (std::size_t s = 0; s < c.num_shards(); ++s) {
    applied_at_cut[s] = c.replication()->Probe(s)[0].applied_seq;
    c.PartitionReplica(s, 0);
  }
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 60, 2000, 2.0)).ok());
  for (std::size_t s = 0; s < c.num_shards(); ++s) {
    EXPECT_EQ(c.replication()->Probe(s)[0].applied_seq, applied_at_cut[s])
        << "partitioned replica must not receive messages";
    c.HealReplica(s, 0);
  }
  ASSERT_TRUE(c.FlushReplication().ok());
  ExpectAllReplicasConverged(c, 1);
}

TEST(ReplicaLifecycleTest, BootstrapsFromSnapshotWhenWalTruncated) {
  // The checkpoint/truncation interaction: checkpointing truncates the
  // WAL prefix, so a wiped replica can no longer replay from seq 0 — it
  // must receive a CRC-checked snapshot covering the truncated prefix,
  // then log-ship the rest. No watermark gap, no lost entries.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "pd2gl_rep_boot";
  std::filesystem::remove_all(dir);
  GraphCluster c(ReplicatedConfig(1));
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 150, 1000, 1.0)).ok());
  ASSERT_TRUE(c.CheckpointAll(dir.string()).ok());  // truncates WALs
  for (std::size_t s = 0; s < c.num_shards(); ++s) {
    ASSERT_GT(c.shard(s).wal_truncated_through(), 0u);
    c.CrashReplica(s, 0);  // wiped: applied 0 < truncated_through
    c.RecoverReplica(s, 0);
  }
  // Post-truncation tail the snapshot does not cover.
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 40, 2000, 2.0)).ok());
  ASSERT_TRUE(c.FlushReplication().ok());
  ExpectAllReplicasConverged(c, 1);
  EXPECT_GT(c.replication_stats().snapshot_bootstraps, 0u)
      << "truncated log must force the snapshot path";
  std::filesystem::remove_all(dir);
}

// --- Version negotiation ---------------------------------------------------

TEST(ReplicationVersionTest, OldFormatPeerIsExcludedCleanly) {
  ClusterConfig cfg = ReplicatedConfig(1);
  cfg.replication.wire_version = 99;  // a version no decoder accepts
  GraphCluster c(cfg);
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 30, 1000, 1.0)).ok());
  ASSERT_TRUE(c.FlushReplication().ok()) << "incompatible peers are skipped,"
                                            " not spun on";
  const ReplicationStats rs = c.replication_stats();
  EXPECT_EQ(rs.unimplemented_peers, c.num_shards())
      << "each shard's replica counted once";
  EXPECT_EQ(rs.entries_applied, 0u) << "no entry crosses a version mismatch";
  for (std::size_t s = 0; s < c.num_shards(); ++s) {
    EXPECT_TRUE(c.replication()->Probe(s)[0].incompatible);
  }
  // An incompatible replica never serves reads: a dead primary degrades.
  const std::size_t dead = c.partitioner().ShardOf(1);
  c.CrashShard(dead);
  const SampleReport report = c.SampleNeighborsChecked({1}, 3, true, 11);
  EXPECT_EQ(report.seed_status[0], SeedStatus::kDegraded);
}

// --- Bounded-staleness read routing ---------------------------------------

TEST(ReplicaReadTest, CaughtUpReplicaServesBitIdenticalSamples) {
  GraphCluster control(ReplicatedConfig(0));  // replication disabled
  GraphCluster c(ReplicatedConfig(2));
  const auto batch = MakeBatch(1, 100, 1000, 1.5);
  ASSERT_TRUE(control.ApplyBatch(batch).ok());
  ASSERT_TRUE(c.ApplyBatch(batch).ok());
  ASSERT_TRUE(c.FlushReplication().ok());

  const std::vector<VertexId> seeds{1, 2, 3, 4, 5, 6, 7, 8};
  const SampleReport want = control.SampleNeighborsChecked(seeds, 3, true, 9);
  ASSERT_TRUE(want.complete());

  const std::size_t dead = c.partitioner().ShardOf(seeds[0]);
  c.CrashShard(dead);
  const SampleReport got = c.SampleNeighborsChecked(seeds, 3, true, 9);
  EXPECT_EQ(got.degraded_seeds, 0u)
      << "a caught-up replica must absorb the failure";
  EXPECT_EQ(got.batch.neighbors, want.batch.neighbors)
      << "replica at lag 0 must serve the primary's exact samples";
  EXPECT_EQ(got.batch.offsets, want.batch.offsets);
  bool saw_stale = false;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (c.partitioner().ShardOf(seeds[i]) == dead) {
      EXPECT_EQ(got.seed_status[i], SeedStatus::kStale);
      saw_stale = true;
    } else {
      EXPECT_EQ(got.seed_status[i], SeedStatus::kOk);
    }
  }
  EXPECT_TRUE(saw_stale);
  EXPECT_GT(c.stats().replica_read_seeds, 0u);
  EXPECT_EQ(c.stats().stale_replica_seeds, 0u) << "lag was 0";
}

TEST(ReplicaReadTest, LaggingReplicaServesWithinBudgetDegradesBeyond) {
  ClusterConfig cfg = ReplicatedConfig(1);
  cfg.replication.staleness_budget = 1000;
  GraphCluster within(cfg);
  cfg.replication.staleness_budget = 0;  // nothing stale may serve
  GraphCluster beyond(cfg);

  for (GraphCluster* c : {&within, &beyond}) {
    ASSERT_TRUE(c->ApplyBatch(MakeBatch(1, 100, 1000, 1.0)).ok());
    ASSERT_TRUE(c->FlushReplication().ok());
    const std::size_t dead = c->partitioner().ShardOf(1);
    // Cut the replica off, then land more writes on the (soon dead)
    // primary's WAL so the replica lags behind the log head.
    for (std::size_t s = 0; s < c->num_shards(); ++s) {
      c->PartitionReplica(s, 0);
    }
    c->CrashShard(dead);
    ASSERT_TRUE(c->ApplyBatch(MakeBatch(1, 100, 2000, 2.0)).ok());
  }

  const SampleReport ok = within.SampleNeighborsChecked({1}, 3, true, 5);
  EXPECT_EQ(ok.seed_status[0], SeedStatus::kStale) << "lag within budget";
  EXPECT_GT(within.stats().stale_replica_seeds, 0u);

  const SampleReport bad = beyond.SampleNeighborsChecked({1}, 3, true, 5);
  EXPECT_EQ(bad.seed_status[0], SeedStatus::kDegraded)
      << "lag beyond budget must degrade, not serve silently-stale data";
  EXPECT_EQ(beyond.stats().stale_replica_seeds, 0u);
}

// --- Deterministic failover ------------------------------------------------

TEST(FailoverTest, PromotedReplicaIsBitIdenticalToNeverCrashedControl) {
  GraphCluster control(ReplicatedConfig(0));
  GraphCluster c(ReplicatedConfig(2));
  const auto phase1 = MakeBatch(1, 150, 1000, 1.0);
  ASSERT_TRUE(control.ApplyBatch(phase1).ok());
  ASSERT_TRUE(c.ApplyBatch(phase1).ok());

  const std::size_t dead = c.partitioner().ShardOf(1);
  c.CrashShard(dead);
  // Mid-ingest writes keep landing in the dead primary's WAL (hinted
  // handoff) and keep shipping to its replicas.
  const auto phase2 = MakeBatch(1, 80, 2000, 2.0);
  ASSERT_TRUE(control.ApplyBatch(phase2).ok());
  ASSERT_TRUE(c.ApplyBatch(phase2).ok());

  // Age the suspicion past the timeout; the health monitor promotes.
  c.AdvanceVirtualTime(500);
  ASSERT_EQ(c.stats().failovers, 0u) << "suspicion must age first";
  c.AdvanceVirtualTime(2000);
  ASSERT_EQ(c.stats().failovers, 1u);
  EXPECT_FALSE(c.shard(dead).crashed()) << "promoted shard serves again";
  EXPECT_FALSE(c.fault_injector().IsCrashed(dead));
  EXPECT_EQ(c.cutover().epoch(), 1u) << "one cut-over, one epoch advance";

  // The acceptance bar: the promoted store is byte-identical to a
  // sequential replay of the primary's log == the never-crashed control.
  EXPECT_EQ(PrimaryBytes(c, dead), PrimaryBytes(control, dead));

  // And the cluster keeps working — fresh writes reach the new primary.
  const auto phase3 = MakeBatch(1, 40, 3000, 3.0);
  ASSERT_TRUE(control.ApplyBatch(phase3).ok());
  ASSERT_TRUE(c.ApplyBatch(phase3).ok());
  EXPECT_EQ(PrimaryBytes(c, dead), PrimaryBytes(control, dead));
}

TEST(FailoverTest, KillPrimaryMidIngestIsDeterministicAcrossSeeds) {
  // Chaos acceptance: kill a primary mid-ingest under channel faults,
  // promote, keep ingesting. For each seed, two runs must agree on every
  // byte and every counter; across seeds the fault schedules differ.
  auto run = [](std::uint64_t seed) {
    GraphCluster c(LossyReplicatedConfig(seed));
    EXPECT_TRUE(c.ApplyBatch(MakeBatch(1, 120, 1000, 1.0)).ok());
    const std::size_t dead = c.partitioner().ShardOf(1);
    c.CrashShard(dead);
    EXPECT_TRUE(c.ApplyBatch(MakeBatch(1, 60, 2000, 2.0)).ok());
    c.AdvanceVirtualTime(500);
    c.AdvanceVirtualTime(2000);
    EXPECT_EQ(c.stats().failovers, 1u);
    EXPECT_TRUE(c.ApplyBatch(MakeBatch(1, 60, 3000, 3.0)).ok());
    EXPECT_TRUE(c.FlushReplication().ok());
    std::vector<std::string> state;
    for (std::size_t s = 0; s < c.num_shards(); ++s) {
      state.push_back(PrimaryBytes(c, s));
      for (std::size_t r = 0; r < 2; ++r) {
        state.push_back(ReplicaBytes(c, s, r));
      }
    }
    const ReplicationStats rs = c.replication_stats();
    return std::make_tuple(state, rs.bytes_shipped, rs.dropped_messages,
                           c.stats().failover_replayed);
  };
  for (const std::uint64_t seed : {3ull, 17ull, 4242ull}) {
    const auto a = run(seed);
    const auto b = run(seed);
    EXPECT_EQ(a, b) << "seed " << seed
                    << ": same seed must give the same schedule and bytes";
  }
}

TEST(FailoverTest, FaultFreeReplicatedRunMatchesReplicationDisabledRun) {
  GraphCluster plain(ReplicatedConfig(0));
  GraphCluster replicated(ReplicatedConfig(2));
  for (int round = 0; round < 3; ++round) {
    const auto batch = MakeBatch(1, 100, 1000 + round * 500, 1.0 + round);
    ASSERT_TRUE(plain.ApplyBatch(batch).ok());
    ASSERT_TRUE(replicated.ApplyBatch(batch).ok());
    const std::vector<VertexId> seeds{1, 5, 9, 33, 77};
    const SampleReport a = plain.SampleNeighborsChecked(
        seeds, 4, true, static_cast<std::uint64_t>(round));
    const SampleReport b = replicated.SampleNeighborsChecked(
        seeds, 4, true, static_cast<std::uint64_t>(round));
    ASSERT_EQ(a.batch.neighbors, b.batch.neighbors) << "round " << round;
    ASSERT_EQ(a.batch.offsets, b.batch.offsets);
    ASSERT_EQ(a.seed_status, b.seed_status);
  }
  for (std::size_t s = 0; s < plain.num_shards(); ++s) {
    EXPECT_EQ(PrimaryBytes(plain, s), PrimaryBytes(replicated, s));
  }
  EXPECT_EQ(replicated.stats().failovers, 0u);
  EXPECT_EQ(replicated.stats().replica_read_seeds, 0u)
      << "fault-free: replicas must never be read";
}

TEST(FailoverTest, NoPromotionWhileEveryReplicaIsUnreachable) {
  GraphCluster c(ReplicatedConfig(1));
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 40, 1000, 1.0)).ok());
  for (std::size_t s = 0; s < c.num_shards(); ++s) c.PartitionReplica(s, 0);
  const std::size_t dead = c.partitioner().ShardOf(1);
  c.CrashShard(dead);
  c.AdvanceVirtualTime(500);
  c.AdvanceVirtualTime(5000);
  EXPECT_EQ(c.stats().failovers, 0u)
      << "a partitioned replica must not be promoted";
  EXPECT_TRUE(c.shard(dead).crashed());
  // Heal: the next health tick promotes.
  for (std::size_t s = 0; s < c.num_shards(); ++s) c.HealReplica(s, 0);
  c.AdvanceVirtualTime(1);
  EXPECT_EQ(c.stats().failovers, 1u);
  EXPECT_FALSE(c.shard(dead).crashed());
}

// --- Anti-entropy ----------------------------------------------------------

TEST(AntiEntropyTest, CleanReplicasProduceZeroMismatches) {
  GraphCluster c(ReplicatedConfig(2));
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 200, 1000, 1.0)).ok());
  ASSERT_TRUE(c.FlushReplication().ok());
  const auto report = c.RunAntiEntropy();
  EXPECT_EQ(report.digest_rounds, c.num_shards() * 2);
  EXPECT_EQ(report.digest_mismatches, 0u);
  EXPECT_EQ(report.repaired_replicas, 0u);
  EXPECT_EQ(report.skipped_replicas, 0u);
}

TEST(AntiEntropyTest, RepairsInjectedDivergenceWithinOneRound) {
  GraphCluster c(ReplicatedConfig(2));
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 200, 1000, 1.0)).ok());
  ASSERT_TRUE(c.FlushReplication().ok());
  ASSERT_TRUE(c.replication()->CorruptReplicaEdgeForTest(0, 1));
  const auto report = c.RunAntiEntropy();
  EXPECT_GE(report.digest_mismatches, 1u);
  EXPECT_EQ(report.repaired_replicas, 1u);
  EXPECT_GT(report.repaired_edges, 0u);
  EXPECT_GT(c.stats().antientropy_repairs, 0u);
  // One round later the fleet digests clean again.
  const auto verify = c.RunAntiEntropy();
  EXPECT_EQ(verify.digest_mismatches, 0u);
}

TEST(AntiEntropyTest, LaggingReplicasAreSkippedNotFlagged) {
  GraphCluster c(ReplicatedConfig(1));
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 50, 1000, 1.0)).ok());
  ASSERT_TRUE(c.FlushReplication().ok());
  for (std::size_t s = 0; s < c.num_shards(); ++s) c.PartitionReplica(s, 0);
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 50, 2000, 2.0)).ok());
  for (std::size_t s = 0; s < c.num_shards(); ++s) c.HealReplica(s, 0);
  // Healed but not yet flushed: replicas lag the log head. A digest
  // round must skip them — honest lag is not divergence.
  const auto report = c.RunAntiEntropy();
  EXPECT_EQ(report.digest_mismatches, 0u);
  EXPECT_EQ(report.skipped_replicas, c.num_shards());
}

TEST(AntiEntropyTest, TenSeedCleanSweepHasZeroFalsePositives) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GraphCluster c(LossyReplicatedConfig(seed));
    for (int round = 0; round < 3; ++round) {
      ASSERT_TRUE(
          c.ApplyBatch(MakeBatch(1, 80, 1000 + round * 400, 1.0)).ok());
    }
    ASSERT_TRUE(c.FlushReplication().ok());
    const auto report = c.RunAntiEntropy();
    EXPECT_EQ(report.digest_mismatches, 0u)
        << "seed " << seed << ": lossy-channel convergence must leave no "
        << "divergence for anti-entropy to find";
    EXPECT_EQ(report.repaired_replicas, 0u) << "seed " << seed;
  }
}

// --- Chaos matrix sweep (nightly hook) -------------------------------------

// One pass of the kill/rejoin/partition matrix under a lossy channel:
// crash-and-rejoin a replica, partition-and-heal another, then kill a
// primary and let the health monitor promote — all from one seed, so the
// whole run is a pure function of it. CI's default pass covers 3 seeds;
// the nightly workflow input widens it via PD2GL_REPLICATION_SWEEP_SEEDS
// (the failing seed is echoed in the assertion message either way).
void RunChaosMatrix(std::uint64_t seed) {
  SCOPED_TRACE("chaos matrix seed " + std::to_string(seed));
  GraphCluster c(LossyReplicatedConfig(seed));
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 120, 1000, 1.0)).ok());

  // Replica kill + rejoin: the rejoining replica replays the log (or
  // bootstraps a snapshot) back to convergence.
  for (std::size_t s = 0; s < c.num_shards(); ++s) c.CrashReplica(s, 0);
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 80, 2000, 2.0)).ok());
  for (std::size_t s = 0; s < c.num_shards(); ++s) c.RecoverReplica(s, 0);

  // Partition + heal the other replica while ingest continues.
  for (std::size_t s = 0; s < c.num_shards(); ++s) c.PartitionReplica(s, 1);
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 80, 3000, 3.0)).ok());
  for (std::size_t s = 0; s < c.num_shards(); ++s) c.HealReplica(s, 1);

  // Primary kill mid-ingest; suspicion ages, a replica is promoted.
  const std::size_t dead = c.partitioner().ShardOf(1);
  c.CrashShard(dead);
  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 60, 4000, 4.0)).ok());
  c.AdvanceVirtualTime(500);
  c.AdvanceVirtualTime(2000);
  ASSERT_EQ(c.stats().failovers, 1u);

  ASSERT_TRUE(c.ApplyBatch(MakeBatch(1, 60, 5000, 5.0)).ok());
  ASSERT_TRUE(c.FlushReplication().ok());
  ExpectAllReplicasConverged(c, 2);
  const auto report = c.RunAntiEntropy();
  EXPECT_EQ(report.digest_mismatches, 0u)
      << "post-chaos convergence must leave nothing for anti-entropy";
  EXPECT_EQ(report.repaired_replicas, 0u);
}

TEST(ReplicationChaosTest, KillRejoinPartitionMatrixSweep) {
  std::uint64_t seeds = 3;
  if (const char* env = std::getenv("PD2GL_REPLICATION_SWEEP_SEEDS")) {
    seeds = std::strtoull(env, nullptr, 10);
    if (seeds == 0 || seeds > 64) seeds = 3;
  }
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) RunChaosMatrix(seed);
}

}  // namespace
}  // namespace platod2gl
