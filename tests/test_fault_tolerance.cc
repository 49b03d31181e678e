// Chaos suite: fault injection, retry/backoff/deadline semantics,
// degraded sampling and WAL-based shard recovery (DESIGN.md §9,
// docs/fault_tolerance.md). The headline guarantees pinned here:
//
//   * transient faults within the retry budget are INVISIBLE — sampling
//     results are bit-identical to a fault-free run and no seed degrades;
//   * faults past the budget degrade per seed (flagged empty ranges),
//     never throw and never hang;
//   * a crashed shard recovered from checkpoint + WAL replay matches a
//     never-crashed control cluster exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "dist/cluster.h"
#include "dist/fault_injector.h"
#include "dist/remote_sampler.h"
#include "dist/shard.h"
#include "dist/wire.h"

namespace platod2gl {
namespace {

// --- FaultInjector unit tests ---------------------------------------------

FaultConfig NoisyConfig() {
  FaultConfig f;
  f.failure_prob = 0.15;
  f.timeout_prob = 0.10;
  f.corrupt_prob = 0.10;
  f.slow_prob = 0.10;
  return f;
}

TEST(FaultInjectorTest, FaultSequenceIsDeterministicPerShard) {
  FaultInjector a(NoisyConfig(), 4);
  FaultInjector b(NoisyConfig(), 4);
  for (std::size_t shard = 0; shard < 4; ++shard) {
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(a.NextFault(shard), b.NextFault(shard))
          << "shard " << shard << " draw " << i;
    }
  }
}

TEST(FaultInjectorTest, ShardsDrawIndependentStreams) {
  // Draining shard 0 must not advance shard 1's sequence: replay shard 1
  // against a fresh injector where shard 0 was never touched.
  FaultInjector mixed(NoisyConfig(), 2);
  for (int i = 0; i < 100; ++i) mixed.NextFault(0);
  std::vector<FaultInjector::Fault> shard1;
  for (int i = 0; i < 100; ++i) shard1.push_back(mixed.NextFault(1));

  FaultInjector clean(NoisyConfig(), 2);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(clean.NextFault(1), shard1[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(FaultInjectorTest, PassiveWhenAllProbabilitiesZero) {
  FaultInjector quiet(FaultConfig{}, 2);
  EXPECT_TRUE(quiet.PassiveExceptCrashes());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(quiet.NextFault(0), FaultInjector::Fault::kNone);
  }
  EXPECT_FALSE(FaultInjector(NoisyConfig(), 2).PassiveExceptCrashes());
}

TEST(FaultInjectorTest, CrashLifecycle) {
  FaultInjector inj(FaultConfig{}, 3);
  EXPECT_EQ(inj.NumCrashed(), 0u);
  inj.CrashShard(1);
  EXPECT_TRUE(inj.IsCrashed(1));
  EXPECT_FALSE(inj.IsCrashed(0));
  EXPECT_EQ(inj.NumCrashed(), 1u);
  inj.RestoreShard(1);
  EXPECT_FALSE(inj.IsCrashed(1));
  EXPECT_EQ(inj.NumCrashed(), 0u);
}

TEST(FaultInjectorTest, CorruptBytesAlwaysRejectedByHardenedDecoders) {
  // CorruptBytes promises structural damage; the hardened decoders must
  // reject every single corruption, whatever mode the draw picks.
  NeighborBatch resp;
  resp.offsets = {0, 3, 3, 5};
  resp.neighbors = {10, 11, 12, 20, 21};
  const std::string clean = wire::EncodeSampleResponse(resp);

  // A gather reply: the same layout over 4-byte feature values.
  wire::FeatureBatch rows;
  rows.offsets = {0, 2, 2, 3};
  rows.values = {0.5f, 1.5f, -3.0f};
  const std::string clean_rows = wire::EncodeSampleResponse(rows);

  FaultInjector inj(NoisyConfig(), 1);
  for (int i = 0; i < 400; ++i) {
    std::string damaged = clean;
    inj.CorruptBytes(0, &damaged);
    ASSERT_NE(damaged, clean) << "corruption must change the bytes";
    NeighborBatch decoded;
    ASSERT_FALSE(wire::DecodeSampleResponse(damaged, &decoded))
        << "iteration " << i << ": structurally damaged response decoded";
    std::string damaged_rows = clean_rows;
    inj.CorruptBytes(0, &damaged_rows);
    wire::FeatureBatch decoded_rows;
    ASSERT_FALSE(wire::DecodeSampleResponse(damaged_rows, &decoded_rows))
        << "iteration " << i << ": structurally damaged gather reply decoded";
  }
}

// --- Cluster-level transient-fault tests -----------------------------------

/// Insert degree-5 neighbourhoods for vertices 1..100 so weighted
/// sampling has real randomness to get wrong under faults.
void PopulateFanout(GraphCluster* c) {
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 100; ++s) {
    for (VertexId k = 0; k < 5; ++k) {
      batch.push_back({UpdateKind::kInsert,
                       Edge{s, s * 10 + k, 1.0 + static_cast<double>(k), 0}});
    }
  }
  ASSERT_TRUE(c->ApplyBatch(batch).ok());
}

ClusterConfig FaultyConfig(FaultConfig fault) {
  ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.fault = fault;
  cfg.retry.max_attempts = 6;
  cfg.retry.deadline_us = 100'000'000;  // generous: the budget is attempts
  return cfg;
}

TEST(ClusterFaultTest, TransientFaultsWithinBudgetAreInvisible) {
  GraphCluster control(FaultyConfig(FaultConfig{}));  // no faults
  GraphCluster faulty(FaultyConfig(NoisyConfig()));
  PopulateFanout(&control);
  PopulateFanout(&faulty);
  ASSERT_EQ(control.NumEdges(), faulty.NumEdges());

  std::vector<VertexId> seeds;
  for (VertexId s = 1; s <= 100; ++s) seeds.push_back(s);
  for (std::uint64_t round = 0; round < 20; ++round) {
    const SampleReport want =
        control.SampleNeighborsChecked(seeds, 3, /*weighted=*/true, round);
    const SampleReport got =
        faulty.SampleNeighborsChecked(seeds, 3, /*weighted=*/true, round);
    // Retries re-derive the per-shard RNG stream, so the faulty run is
    // bit-identical to the fault-free control.
    ASSERT_EQ(got.batch.offsets, want.batch.offsets) << "round " << round;
    ASSERT_EQ(got.batch.neighbors, want.batch.neighbors) << "round " << round;
    ASSERT_TRUE(got.complete());
  }

  // The faults really happened — they were just absorbed by retries.
  const ClusterStats& st = faulty.stats();
  EXPECT_GT(st.transient_faults, 0u);
  EXPECT_GT(st.retries, 0u);
  EXPECT_EQ(st.degraded_seeds, 0u);
  EXPECT_EQ(st.deadline_hits, 0u);
  EXPECT_GT(st.rpcs, control.stats().rpcs);
  // Slow RPCs and retries both inflate virtual time, never wall time.
  EXPECT_GT(st.virtual_network_us, control.stats().virtual_network_us);
}

TEST(ClusterFaultTest, CorruptResponsesAreDetectedAndRetried) {
  FaultConfig fault;
  fault.corrupt_prob = 0.5;
  GraphCluster control(FaultyConfig(FaultConfig{}));
  // Half of all responses are damaged, so 6 attempts occasionally run out
  // (0.5^6 per logical RPC); a deeper budget keeps every seed served.
  ClusterConfig faulty_cfg = FaultyConfig(fault);
  faulty_cfg.retry.max_attempts = 16;
  GraphCluster faulty(faulty_cfg);
  PopulateFanout(&control);
  PopulateFanout(&faulty);

  std::vector<VertexId> seeds;
  for (VertexId s = 1; s <= 100; ++s) seeds.push_back(s);
  for (std::uint64_t round = 0; round < 10; ++round) {
    const NeighborBatch want = control.SampleNeighbors(seeds, 3, true, round);
    const NeighborBatch got = faulty.SampleNeighbors(seeds, 3, true, round);
    ASSERT_EQ(got.offsets, want.offsets);
    ASSERT_EQ(got.neighbors, want.neighbors);
  }
  // The damaged responses went through the real codec and were dropped
  // there, not waved through.
  EXPECT_GT(faulty.stats().corrupt_responses, 0u);
  EXPECT_GT(faulty.stats().retries, 0u);
  EXPECT_EQ(faulty.stats().degraded_seeds, 0u);
}

TEST(ClusterFaultTest, DeadlineDegradesSeedsWithoutThrowingOrHanging) {
  FaultConfig fault;
  fault.failure_prob = 1.0;  // shard is effectively unreachable
  ClusterConfig cfg = FaultyConfig(fault);
  cfg.retry.max_attempts = 100;     // attempts won't stop it...
  cfg.retry.deadline_us = 2'000;    // ...the deadline will
  GraphCluster cluster(cfg);
  const SampleReport report =
      cluster.SampleNeighborsChecked({1, 2, 3, 4, 5}, 4, true, 7);
  ASSERT_EQ(report.batch.NumSeeds(), 5u);
  ASSERT_EQ(report.seed_status.size(), 5u);
  EXPECT_EQ(report.degraded_seeds, 5u);
  EXPECT_FALSE(report.complete());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(report.seed_status[i], SeedStatus::kDegraded);
    EXPECT_EQ(report.batch.offsets[i + 1], report.batch.offsets[i])
        << "degraded seeds must come back as the empty marker";
  }
  EXPECT_GT(cluster.stats().deadline_hits, 0u);
  EXPECT_EQ(cluster.stats().degraded_seeds, 5u);
}

TEST(ClusterFaultTest, ApplyBatchReportsLostUpdatesPastBudget) {
  FaultConfig fault;
  fault.failure_prob = 1.0;
  ClusterConfig cfg = FaultyConfig(fault);
  cfg.retry.max_attempts = 3;
  GraphCluster cluster(cfg);
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 20; ++s) {
    batch.push_back({UpdateKind::kInsert, Edge{s, s + 100, 1.0, 0}});
  }
  const Status s = cluster.ApplyBatch(batch);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(cluster.stats().lost_updates, 20u);
  EXPECT_EQ(cluster.NumEdges(), 0u);  // nothing half-applied
}

TEST(ClusterFaultTest, ApplyBatchSurvivesTransientFaults) {
  GraphCluster control(FaultyConfig(FaultConfig{}));
  GraphCluster faulty(FaultyConfig(NoisyConfig()));
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 500; ++s) {
    batch.push_back({UpdateKind::kInsert, Edge{s, s + 1000, 1.0, 0}});
  }
  ASSERT_TRUE(control.ApplyBatch(batch).ok());
  ASSERT_TRUE(faulty.ApplyBatch(batch).ok());
  // Exactly-once: retries never double-applied an update.
  EXPECT_EQ(faulty.NumEdges(), control.NumEdges());
  for (VertexId s = 1; s <= 500; ++s) {
    ASSERT_EQ(faulty.Degree(s), 1u) << s;
  }
  EXPECT_EQ(faulty.stats().lost_updates, 0u);
}

TEST(ClusterFaultTest, CrashedShardDegradesOnlyItsOwnSeeds) {
  GraphCluster cluster(FaultyConfig(FaultConfig{}));
  PopulateFanout(&cluster);

  const std::size_t victim = cluster.partitioner().ShardOf(1);
  cluster.CrashShard(victim);
  EXPECT_EQ(cluster.fault_injector().NumCrashed(), 1u);

  std::vector<VertexId> seeds;
  for (VertexId s = 1; s <= 100; ++s) seeds.push_back(s);
  const SampleReport report = cluster.SampleNeighborsChecked(seeds, 3, true, 9);
  ASSERT_EQ(report.batch.NumSeeds(), seeds.size());
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const bool on_victim = cluster.partitioner().ShardOf(seeds[i]) == victim;
    if (on_victim) {
      ++degraded;
      EXPECT_EQ(report.seed_status[i], SeedStatus::kDegraded);
      EXPECT_EQ(report.batch.offsets[i + 1], report.batch.offsets[i]);
    } else {
      EXPECT_EQ(report.seed_status[i], SeedStatus::kOk);
      // Live shards keep serving full fanout, unperturbed by the crash.
      EXPECT_EQ(report.batch.offsets[i + 1] - report.batch.offsets[i], 3u);
    }
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_EQ(report.degraded_seeds, degraded);
  EXPECT_GT(cluster.stats().crash_rejections, 0u);
}

// --- Multi-item rounds: the client-side scatter ----------------------------
//
// A SampleMany / TraverseMany round ships one flat response per shard with
// every item's ranges back to back; the client scatters them into each
// item's batch in seed order. The test below puts several items, a retried
// shard and a replica-served shard into one round.

/// Five sampling items over vertices 1..100 (degree 5, PopulateFanout) and
/// dangling ids >= 5000 (no out-edges), with duplicates, mixed fanouts and
/// both weightings; the empty item rides in the middle. The last item's
/// seeds all live on shard kOneShard of a 4-shard cluster, so issued alone
/// it takes the one-shard path. `round` shifts every RNG seed.
struct MixedRound {
  static constexpr std::size_t kOneShard = 2;

  std::vector<std::vector<VertexId>> seeds{
      {},  // filled below: 1..40 then duplicates and a dangling id
      {100, 98, 96, 94, 92, 90, 88, 86, 84, 82, 80, 78, 76, 74, 72, 70,
       68, 66, 64, 62, 60, 58, 56, 54, 52, 50, 48, 46, 44, 42, 5001, 42, 42},
      {},
      {5002, 3, 99, 3, 60, 5003, 41},
      {}};  // filled below: shard kOneShard's first 8 vertices, a duplicate

  MixedRound() {
    for (VertexId v = 1; v <= 40; ++v) seeds[0].push_back(v);
    seeds[0].insert(seeds[0].end(), {7, 7, 5000, 1});
    const HashBySourcePartitioner partitioner(4);
    for (VertexId v = 1; v <= 100 && seeds[4].size() < 8; ++v) {
      if (partitioner.ShardOf(v) == kOneShard) seeds[4].push_back(v);
    }
    seeds[4].push_back(seeds[4].front());
  }

  std::vector<SampleWorkItem> Sample(std::uint64_t round) const {
    const std::size_t fanout[] = {3, 7, 2, 1, 4};
    const bool weighted[] = {true, false, true, true, true};
    std::vector<SampleWorkItem> work(seeds.size());
    for (std::size_t i = 0; i < work.size(); ++i) {
      work[i].seeds = &seeds[i];
      work[i].fanout = fanout[i];
      work[i].weighted = weighted[i];
      work[i].rng_seed = 11 + i + 100 * round;
    }
    return work;
  }

  /// Caps below (3) and above (8) the degree.
  std::vector<TraverseWorkItem> Traverse() const {
    std::vector<TraverseWorkItem> work(2);
    work[0].seeds = &seeds[0];
    work[0].cap = 3;
    work[1].seeds = &seeds[1];
    work[1].cap = 8;
    return work;
  }
};

void ExpectSameReport(const SampleReport& got, const SampleReport& want,
                      const std::string& what) {
  EXPECT_EQ(got.batch.offsets, want.batch.offsets) << what;
  EXPECT_EQ(got.batch.neighbors, want.batch.neighbors) << what;
  EXPECT_EQ(got.seed_status, want.seed_status) << what;
  EXPECT_EQ(got.degraded_seeds, want.degraded_seeds) << what;
}

/// Each range holds what its seed owns: `per_seed` ids (0 for a dangling
/// seed) from the seed's own neighbourhood {10s, ..., 10s + 4}.
void ExpectRangesOfSeeds(const SampleReport& r,
                         const std::vector<VertexId>& seeds,
                         std::size_t per_seed, const std::string& what) {
  ASSERT_EQ(r.batch.NumSeeds(), seeds.size()) << what;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const bool dangling = seeds[i] > 100;
    EXPECT_EQ(r.batch.offsets[i + 1] - r.batch.offsets[i],
              dangling ? 0 : per_seed)
        << what << " seed " << seeds[i];
    for (std::size_t j = r.batch.offsets[i]; j < r.batch.offsets[i + 1]; ++j) {
      EXPECT_EQ(r.batch.neighbors[j] / 10, seeds[i]) << what;
    }
  }
}

TEST(ClusterFaultTest, MultiItemRoundMatchesSoloUnderFaultsAndFallback) {
  const MixedRound mixed;
  const std::vector<TraverseWorkItem> traverse = mixed.Traverse();
  constexpr std::uint64_t kRounds = 6;

  // (a) Fault-free: every item of the round equals the item issued alone,
  // and holds exactly its seeds' ranges.
  GraphCluster control(FaultyConfig(FaultConfig{}));
  PopulateFanout(&control);
  std::set<std::size_t> shards_hit;
  for (const std::vector<VertexId>& seeds : mixed.seeds) {
    for (VertexId v : seeds) {
      shards_hit.insert(control.partitioner().ShardOf(v));
    }
  }
  ASSERT_EQ(shards_hit.size(), control.num_shards());
  ASSERT_EQ(mixed.seeds[4].size(), 9u);
  for (VertexId v : mixed.seeds[4]) {
    ASSERT_EQ(control.partitioner().ShardOf(v), MixedRound::kOneShard);
  }

  std::vector<MultiSampleReport> want(kRounds);
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    const std::vector<SampleWorkItem> work = mixed.Sample(round);
    want[round] = control.SampleMany(work);
    ASSERT_EQ(want[round].reports.size(), work.size());
    for (std::size_t i = 0; i < work.size(); ++i) {
      const std::string what =
          "round " + std::to_string(round) + " item " + std::to_string(i);
      ExpectSameReport(want[round].reports[i],
                       control.SampleNeighborsChecked(
                           *work[i].seeds, work[i].fanout, work[i].weighted,
                           work[i].rng_seed),
                       what);
      ExpectRangesOfSeeds(want[round].reports[i], *work[i].seeds,
                          work[i].fanout, what);
    }
  }
  const MultiSampleReport want_traverse = control.TraverseMany(traverse);
  for (std::size_t i = 0; i < traverse.size(); ++i) {
    const std::string what = "traverse item " + std::to_string(i);
    ExpectSameReport(want_traverse.reports[i],
                     control.TraverseMany({traverse[i]}).reports[0], what);
    ExpectRangesOfSeeds(want_traverse.reports[i], *traverse[i].seeds,
                        std::min<std::size_t>(traverse[i].cap, 5), what);
  }

  // (b) Lost requests and damaged responses within the retry budget: the
  // retried shards' ranges land in the same slots.
  FaultConfig fault;
  fault.failure_prob = 0.2;
  fault.corrupt_prob = 0.3;
  ClusterConfig faulty_cfg = FaultyConfig(fault);
  faulty_cfg.retry.max_attempts = 32;
  GraphCluster faulty(faulty_cfg);
  PopulateFanout(&faulty);
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    const std::vector<SampleWorkItem> work = mixed.Sample(round);
    const MultiSampleReport got = faulty.SampleMany(work);
    for (std::size_t i = 0; i < work.size(); ++i) {
      const std::string what =
          "faulty round " + std::to_string(round) + " item " +
          std::to_string(i);
      ExpectSameReport(got.reports[i], want[round].reports[i], what);
      ExpectSameReport(faulty.SampleNeighborsChecked(
                           *work[i].seeds, work[i].fanout, work[i].weighted,
                           work[i].rng_seed),
                       want[round].reports[i], what + " alone");
    }
    const MultiSampleReport got_traverse = faulty.TraverseMany(traverse);
    for (std::size_t i = 0; i < traverse.size(); ++i) {
      ExpectSameReport(got_traverse.reports[i], want_traverse.reports[i],
                       "faulty traverse item " + std::to_string(i));
    }
  }
  const ClusterStats st = faulty.stats();
  EXPECT_GT(st.corrupt_responses, 0u);
  EXPECT_GT(st.transient_faults, st.corrupt_responses) << "no kFail drawn";
  EXPECT_EQ(st.degraded_seeds, 0u);

  // (c) A primary in the middle of the response order crashed, its
  // caught-up replica serving: sampled items are unchanged and exactly
  // that shard's seeds are kStale. Traversal has no replica fallback, so
  // there exactly those seeds degrade to empty ranges.
  ClusterConfig replicated_cfg = FaultyConfig(FaultConfig{});
  replicated_cfg.replication.num_replicas = 1;
  // Never fail over: the crashed primary stays down for every round.
  replicated_cfg.replication.suspicion_timeout_us = 1'000'000'000;
  GraphCluster replicated(replicated_cfg);
  PopulateFanout(&replicated);
  ASSERT_TRUE(replicated.FlushReplication().ok());
  // The one-shard item's shard: its solo round falls back to the replica.
  constexpr std::size_t kVictim = MixedRound::kOneShard;
  replicated.CrashShard(kVictim);
  const auto on_victim = [&](VertexId v) {
    return replicated.partitioner().ShardOf(v) == kVictim;
  };
  std::size_t items_on_victim = 0;
  for (const std::vector<VertexId>& seeds : mixed.seeds) {
    items_on_victim += std::any_of(seeds.begin(), seeds.end(), on_victim);
  }
  ASSERT_GE(items_on_victim, 3u);

  for (std::uint64_t round = 0; round < kRounds; ++round) {
    const std::vector<SampleWorkItem> work = mixed.Sample(round);
    const MultiSampleReport got = replicated.SampleMany(work);
    for (std::size_t i = 0; i < work.size(); ++i) {
      const std::string what =
          "replica round " + std::to_string(round) + " item " +
          std::to_string(i);
      const SampleReport& r = got.reports[i];
      EXPECT_EQ(r.batch.offsets, want[round].reports[i].batch.offsets) << what;
      EXPECT_EQ(r.batch.neighbors, want[round].reports[i].batch.neighbors)
          << what;
      EXPECT_EQ(r.degraded_seeds, 0u) << what;
      for (std::size_t k = 0; k < work[i].seeds->size(); ++k) {
        EXPECT_EQ(r.seed_status[k], on_victim((*work[i].seeds)[k])
                                        ? SeedStatus::kStale
                                        : SeedStatus::kOk)
            << what << " seed " << (*work[i].seeds)[k];
      }
      ExpectSameReport(replicated.SampleNeighborsChecked(
                           *work[i].seeds, work[i].fanout, work[i].weighted,
                           work[i].rng_seed),
                       r, what + " alone");
    }
  }
  EXPECT_GT(replicated.stats().replica_read_seeds, 0u);
  EXPECT_EQ(replicated.stats().failovers, 0u);

  const MultiSampleReport got_traverse = replicated.TraverseMany(traverse);
  for (std::size_t i = 0; i < traverse.size(); ++i) {
    const std::string what = "replica traverse item " + std::to_string(i);
    const SampleReport& r = got_traverse.reports[i];
    const SampleReport& w = want_traverse.reports[i];
    const std::vector<VertexId>& seeds = *traverse[i].seeds;
    ASSERT_EQ(r.batch.NumSeeds(), seeds.size()) << what;
    std::size_t degraded = 0;
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      const auto range = [](const SampleReport& rep, std::size_t k) {
        return std::vector<VertexId>(
            rep.batch.neighbors.begin() +
                static_cast<std::ptrdiff_t>(rep.batch.offsets[k]),
            rep.batch.neighbors.begin() +
                static_cast<std::ptrdiff_t>(rep.batch.offsets[k + 1]));
      };
      if (on_victim(seeds[k])) {
        ++degraded;
        EXPECT_EQ(r.seed_status[k], SeedStatus::kDegraded) << what;
        EXPECT_TRUE(range(r, k).empty()) << what;
      } else {
        EXPECT_EQ(r.seed_status[k], SeedStatus::kOk) << what;
        EXPECT_EQ(range(r, k), range(w, k)) << what << " seed " << seeds[k];
      }
    }
    EXPECT_GT(degraded, 0u) << what;
    EXPECT_EQ(r.degraded_seeds, degraded) << what;
    ExpectSameReport(replicated.TraverseMany({traverse[i]}).reports[0], r,
                     what + " alone");
  }
}

/// Feature rows on the owning shards: vertex v in 1..60 holds
/// {v, v + 0.5} when v % 3 != 0 and {v, v + 0.5, -v} when v % 3 == 0.
void PopulateFeatures(GraphCluster* c) {
  for (VertexId v = 1; v <= 60; ++v) {
    std::vector<float> row{static_cast<float>(v),
                           static_cast<float>(v) + 0.5f};
    if (v % 3 == 0) row.push_back(-static_cast<float>(v));
    c->shard(c->partitioner().ShardOf(v))
        .store()
        .attributes()
        .SetFeatures(v, std::move(row));
  }
}

void ExpectSameGather(const MultiGatherReport& got,
                      const MultiGatherReport& want, const std::string& what) {
  EXPECT_EQ(got.dim, want.dim) << what;
  ASSERT_EQ(got.reports.size(), want.reports.size()) << what;
  for (std::size_t i = 0; i < want.reports.size(); ++i) {
    const std::string item = what + " item " + std::to_string(i);
    EXPECT_EQ(got.reports[i].features, want.reports[i].features) << item;
    EXPECT_EQ(got.reports[i].row_status, want.reports[i].row_status) << item;
    EXPECT_EQ(got.reports[i].degraded_rows, want.reports[i].degraded_rows)
        << item;
  }
}

TEST(ClusterFaultTest, GatherRoundMatchesSoloUnderFaults) {
  // Three items: duplicates, ids without features (61.., >= 5000), rows of
  // width 2 and 3; together they touch every shard.
  const std::vector<std::vector<VertexId>> ids{
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 3, 3, 5000, 1},
      {60, 58, 57, 61, 99, 45, 44, 43, 42, 41, 40, 39, 38, 37, 36},
      {5001, 21, 24, 21, 30, 17, 50, 51, 52, 53, 54, 55, 56, 59}};
  std::vector<GatherWorkItem> work(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) work[i].ids = &ids[i];

  // (a) Fault-free: every row is the store's vector, zero-padded to dim =
  // the widest delivered row.
  GraphCluster control(FaultyConfig(FaultConfig{}));
  PopulateFanout(&control);
  PopulateFeatures(&control);
  std::set<std::size_t> shards_hit;
  std::set<std::size_t> wide_rows_on;
  for (const std::vector<VertexId>& item : ids) {
    for (VertexId v : item) {
      shards_hit.insert(control.partitioner().ShardOf(v));
      if (v <= 60 && v % 3 == 0) {
        wide_rows_on.insert(control.partitioner().ShardOf(v));
      }
    }
  }
  ASSERT_EQ(shards_hit.size(), control.num_shards());
  ASSERT_EQ(wide_rows_on.size(), control.num_shards());

  const MultiGatherReport want = control.GatherMany(work);
  ASSERT_EQ(want.dim, 3u);
  ASSERT_EQ(want.reports.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const GatherReport& r = want.reports[i];
    ASSERT_EQ(r.features.size(), ids[i].size() * want.dim);
    EXPECT_EQ(r.row_status,
              std::vector<SeedStatus>(ids[i].size(), SeedStatus::kOk));
    EXPECT_EQ(r.degraded_rows, 0u);
    for (std::size_t k = 0; k < ids[i].size(); ++k) {
      const VertexId v = ids[i][k];
      const std::vector<float>* stored =
          control.shard(control.partitioner().ShardOf(v))
              .store()
              .attributes()
              .GetFeatures(v);
      std::vector<float> padded(want.dim, 0.0f);
      if (stored != nullptr) {
        std::copy(stored->begin(), stored->end(), padded.begin());
      }
      EXPECT_EQ(std::vector<float>(
                    r.features.begin() +
                        static_cast<std::ptrdiff_t>(k * want.dim),
                    r.features.begin() +
                        static_cast<std::ptrdiff_t>((k + 1) * want.dim)),
                padded)
          << "item " << i << " id " << v;
    }
  }

  // (b) Lost requests and damaged replies within the retry budget.
  FaultConfig fault;
  fault.failure_prob = 0.2;
  fault.corrupt_prob = 0.3;
  ClusterConfig faulty_cfg = FaultyConfig(fault);
  faulty_cfg.retry.max_attempts = 32;
  GraphCluster faulty(faulty_cfg);
  PopulateFanout(&faulty);
  PopulateFeatures(&faulty);
  for (int round = 0; round < 6; ++round) {
    ExpectSameGather(faulty.GatherMany(work), want,
                     "faulty round " + std::to_string(round));
  }
  EXPECT_GT(faulty.stats().corrupt_responses, 0u);

  // (c) One shard crashed, no replicas: exactly its ids come back as zero
  // rows flagged kDegraded; every other row is (a)'s.
  GraphCluster crashed(FaultyConfig(FaultConfig{}));
  PopulateFanout(&crashed);
  PopulateFeatures(&crashed);
  constexpr std::size_t kVictim = 1;
  crashed.CrashShard(kVictim);
  const MultiGatherReport got = crashed.GatherMany(work);
  EXPECT_EQ(got.dim, want.dim);
  ASSERT_EQ(got.reports.size(), ids.size());
  std::size_t degraded_total = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const GatherReport& r = got.reports[i];
    ASSERT_EQ(r.features.size(), ids[i].size() * want.dim);
    std::uint64_t degraded = 0;
    for (std::size_t k = 0; k < ids[i].size(); ++k) {
      const auto row = [&](const GatherReport& rep) {
        return std::vector<float>(
            rep.features.begin() + static_cast<std::ptrdiff_t>(k * want.dim),
            rep.features.begin() +
                static_cast<std::ptrdiff_t>((k + 1) * want.dim));
      };
      const VertexId v = ids[i][k];
      if (crashed.partitioner().ShardOf(v) == kVictim) {
        ++degraded;
        EXPECT_EQ(r.row_status[k], SeedStatus::kDegraded) << "id " << v;
        EXPECT_EQ(row(r), std::vector<float>(want.dim, 0.0f)) << "id " << v;
      } else {
        EXPECT_EQ(r.row_status[k], SeedStatus::kOk) << "id " << v;
        EXPECT_EQ(row(r), row(want.reports[i])) << "id " << v;
      }
    }
    EXPECT_EQ(r.degraded_rows, degraded) << "item " << i;
    degraded_total += degraded;
  }
  EXPECT_GT(degraded_total, 0u);
}

// --- RemoteSubgraphSampler resilience --------------------------------------

TEST(RemoteSamplerFaultTest, RetryDeterminismAcrossFaultConfigs) {
  // Satellite (d): a fixed seed yields the identical subgraph with faults
  // off and with faults + retries on.
  GraphCluster control(FaultyConfig(FaultConfig{}));
  GraphCluster faulty(FaultyConfig(NoisyConfig()));
  // Two-hop chain structure: s -> s*10+k -> (s*10+k)*10+k.
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 30; ++s) {
    for (VertexId k = 0; k < 4; ++k) {
      const VertexId mid = s * 10 + k;
      batch.push_back({UpdateKind::kInsert, Edge{s, mid, 1.0, 0}});
      batch.push_back({UpdateKind::kInsert, Edge{mid, mid * 10 + k, 1.0, 0}});
    }
  }
  ASSERT_TRUE(control.ApplyBatch(batch).ok());
  ASSERT_TRUE(faulty.ApplyBatch(batch).ok());

  RemoteSubgraphSampler a(&control);
  RemoteSubgraphSampler b(&faulty);
  const std::vector<SubgraphSampler::Hop> hops = {{.fanout = 3},
                                                  {.fanout = 2}};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const RemoteSampleReport want =
        a.SampleWithReport({1, 7, 13, 28}, hops, seed);
    const RemoteSampleReport got =
        b.SampleWithReport({1, 7, 13, 28}, hops, seed);
    ASSERT_EQ(got.subgraph.layers, want.subgraph.layers) << "seed " << seed;
    ASSERT_EQ(got.subgraph.parents, want.subgraph.parents) << "seed " << seed;
    ASSERT_TRUE(got.complete());
    ASSERT_TRUE(want.complete());
  }
  EXPECT_GT(faulty.stats().retries, 0u);
  EXPECT_GT(faulty.stats().transient_faults, 0u);
}

TEST(RemoteSamplerFaultTest, UnreachableShardStopsExpansionGracefully) {
  GraphCluster cluster(FaultyConfig(FaultConfig{}));
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 50; ++s) {
    for (VertexId k = 0; k < 3; ++k) {
      batch.push_back({UpdateKind::kInsert, Edge{s, s * 10 + k, 1.0, 0}});
    }
  }
  ASSERT_TRUE(cluster.ApplyBatch(batch).ok());
  cluster.CrashShard(cluster.partitioner().ShardOf(1));

  RemoteSubgraphSampler sampler(&cluster);
  const RemoteSampleReport report = sampler.SampleWithReport(
      {1, 2, 3, 4, 5}, {{.fanout = 2}, {.fanout = 2}}, 3);
  // Seeds always form layer 0 — degradation only prunes expansions.
  ASSERT_EQ(report.subgraph.layers.size(), 3u);
  EXPECT_EQ(report.subgraph.layers[0],
            (std::vector<VertexId>{1, 2, 3, 4, 5}));
  EXPECT_FALSE(report.complete());
  EXPECT_GT(report.degraded_total, 0u);
  ASSERT_EQ(report.degraded_frontier.size(), 2u);
  EXPECT_GT(report.degraded_frontier[0], 0u);
}

// --- Checkpoint + WAL recovery ---------------------------------------------

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pd2g_recovery_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(RecoveryTest, CheckpointTruncatesCoveredWalPrefix) {
  GraphShard shard;
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 50; ++s) {
    batch.push_back({UpdateKind::kInsert, Edge{s, s + 1, 1.0, 0}});
  }
  shard.ApplyBatch(batch);
  EXPECT_EQ(shard.wal().size(), 50u);
  ASSERT_TRUE(shard.Checkpoint((dir_ / "s.ckpt").string()).ok());
  EXPECT_TRUE(shard.wal().empty()) << "checkpoint covers the whole log";
  EXPECT_EQ(shard.checkpoint_seq(), 50u);
  shard.ApplyBatch(
      std::vector<EdgeUpdate>{{UpdateKind::kInsert, Edge{99, 100, 1.0, 0}}});
  EXPECT_EQ(shard.wal().size(), 1u) << "only the post-checkpoint suffix";
  EXPECT_EQ(shard.wal_seq(), 51u);
}

TEST_F(RecoveryTest, CheckpointRefusedWhileCrashed) {
  GraphShard shard;
  shard.ApplyBatch(
      std::vector<EdgeUpdate>{{UpdateKind::kInsert, Edge{1, 2, 1.0, 0}}});
  shard.Crash();
  const Status s = shard.Checkpoint((dir_ / "s.ckpt").string());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
}

TEST_F(RecoveryTest, RecoveryWithoutCheckpointReplaysFullWal) {
  GraphShard shard;
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 30; ++s) {
    batch.push_back({UpdateKind::kInsert, Edge{s, s + 1, 2.0, 0}});
  }
  shard.ApplyBatch(batch);
  shard.Crash();
  EXPECT_EQ(shard.store().NumEdges(), 0u) << "volatile store wiped";
  std::size_t replayed = 0;
  ASSERT_TRUE(shard.Recover(&replayed).ok());
  EXPECT_EQ(replayed, 30u);
  EXPECT_FALSE(shard.crashed());
  EXPECT_EQ(shard.store().NumEdges(), 30u);
  EXPECT_NEAR(*shard.store().EdgeWeight(7, 8), 2.0, 1e-12);
}

TEST_F(RecoveryTest, KillAndRecoverMatchesNeverCrashedControl) {
  // The acceptance test: a cluster that checkpoints, crashes a shard
  // mid-update-stream, keeps taking writes (WAL handoff) and recovers
  // must end up EXACTLY where a never-crashed control cluster is.
  ClusterConfig cfg;
  cfg.num_shards = 4;
  GraphCluster control(cfg);
  GraphCluster victim(cfg);

  auto apply_both = [&](const std::vector<EdgeUpdate>& batch) {
    ASSERT_TRUE(control.ApplyBatch(batch).ok());
    ASSERT_TRUE(victim.ApplyBatch(batch).ok());
  };

  // Phase 1: base graph, then checkpoint the victim.
  std::vector<EdgeUpdate> phase1;
  for (VertexId s = 1; s <= 200; ++s) {
    phase1.push_back({UpdateKind::kInsert, Edge{s, s + 1000, 1.0, 0}});
    phase1.push_back({UpdateKind::kInsert, Edge{s, s + 2000, 2.0, 0}});
  }
  apply_both(phase1);
  ASSERT_TRUE(victim.CheckpointAll(dir_.string()).ok());

  // Phase 2: post-checkpoint mutations of every kind (these live only in
  // the WALs).
  std::vector<EdgeUpdate> phase2;
  for (VertexId s = 1; s <= 100; ++s) {
    phase2.push_back({UpdateKind::kInsert, Edge{s, s + 3000, 3.0, 0}});
    phase2.push_back({UpdateKind::kInPlaceUpdate, Edge{s, s + 1000, 9.0, 0}});
  }
  for (VertexId s = 101; s <= 150; ++s) {
    phase2.push_back({UpdateKind::kDelete, Edge{s, s + 2000, 0.0, 0}});
  }
  apply_both(phase2);

  // Crash a shard, then keep the update stream flowing: the victim's
  // updates for the dead shard go to its WAL via hinted handoff.
  const std::size_t dead = victim.partitioner().ShardOf(1);
  victim.CrashShard(dead);
  std::vector<EdgeUpdate> phase3;
  for (VertexId s = 1; s <= 200; ++s) {
    phase3.push_back({UpdateKind::kInsert, Edge{s, s + 4000, 4.0, 0}});
  }
  apply_both(phase3);
  EXPECT_GT(victim.stats().wal_handoffs, 0u);
  EXPECT_EQ(victim.stats().lost_updates, 0u);

  // While down, sampling degrades instead of failing.
  const SampleReport down =
      victim.SampleNeighborsChecked({1, 2, 3, 4}, 3, true, 5);
  EXPECT_GT(down.degraded_seeds, 0u);

  // Recover: checkpoint + WAL replay rebuild the exact state.
  ASSERT_TRUE(victim.RecoverShard(dead).ok());
  EXPECT_EQ(victim.stats().recoveries, 1u);
  EXPECT_GT(victim.stats().replayed_updates, 0u);
  EXPECT_EQ(victim.fault_injector().NumCrashed(), 0u);

  ASSERT_EQ(victim.NumEdges(), control.NumEdges());
  for (VertexId s = 1; s <= 200; ++s) {
    ASSERT_EQ(victim.Degree(s), control.Degree(s)) << "vertex " << s;
  }
  // Weight-sensitive check: the in-place updates survived recovery...
  const std::size_t owner1 = victim.partitioner().ShardOf(1);
  EXPECT_NEAR(*victim.shard(owner1).store().EdgeWeight(1, 1001), 9.0, 1e-12);
  // ...and sampling (weighted, so weight-state-sensitive) is bit-identical.
  std::vector<VertexId> seeds;
  for (VertexId s = 1; s <= 200; ++s) seeds.push_back(s);
  for (std::uint64_t round = 0; round < 5; ++round) {
    const SampleReport want =
        control.SampleNeighborsChecked(seeds, 4, true, round);
    const SampleReport got =
        victim.SampleNeighborsChecked(seeds, 4, true, round);
    ASSERT_EQ(got.batch.offsets, want.batch.offsets) << "round " << round;
    ASSERT_EQ(got.batch.neighbors, want.batch.neighbors) << "round " << round;
    ASSERT_TRUE(got.complete());
  }
}

TEST_F(RecoveryTest, SingleUpdateApplyUsesWalHandoffWhileDown) {
  ClusterConfig cfg;
  cfg.num_shards = 2;
  GraphCluster cluster(cfg);
  const std::size_t dead = cluster.partitioner().ShardOf(42);
  cluster.CrashShard(dead);
  // Apply() to a crashed shard is still OK: durably logged, not lost.
  ASSERT_TRUE(cluster.Apply({UpdateKind::kInsert, Edge{42, 43, 1.0, 0}}).ok());
  EXPECT_EQ(cluster.stats().wal_handoffs, 1u);
  EXPECT_EQ(cluster.stats().lost_updates, 0u);
  EXPECT_EQ(cluster.Degree(42), 0u) << "not applied while down";
  ASSERT_TRUE(cluster.RecoverShard(dead).ok());
  EXPECT_EQ(cluster.Degree(42), 1u) << "replayed on recovery";
}

}  // namespace
}  // namespace platod2gl
