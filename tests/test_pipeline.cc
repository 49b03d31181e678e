// Streaming-pipeline tests: backpressure policy matrix, coalescing
// correctness (the folded batch must be state-equivalent to the raw
// stream for ANY prior store state), end-to-end determinism (the live
// store after the pipeline is bit-identical to a sequential
// TemporalEdgeLog replay), and a TSan-targeted producers-vs-trainer
// stress run proving epoch snapshot consistency.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "gnn/model.h"
#include "gnn/trainer.h"
#include "pipeline/continuous_trainer.h"
#include "pipeline/epoch_coordinator.h"
#include "pipeline/micro_batcher.h"
#include "pipeline/update_ingestor.h"
#include "storage/graph_store.h"
#include "temporal/edge_log.h"

namespace platod2gl {
namespace {

// ---------------------------------------------------------------------------
// Helpers

/// Every live edge as (type, src, dst, weight), canonically sorted.
/// Weights are compared bit-for-bit (same op sequence -> same doubles).
using CanonEdge = std::tuple<EdgeType, VertexId, VertexId, double>;

std::vector<CanonEdge> CanonicalEdges(const GraphStore& g) {
  std::vector<CanonEdge> out;
  for (std::size_t rel = 0; rel < g.num_relations(); ++rel) {
    const EdgeType type = static_cast<EdgeType>(rel);
    std::vector<VertexId> sources;
    g.topology(type).ForEachSource(
        [&](VertexId src, const Samtree&) { sources.push_back(src); });
    for (VertexId src : sources) {
      for (const auto& [dst, w] : g.topology(type).Neighbors(src)) {
        out.emplace_back(type, src, dst, w);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A deterministic mixed update trace with monotone event time: inserts,
/// weight updates and deletes over a small vertex universe (so the same
/// edge is hit repeatedly — the coalescer's workload).
std::vector<TimedUpdate> MakeTrace(std::size_t n, std::uint64_t seed,
                                   std::size_t universe = 64,
                                   std::size_t num_relations = 1) {
  Xoshiro256 rng(seed);
  std::vector<TimedUpdate> trace;
  trace.reserve(n);
  std::uint64_t ts = 1;
  for (std::size_t i = 0; i < n; ++i) {
    ts += rng.NextUint64(3);  // non-decreasing, with repeats
    EdgeUpdate u;
    const std::uint64_t roll = rng.NextUint64(10);
    u.kind = roll < 5   ? UpdateKind::kInsert
             : roll < 8 ? UpdateKind::kInPlaceUpdate
                        : UpdateKind::kDelete;
    u.edge.src = rng.NextUint64(universe);
    u.edge.dst = rng.NextUint64(universe);
    u.edge.weight = 1.0 + static_cast<double>(rng.NextUint64(1000));
    u.edge.type = static_cast<EdgeType>(rng.NextUint64(num_relations));
    trace.push_back(TimedUpdate{ts, u});
  }
  return trace;
}

/// The full pipeline wired around one graph store.
struct Pipeline {
  explicit Pipeline(IngestorConfig icfg = {}, MicroBatcherConfig bcfg = {},
                    GraphStoreConfig gcfg = {}, std::size_t threads = 4)
      : graph(gcfg),
        pool(threads),
        ingestor(icfg),
        batcher(&graph, &pool, &ingestor, &epochs, &log, bcfg) {}

  GraphStore graph;
  ThreadPool pool;
  UpdateIngestor ingestor;
  EpochCoordinator epochs;
  TemporalEdgeLog log;
  MicroBatcher batcher;
};

// ---------------------------------------------------------------------------
// Backpressure policy matrix

TEST(IngestorBackpressure, RejectPolicyFailsFastWhenFull) {
  UpdateIngestor ing(IngestorConfig{.num_shards = 1,
                                    .shard_capacity = 3,
                                    .policy = BackpressurePolicy::kReject});
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(ing.OfferInsert(i, {1, i, 1.0, 0}).ok());
  }
  const Status full = ing.OfferInsert(3, {1, 99, 1.0, 0});
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ing.Stats().rejected, 1u);
  EXPECT_EQ(ing.QueueDepth(), 3u);

  // Draining makes room again.
  std::vector<IngestedUpdate> out;
  EXPECT_EQ(ing.DrainAll(&out), 3u);
  EXPECT_TRUE(ing.OfferInsert(4, {1, 100, 1.0, 0}).ok());
}

TEST(IngestorBackpressure, DropOldestEvictsAndCounts) {
  UpdateIngestor ing(
      IngestorConfig{.num_shards = 1,
                     .shard_capacity = 3,
                     .policy = BackpressurePolicy::kDropOldest});
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(ing.OfferInsert(i, {1, i, 1.0, 0}).ok());
  }
  EXPECT_EQ(ing.Stats().dropped, 2u);
  EXPECT_EQ(ing.Stats().accepted, 5u);

  std::vector<IngestedUpdate> out;
  EXPECT_EQ(ing.DrainAll(&out), 3u);
  // The oldest two (dst 0, 1) were evicted; 2, 3, 4 survive in order.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].update.update.edge.dst, 2u);
  EXPECT_EQ(out[1].update.update.edge.dst, 3u);
  EXPECT_EQ(out[2].update.update.edge.dst, 4u);
}

TEST(IngestorBackpressure, BlockPolicyWaitsForDrain) {
  UpdateIngestor ing(IngestorConfig{.num_shards = 1,
                                    .shard_capacity = 2,
                                    .policy = BackpressurePolicy::kBlock});
  ASSERT_TRUE(ing.OfferInsert(1, {1, 1, 1.0, 0}).ok());
  ASSERT_TRUE(ing.OfferInsert(2, {1, 2, 1.0, 0}).ok());

  std::atomic<bool> offered{false};
  std::thread producer([&] {
    const Status s = ing.OfferInsert(3, {1, 3, 1.0, 0});  // blocks: full
    EXPECT_TRUE(s.ok());
    offered.store(true);
  });
  // The producer cannot complete until the consumer drains.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(offered.load());

  std::vector<IngestedUpdate> out;
  ing.DrainAll(&out);
  producer.join();
  EXPECT_TRUE(offered.load());
  out.clear();
  EXPECT_EQ(ing.DrainAll(&out), 1u);
  EXPECT_EQ(out[0].update.update.edge.dst, 3u);
}

TEST(IngestorBackpressure, CloseUnblocksProducersWithUnavailable) {
  UpdateIngestor ing(IngestorConfig{.num_shards = 1,
                                    .shard_capacity = 1,
                                    .policy = BackpressurePolicy::kBlock});
  ASSERT_TRUE(ing.OfferInsert(1, {1, 1, 1.0, 0}).ok());
  std::thread producer([&] {
    const Status s = ing.OfferInsert(2, {1, 2, 1.0, 0});
    EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ing.Close();
  producer.join();
  // Closed ingestor refuses new offers but still drains what it holds.
  EXPECT_EQ(ing.OfferInsert(3, {1, 3, 1.0, 0}).code(),
            StatusCode::kUnavailable);
  std::vector<IngestedUpdate> out;
  EXPECT_EQ(ing.DrainAll(&out), 1u);
}

TEST(IngestorTest, WatermarkTracksNewestAcceptedTimestamp) {
  UpdateIngestor ing;
  EXPECT_EQ(ing.watermark(), 0u);
  ASSERT_TRUE(ing.OfferInsert(10, {1, 2, 1.0, 0}).ok());
  ASSERT_TRUE(ing.OfferInsert(7, {3, 4, 1.0, 0}).ok());  // older: no move
  EXPECT_EQ(ing.watermark(), 10u);
  ASSERT_TRUE(ing.OfferInsert(25, {5, 6, 1.0, 0}).ok());
  EXPECT_EQ(ing.watermark(), 25u);
}

TEST(IngestorTest, InvalidRelationRefusedAtTheDoor) {
  UpdateIngestor ing(IngestorConfig{.num_relations = 2});
  EXPECT_TRUE(ing.OfferInsert(1, {1, 2, 1.0, 1}).ok());
  EXPECT_EQ(ing.OfferInsert(2, {1, 2, 1.0, 2}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ing.Stats().invalid, 1u);
}

TEST(IngestorTest, DefaultConfigRefusesATypeTheDefaultStoreLacks) {
  // A default ingestor checks types against one relation, as a default
  // GraphStore holds: type 5 is refused at the door, not accepted and
  // then dropped by the micro-batcher.
  UpdateIngestor ing;
  EXPECT_EQ(ing.OfferInsert(1, {1, 2, 1.0, 5}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ing.OfferInsert(2, {1, 2, 1.0, 0}).ok());
  const IngestorStats st = ing.Stats();
  EXPECT_EQ(st.invalid, 1u);
  EXPECT_EQ(st.accepted, 1u);
  EXPECT_EQ(ing.QueueDepth(), 1u);
}

TEST(IngestorTest, BadWeightRefusedAtTheDoor) {
  UpdateIngestor ing;
  const Weight nan = std::numeric_limits<Weight>::quiet_NaN();
  for (const Weight w : {nan, std::numeric_limits<Weight>::infinity(), -5.0}) {
    EXPECT_EQ(ing.OfferInsert(1, {1, 2, w, 0}).code(),
              StatusCode::kInvalidArgument)
        << w;
    EXPECT_EQ(
        ing.Offer({1, {UpdateKind::kInPlaceUpdate, Edge{1, 2, w, 0}}}).code(),
        StatusCode::kInvalidArgument)
        << w;
  }
  // A delete never reads its weight.
  EXPECT_TRUE(ing.Offer({2, {UpdateKind::kDelete, Edge{1, 2, nan, 0}}}).ok());
  EXPECT_EQ(ing.Stats().invalid, 6u);
  EXPECT_EQ(ing.QueueDepth(), 1u);
}

TEST(IngestorTest, InvalidVertexRefusedAtTheDoor) {
  UpdateIngestor ing;
  EXPECT_EQ(ing.OfferInsert(1, {kInvalidVertex, 2, 1.0, 0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ing.OfferInsert(1, {1, kInvalidVertex, 1.0, 0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ing.Stats().invalid, 2u);
  EXPECT_EQ(ing.QueueDepth(), 0u);
}

// ---------------------------------------------------------------------------
// Coalescing

EdgeUpdate Op(UpdateKind kind, VertexId src, VertexId dst, Weight w) {
  return EdgeUpdate{kind, Edge{src, dst, w, 0}};
}

TEST(CoalesceTest, FoldRules) {
  using K = UpdateKind;
  // (insert w1, update w2) -> insert w2: the edge exists after the pair
  // with weight w2, whatever the prior state was.
  {
    std::vector<EdgeUpdate> b{Op(K::kInsert, 1, 2, 1.0),
                              Op(K::kInPlaceUpdate, 1, 2, 5.0)};
    EXPECT_EQ(MicroBatcher::Coalesce(&b), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].kind, K::kInsert);
    EXPECT_EQ(b[0].edge.weight, 5.0);
  }
  // (insert, delete) -> delete; (delete, insert w) -> insert w.
  {
    std::vector<EdgeUpdate> b{Op(K::kInsert, 1, 2, 1.0),
                              Op(K::kDelete, 1, 2, 0.0)};
    MicroBatcher::Coalesce(&b);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].kind, K::kDelete);
  }
  {
    std::vector<EdgeUpdate> b{Op(K::kDelete, 1, 2, 0.0),
                              Op(K::kInsert, 1, 2, 7.0)};
    MicroBatcher::Coalesce(&b);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].kind, K::kInsert);
    EXPECT_EQ(b[0].edge.weight, 7.0);
  }
  // (delete, update) -> delete: the update hit a non-existent edge.
  {
    std::vector<EdgeUpdate> b{Op(K::kDelete, 1, 2, 0.0),
                              Op(K::kInPlaceUpdate, 1, 2, 9.0)};
    MicroBatcher::Coalesce(&b);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].kind, K::kDelete);
  }
  // Different edges never fold; first-occurrence order is kept.
  {
    std::vector<EdgeUpdate> b{Op(K::kInsert, 1, 2, 1.0),
                              Op(K::kInsert, 3, 4, 1.0),
                              Op(K::kInsert, 1, 2, 2.0)};
    EXPECT_EQ(MicroBatcher::Coalesce(&b), 1u);
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b[0].edge.src, 1u);
    EXPECT_EQ(b[0].edge.weight, 2.0);
    EXPECT_EQ(b[1].edge.src, 3u);
  }
}

TEST(CoalesceTest, StateEquivalentForAnyPriorState) {
  // Property check: for random op runs over a tiny universe, applying
  // the folded batch leaves every store (empty or pre-populated) in
  // exactly the state the raw run produces.
  Xoshiro256 rng(99);
  for (int round = 0; round < 200; ++round) {
    std::vector<EdgeUpdate> raw;
    const std::size_t len = 1 + rng.NextUint64(12);
    for (std::size_t i = 0; i < len; ++i) {
      raw.push_back(Op(static_cast<UpdateKind>(rng.NextUint64(3)),
                       rng.NextUint64(3), rng.NextUint64(3),
                       1.0 + static_cast<double>(rng.NextUint64(50))));
    }
    std::vector<EdgeUpdate> folded = raw;
    MicroBatcher::Coalesce(&folded);

    for (int prior = 0; prior < 2; ++prior) {
      GraphStore a, b;
      if (prior == 1) {  // pre-populate every possible edge
        for (VertexId s = 0; s < 3; ++s) {
          for (VertexId d = 0; d < 3; ++d) a.AddEdge({s, d, 0.5, 0});
        }
        for (VertexId s = 0; s < 3; ++s) {
          for (VertexId d = 0; d < 3; ++d) b.AddEdge({s, d, 0.5, 0});
        }
      }
      for (const EdgeUpdate& u : raw) a.Apply(u);  // the sequential oracle
      b.ApplyBatch(folded);
      ASSERT_EQ(CanonicalEdges(a), CanonicalEdges(b))
          << "round " << round << " prior " << prior;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism: pipeline == sequential replay

TEST(PipelineDeterminism, StoreMatchesSequentialReplayOfItsLog) {
  const std::vector<TimedUpdate> trace = MakeTrace(20000, 42);
  for (const std::size_t max_batch : {64u, 1024u, 100000u}) {
    Pipeline p(IngestorConfig{.num_shards = 4, .shard_capacity = 1 << 16},
               MicroBatcherConfig{.max_batch = max_batch});
    for (const TimedUpdate& u : trace) ASSERT_TRUE(p.ingestor.Offer(u).ok());
    p.ingestor.Close();
    p.batcher.Flush();

    // Durability: the WAL holds the raw trace, bit for bit.
    ASSERT_EQ(p.log.size(), trace.size());
    EXPECT_EQ(p.log.rejected(), 0u);
    EXPECT_EQ(p.log.MaxTimestamp(), trace.back().timestamp);

    // Determinism: a fresh store rolled forward by sequential replay is
    // identical to the live store the pipeline maintained with
    // micro-batching + coalescing + parallel batch application.
    GraphStore control;
    p.log.SnapshotInto(&control, p.log.MaxTimestamp());
    EXPECT_EQ(CanonicalEdges(p.graph), CanonicalEdges(control))
        << "max_batch " << max_batch;

    // Observability: everything drained, watermarks converged.
    const MicroBatcherStats bs = p.batcher.Stats();
    EXPECT_EQ(bs.updates_ingested, trace.size());
    EXPECT_EQ(bs.applied_watermark, trace.back().timestamp);
    EXPECT_EQ(bs.pending, 0u);
    EXPECT_GT(bs.coalesced, 0u);  // a 64-vertex universe must collide
    EXPECT_EQ(p.epochs.epoch(), bs.batches_applied);
  }
}

TEST(PipelineDeterminism, MultiRelationRouting) {
  const std::vector<TimedUpdate> trace = MakeTrace(6000, 3, 48, 3);
  GraphStoreConfig gcfg;
  gcfg.num_relations = 3;
  Pipeline p(IngestorConfig{.num_relations = 3}, MicroBatcherConfig{}, gcfg);
  for (const TimedUpdate& u : trace) ASSERT_TRUE(p.ingestor.Offer(u).ok());
  p.batcher.Flush();

  GraphStore control(gcfg);
  p.log.SnapshotInto(&control, p.log.MaxTimestamp());
  EXPECT_EQ(CanonicalEdges(p.graph), CanonicalEdges(control));
}

TEST(PipelineTest, DropOldestStoreStillMatchesItsOwnLog) {
  // Under drop-oldest pressure some updates are shed, but the invariant
  // "live store == sequential replay of the WAL" must survive: what was
  // logged is exactly what was applied.
  const std::vector<TimedUpdate> trace = MakeTrace(5000, 11);
  Pipeline p(IngestorConfig{.num_shards = 2,
                            .shard_capacity = 64,
                            .policy = BackpressurePolicy::kDropOldest},
             MicroBatcherConfig{.max_batch = 256});
  std::size_t offered = 0;
  for (const TimedUpdate& u : trace) {
    ASSERT_TRUE(p.ingestor.Offer(u).ok());
    // Pump only occasionally so queues overflow and drop.
    if (++offered % 1500 == 0) p.batcher.PumpOnce(/*force=*/true);
  }
  p.batcher.Flush();
  EXPECT_GT(p.ingestor.Stats().dropped, 0u);
  EXPECT_LT(p.log.size(), trace.size());

  GraphStore control;
  p.log.SnapshotInto(&control, p.log.MaxTimestamp());
  EXPECT_EQ(CanonicalEdges(p.graph), CanonicalEdges(control));
}

TEST(PipelineTest, MinBatchAccumulatesUntilThreshold) {
  Pipeline p(IngestorConfig{},
             MicroBatcherConfig{.max_batch = 1024, .min_batch = 100});
  for (std::uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(p.ingestor.OfferInsert(i, {i, i + 1, 1.0, 0}).ok());
  }
  EXPECT_EQ(p.batcher.PumpOnce(), 0u);  // below min_batch: accumulate
  EXPECT_EQ(p.batcher.Stats().pending, 50u);
  for (std::uint64_t i = 50; i < 120; ++i) {
    ASSERT_TRUE(p.ingestor.OfferInsert(i, {i, i + 1, 1.0, 0}).ok());
  }
  EXPECT_EQ(p.batcher.PumpOnce(), 120u);  // threshold crossed: apply all
  EXPECT_EQ(p.graph.NumEdges(), 120u);
  // Force overrides the threshold.
  ASSERT_TRUE(p.ingestor.OfferInsert(120, {7, 500, 1.0, 0}).ok());
  EXPECT_EQ(p.batcher.PumpOnce(/*force=*/true), 1u);
  EXPECT_EQ(p.graph.NumEdges(), 121u);
}

// ---------------------------------------------------------------------------
// Continuous training

/// A small community graph with features/labels, the trainer's fixture.
void SeedCommunityGraph(GraphStore* g, std::size_t vertices,
                        std::vector<VertexId>* seeds) {
  Xoshiro256 rng(5);
  const std::size_t dim = 8;
  for (VertexId v = 0; v < vertices; ++v) {
    const std::size_t comm = v % 4;
    for (int k = 0; k < 6; ++k) {
      const VertexId u = rng.NextUint64(vertices);
      if (u != v) g->AddEdge({v, u, 1.0, 0});
    }
    std::vector<float> f(dim);
    for (auto& x : f) x = static_cast<float>(rng.NextDouble() - 0.5);
    f[comm] += 1.5f;
    g->attributes().SetFeatures(v, std::move(f));
    g->attributes().SetLabel(v, static_cast<std::int64_t>(comm));
    seeds->push_back(v);
  }
}

TEST(ContinuousTrainerTest, TrainsWhileIngesting) {
  Pipeline p(IngestorConfig{}, MicroBatcherConfig{.max_batch = 256});
  std::vector<VertexId> seeds;
  SeedCommunityGraph(&p.graph, 200, &seeds);

  GraphSageModel model(
      GraphSageConfig{.in_dim = 8, .hidden_dim = 16, .num_classes = 4},
      /*seed=*/3);
  Trainer trainer(&p.graph, &model,
                  TrainerConfig{.batch_size = 32, .fanout_hop1 = 5,
                                .fanout_hop2 = 5});
  ContinuousTrainer driver(&p.ingestor, &p.batcher, &p.epochs, &trainer);

  Xoshiro256 rng(17);
  std::uint64_t ts = 0;
  for (int step = 0; step < 8; ++step) {
    // Producer-side traffic between steps.
    for (int k = 0; k < 40; ++k) {
      const VertexId v = rng.NextUint64(200);
      const VertexId u = rng.NextUint64(200);
      ASSERT_TRUE(p.ingestor.OfferInsert(++ts, {v, u, 1.0, 0}).ok());
    }
    const ContinuousTrainer::StepReport r = driver.Step(rng);
    EXPECT_EQ(r.step, static_cast<std::size_t>(step + 1));
    EXPECT_TRUE(std::isfinite(r.loss));
    EXPECT_EQ(r.staleness, 0u);  // each step pumps everything queued
    EXPECT_EQ(r.epoch, p.epochs.epoch());
  }

  const PipelineStats stats = driver.Stats();
  EXPECT_EQ(stats.batcher.updates_ingested, stats.ingest.accepted);
  EXPECT_EQ(stats.staleness, 0u);
  EXPECT_GE(stats.epoch, 1u);

  // The live store equals seed + replay of its own WAL even after training
  // interleaved with ingestion throughout. The seed graph predates the
  // pipeline, so it is re-seeded rather than replayed.
  GraphStore control;
  std::vector<VertexId> control_seeds;
  SeedCommunityGraph(&control, 200, &control_seeds);
  p.log.SnapshotInto(&control, p.log.MaxTimestamp());
  EXPECT_EQ(CanonicalEdges(p.graph), CanonicalEdges(control));
}

TEST(ContinuousTrainerTest, StalenessReportsIngestLag) {
  Pipeline p(IngestorConfig{}, MicroBatcherConfig{});
  std::vector<VertexId> seeds;
  SeedCommunityGraph(&p.graph, 100, &seeds);
  ASSERT_TRUE(p.ingestor.OfferInsert(1000, {1, 2, 1.0, 0}).ok());
  p.batcher.Flush();

  GraphSageModel model(
      GraphSageConfig{.in_dim = 8, .hidden_dim = 16, .num_classes = 4}, 3);
  Trainer trainer(&p.graph, &model, TrainerConfig{.batch_size = 16});
  ContinuousTrainer driver(&p.ingestor, &p.batcher, &p.epochs, &trainer);

  // New traffic arrives but is NOT pumped: staleness = lag in event time.
  ASSERT_TRUE(p.ingestor.OfferInsert(1500, {2, 3, 1.0, 0}).ok());
  EXPECT_EQ(driver.Staleness(), 500u);
  // A step pumps first, so it trains fresh again.
  Xoshiro256 rng(1);
  const ContinuousTrainer::StepReport r = driver.Step(rng);
  EXPECT_EQ(r.staleness, 0u);
}

// ---------------------------------------------------------------------------
// Producers vs trainer stress (the TSan target, label: concurrency)

TEST(PipelineStress, ProducersVsTrainerEpochSnapshotConsistency) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 3000;
  constexpr std::size_t kVertices = 200;

  Pipeline p(IngestorConfig{.num_shards = 4,
                            .shard_capacity = 256,
                            .policy = BackpressurePolicy::kBlock},
             MicroBatcherConfig{.max_batch = 512});
  std::vector<VertexId> seeds;
  SeedCommunityGraph(&p.graph, kVertices, &seeds);
  const std::size_t base_edges = p.graph.NumEdges();

  GraphSageModel model(
      GraphSageConfig{.in_dim = 8, .hidden_dim = 16, .num_classes = 4}, 3);
  Trainer trainer(&p.graph, &model,
                  TrainerConfig{.batch_size = 32, .fanout_hop1 = 5,
                                .fanout_hop2 = 5});
  ContinuousTrainer driver(&p.ingestor, &p.batcher, &p.epochs, &trainer);

  // Producers: each inserts kPerProducer globally-unique edges (so the
  // final edge count is exact) at a constant event time (trivially
  // monotone, so the WAL accepts every interleaving).
  std::vector<std::thread> producers;
  for (std::size_t pr = 0; pr < kProducers; ++pr) {
    producers.emplace_back([&, pr] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const VertexId src = (pr * kPerProducer + i) % kVertices;
        const VertexId dst = kVertices + pr * kPerProducer + i;
        ASSERT_TRUE(p.ingestor.OfferInsert(1, {src, dst, 1.0, 0}).ok());
      }
    });
  }

  // Concurrent readers: pin an epoch, observe, and verify nothing moved
  // while pinned — the snapshot-consistency contract of the barrier.
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(1000 + r);
      std::vector<VertexId> sampled;
      while (!stop_readers.load(std::memory_order_acquire)) {
        const EpochCoordinator::ReadGuard pin = p.epochs.PinRead();
        const std::size_t edges_at_pin = p.graph.NumEdges();
        sampled.clear();
        p.graph.SampleNeighbors(rng.NextUint64(kVertices), 8,
                                /*weighted=*/true, rng, &sampled);
        // No batch may land while we hold the pin.
        ASSERT_EQ(p.graph.NumEdges(), edges_at_pin);
        ASSERT_EQ(p.epochs.epoch(), pin.epoch());
      }
    });
  }

  // Driver thread: pump + train until the producers are done, then
  // drain the tail.
  Xoshiro256 rng(17);
  for (int step = 0; step < 40; ++step) driver.Step(rng);
  for (auto& t : producers) t.join();
  p.ingestor.Close();
  driver.Drain();
  stop_readers.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Lossless pipeline: every offered edge landed exactly once.
  const std::size_t streamed = kProducers * kPerProducer;
  EXPECT_EQ(p.graph.NumEdges(), base_edges + streamed);
  EXPECT_EQ(p.log.size(), streamed);
  EXPECT_EQ(p.ingestor.Stats().dropped, 0u);
  EXPECT_EQ(p.batcher.Stats().log_rejected, 0u);
  EXPECT_EQ(driver.Stats().staleness, 0u);

  // And the replay invariant holds after the storm.
  GraphStore control;
  SeedCommunityGraph(&control, kVertices, &seeds);
  p.log.SnapshotInto(&control, p.log.MaxTimestamp());
  EXPECT_EQ(CanonicalEdges(p.graph), CanonicalEdges(control));
}

}  // namespace
}  // namespace platod2gl
