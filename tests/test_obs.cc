// MetricRegistry / exporter / profiling tests (DESIGN.md §15,
// docs/observability.md): idempotent registration with normalized labels,
// race-free sorted snapshots, the counter-list expansions as the one shared
// fill loop, cross-registry MergeFrom, the Prometheus/JSON exporters, the
// sampled profiling sites, the end-to-end contract that
// every row of every subsystem counter list reads the same in its Stats()
// struct and its registry series, and a golden merged page that pins the
// export of a fixed workload line for line.
// Labels: obs.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/samtree.h"
#include "dist/cluster.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "pipeline/epoch_coordinator.h"
#include "pipeline/micro_batcher.h"
#include "pipeline/update_ingestor.h"
#include "serve/server.h"
#include "storage/graph_store.h"

namespace platod2gl {
namespace {

using obs::Counter;
using obs::Label;
using obs::Labels;
using obs::MetricKind;
using obs::MetricPoint;
using obs::MetricRegistry;
using obs::RegistrySnapshot;

// ---------------------------------------------------------------------------
// Registration semantics.
// ---------------------------------------------------------------------------

TEST(RegistryTest, RegistrationIsIdempotent) {
  MetricRegistry reg;
  Counter* a = reg.RegisterCounter("pd2gl_test_total");
  Counter* b = reg.RegisterCounter("pd2gl_test_total");
  EXPECT_EQ(a, b) << "same (name, labels) must return the same instance";
  EXPECT_EQ(reg.NumSeries(), 1u);

  Counter* labelled =
      reg.RegisterCounter("pd2gl_test_total", {{"shard", "0"}});
  EXPECT_NE(labelled, a) << "labels discriminate series";
  EXPECT_EQ(reg.NumSeries(), 2u);

  a->Add(3);
  EXPECT_EQ(b->Value(), 3u);
  EXPECT_EQ(labelled->Value(), 0u);
}

TEST(RegistryTest, LabelOrderIsNormalized) {
  MetricRegistry reg;
  Counter* x =
      reg.RegisterCounter("pd2gl_test_x", {{"b", "2"}, {"a", "1"}});
  Counter* y =
      reg.RegisterCounter("pd2gl_test_x", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(x, y);
  EXPECT_EQ(reg.NumSeries(), 1u);

  // Snapshot lookups are order-independent too.
  x->Add(7);
  const RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("pd2gl_test_x", {{"b", "2"}, {"a", "1"}}), 7u);
  EXPECT_EQ(snap.Value("pd2gl_test_x", {{"a", "1"}, {"b", "2"}}), 7u);
}

// ---------------------------------------------------------------------------
// Snapshots: sorted, queryable, race-free copies.
// ---------------------------------------------------------------------------

TEST(RegistryTest, SnapshotIsSortedAndQueryable) {
  MetricRegistry reg;
  reg.RegisterCounter("pd2gl_b_total")->Add(2);
  reg.RegisterCounter("pd2gl_a_total")->Add(1);
  reg.RegisterCounter("pd2gl_a_total", {{"shard", "1"}})->Add(4);

  const RegistrySnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.points.size(), 3u);
  for (std::size_t i = 1; i < snap.points.size(); ++i) {
    EXPECT_LE(snap.points[i - 1].name, snap.points[i].name)
        << "snapshot must sort by name";
  }
  EXPECT_EQ(snap.Value("pd2gl_a_total"), 1u);
  EXPECT_EQ(snap.Value("pd2gl_a_total", {{"shard", "1"}}), 4u);
  EXPECT_EQ(snap.Value("pd2gl_missing"), 0u) << "absent series reads as 0";
  EXPECT_EQ(snap.Find("pd2gl_missing"), nullptr);

  // The snapshot is a copy: later increments don't retro-edit it.
  reg.RegisterCounter("pd2gl_a_total")->Add(100);
  EXPECT_EQ(snap.Value("pd2gl_a_total"), 1u);
  EXPECT_EQ(reg.Snapshot().Value("pd2gl_a_total"), 101u);
}

TEST(RegistryTest, SumAcrossLabelsFoldsPerShardSeries) {
  MetricRegistry reg;
  for (int s = 0; s < 3; ++s) {
    reg.RegisterCounter("pd2gl_shard_work", {{"shard", std::to_string(s)}})
        ->Add(static_cast<std::uint64_t>(s + 1));
  }
  const RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.SumAcrossLabels("pd2gl_shard_work"), 6u);
  EXPECT_EQ(snap.SumAcrossLabels("pd2gl_absent"), 0u);
}

TEST(RegistryTest, ExternalSeriesRideTheSameExportPath) {
  // Borrowed series: the metric objects live in the subsystem (the
  // SampleCache pattern), the registry only exports them.
  Counter hits;
  LatencyHistogram lat;
  MetricRegistry reg;
  reg.RegisterExternalCounter("pd2gl_ext_hits", {}, &hits);
  reg.RegisterExternalHistogram("pd2gl_ext_nanos", {}, &lat);

  hits.Add(5);
  lat.Record(1000);
  lat.Record(2000);

  const RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("pd2gl_ext_hits"), 5u);
  EXPECT_EQ(snap.Hist("pd2gl_ext_nanos").Count(), 2u);
}

TEST(RegistryTest, StatsBindingIsTheOneFillLoop) {
  // The binding between a snapshot struct and its live counters is the
  // counter list itself: the shared expansions give the struct fields and
  // the handles, and two local expansions register and fill, exactly as
  // each subsystem's .cc does.
#define PD2GL_LOCAL_COUNTERS(X) \
  X(reads)                      \
  X(writes)
  struct LocalStats {
    PD2GL_LOCAL_COUNTERS(PD2GL_STATS_FIELD)
  };
  struct {
    PD2GL_LOCAL_COUNTERS(PD2GL_COUNTER_HANDLE)
  } counters;
  MetricRegistry reg;
#define PD2GL_REGISTER(name) \
  counters.name = reg.RegisterCounter("pd2gl_local_" #name);
  PD2GL_LOCAL_COUNTERS(PD2GL_REGISTER)
#undef PD2GL_REGISTER
  counters.reads->Add(11);
  counters.writes->Add(22);
  LocalStats s;
#define PD2GL_FILL(name) s.name = counters.name->Value();
  PD2GL_LOCAL_COUNTERS(PD2GL_FILL)
#undef PD2GL_FILL
#undef PD2GL_LOCAL_COUNTERS
  EXPECT_EQ(s.reads, 11u);
  EXPECT_EQ(s.writes, 22u);
  const RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("pd2gl_local_reads"), s.reads);
  EXPECT_EQ(snap.Value("pd2gl_local_writes"), s.writes);
}

// ---------------------------------------------------------------------------
// MergeFrom: exporting several subsystem registries as one page.
// ---------------------------------------------------------------------------

TEST(RegistryTest, MergeFromSumsMatchesAndAppendsRest) {
  LatencyHistogram ha, hb;
  MetricRegistry a, b;
  a.RegisterCounter("pd2gl_shared_total")->Add(2);
  b.RegisterCounter("pd2gl_shared_total")->Add(3);
  a.RegisterExternalHistogram("pd2gl_shared_nanos", {}, &ha);
  b.RegisterExternalHistogram("pd2gl_shared_nanos", {}, &hb);
  ha.Record(100);
  hb.Record(200);
  b.RegisterCounter("pd2gl_only_b_total")->Add(7);

  RegistrySnapshot merged = a.Snapshot();
  merged.MergeFrom(b.Snapshot());
  EXPECT_EQ(merged.Value("pd2gl_shared_total"), 5u) << "counters sum";
  EXPECT_EQ(merged.Hist("pd2gl_shared_nanos").Count(), 2u)
      << "histogram buckets merge";
  EXPECT_EQ(merged.Value("pd2gl_only_b_total"), 7u) << "unmatched appended";
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

TEST(ExportTest, PrometheusTextRendersFamiliesLabelsAndBuckets) {
  LatencyHistogram lat;
  MetricRegistry reg;
  reg.RegisterCounter("pd2gl_reqs_total", {{"tenant", "3"}})->Add(9);
  reg.RegisterExternalHistogram("pd2gl_lat_nanos", {}, &lat);
  lat.Record(1500);

  const std::string text = obs::ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE pd2gl_reqs_total counter"), std::string::npos)
      << text;
  EXPECT_NE(text.find("pd2gl_reqs_total{tenant=\"3\"} 9"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE pd2gl_lat_nanos histogram"), std::string::npos);
  EXPECT_NE(text.find("pd2gl_lat_nanos_bucket{le=\""), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("pd2gl_lat_nanos_count 1"), std::string::npos);
}

TEST(ExportTest, JsonCarriesEverySeries) {
  LatencyHistogram lat;
  MetricRegistry reg;
  reg.RegisterCounter("pd2gl_reqs_total", {{"tenant", "3"}})->Add(9);
  reg.RegisterExternalHistogram("pd2gl_lat_nanos", {}, &lat);
  lat.Record(1500);

  const std::string json = obs::ToJson(reg.Snapshot());
  EXPECT_NE(json.find("\"pd2gl_reqs_total\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tenant\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":9"), std::string::npos);
  EXPECT_NE(json.find("\"pd2gl_lat_nanos\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Profiling sites: compiled into every build, timing 1 scope in 64.
// ---------------------------------------------------------------------------

TEST(ProfileTest, SitesAreNamedAndSnapshotExports) {
  const RegistrySnapshot before = obs::ProfileSnapshot();
  ASSERT_EQ(before.points.size(),
            static_cast<std::size_t>(obs::ProfileSite::kNumSites));
  for (const MetricPoint& p : before.points) {
    EXPECT_EQ(p.name.rfind("pd2gl_profile_", 0), 0u) << p.name;
    EXPECT_EQ(p.kind, MetricKind::kHistogram);
  }
  for (std::uint8_t s = 0;
       s < static_cast<std::uint8_t>(obs::ProfileSite::kNumSites); ++s) {
    EXPECT_NE(obs::ProfileSiteName(static_cast<obs::ProfileSite>(s)),
              nullptr);
  }

  // kProfileSampleEvery batched descents in a row on one thread pass its
  // sampling tick through 0 once, whatever phase it starts in.
  LatencyHistogram& descent =
      obs::ProfileHistogram(obs::ProfileSite::kSamtreeDescent);
  const std::uint64_t descents_before = descent.Count();
  Samtree tree;
  for (VertexId v = 0; v < 32; ++v) tree.Insert(v, 1.0 + v);
  Xoshiro256 rng(9);
  std::vector<VertexId> draws;
  for (std::uint32_t i = 0; i < obs::kProfileSampleEvery; ++i) {
    tree.SampleWeighted(8, rng, &draws);
  }
  EXPECT_GE(descent.Count(), descents_before + 1);

  // The histograms themselves are always live, so a direct Record shows
  // up in the next snapshot.
  obs::ProfileHistogram(obs::ProfileSite::kSamtreeDescent).Record(500);
  const RegistrySnapshot after = obs::ProfileSnapshot();
  bool saw = false;
  for (const MetricPoint& p : after.points) {
    if (p.hist.Count() > 0) saw = true;
  }
  EXPECT_TRUE(saw);
}

// ---------------------------------------------------------------------------
// Subsystem contract: each Stats() struct mirrors its registry series.
// ---------------------------------------------------------------------------

TEST(SubsystemRegistryTest, ServerStatsMirrorItsRegistry) {
  ClusterConfig ccfg;
  ccfg.num_shards = 2;
  GraphCluster cluster(ccfg);
  for (VertexId v = 0; v < 50; ++v) {
    cluster.Apply({UpdateKind::kInsert, Edge{v, (v + 1) % 50, 1.0, 0}});
  }
  EpochCoordinator epochs;
  serve::ServeConfig cfg;
  cfg.batcher.max_batch = 2;
  serve::GraphServer server(&cluster, &epochs, cfg);

  for (std::uint64_t i = 0; i < 4; ++i) {
    serve::QueryRequest req;
    req.tenant = i % 2;
    req.request_id = i;
    req.rng_seed = 100 + i;
    req.seeds = {i, i + 1};
    req.plan.Sample(2);
    ASSERT_TRUE(server.Submit(req, 0).ok());
  }
  server.Drain(0);

  const serve::ServeStats s = server.Stats();
  const RegistrySnapshot snap = server.metrics().Snapshot();
  EXPECT_EQ(snap.Value("pd2gl_serve_submitted"), s.submitted);
  EXPECT_EQ(snap.Value("pd2gl_serve_completed"), s.completed);
  EXPECT_EQ(snap.Value("pd2gl_serve_batches"), s.batches);
  EXPECT_EQ(snap.Value("pd2gl_serve_rpc_rounds"), s.rpc_rounds);
  // The admission and batcher series live in the SAME registry — one
  // page tells the whole serving story.
  EXPECT_EQ(snap.Value("pd2gl_admission_admitted"), s.admission.admitted);
  EXPECT_EQ(snap.Value("pd2gl_batcher_enqueued"), s.batcher.enqueued);
  EXPECT_EQ(snap.Value("pd2gl_batcher_dispatched"), s.batcher.dispatched);
  // The latency histograms are registered too (global + per-tenant).
  EXPECT_EQ(snap.Hist("pd2gl_serve_latency_nanos").Count(),
            server.latency().Count());
  EXPECT_EQ(
      snap.Hist("pd2gl_serve_tenant_latency_nanos", {{"tenant", "0"}})
          .Count(),
      server.tenant_latency(0)->Count());
}

TEST(SubsystemRegistryTest, ClusterPerShardSeriesAccumulate) {
  ClusterConfig ccfg;
  ccfg.num_shards = 4;
  GraphCluster cluster(ccfg);
  for (VertexId v = 0; v < 100; ++v) {
    for (std::uint64_t k = 1; k <= 4; ++k) {
      cluster.Apply(
          {UpdateKind::kInsert, Edge{v, (v * 3 + k) % 100, 1.0, 0}});
    }
  }
  std::vector<VertexId> seeds(32);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = i * 3;
  cluster.SampleNeighbors(seeds, /*fanout=*/4, /*weighted=*/true,
                          /*rng_seed=*/7);

  const ClusterStats s = cluster.stats();
  const RegistrySnapshot snap = cluster.metrics().Snapshot();
  EXPECT_EQ(snap.Value("pd2gl_cluster_rpcs"), s.rpcs);
  EXPECT_EQ(snap.SumAcrossLabels("pd2gl_shard_sample_seeds"), seeds.size())
      << "per-shard seed counts fold back to the request total";
  // Every shard that received seeds has its own labelled series.
  std::size_t shards_hit = 0;
  for (const MetricPoint& p : snap.points) {
    if (p.name == "pd2gl_shard_sample_seeds" && p.value > 0) ++shards_hit;
  }
  EXPECT_GT(shards_hit, 1u) << "32 seeds over 4 shards hit several shards";
}

TEST(SubsystemRegistryTest, CacheSeriesFollowTheServingStore) {
  // A crash, a recovery and a failover each replace a shard's store and
  // with it the sample cache whose tallies the cluster exports. The series
  // must read the serving store's cache, never the destroyed one.
  ClusterConfig ccfg;
  ccfg.num_shards = 2;
  ccfg.replication.num_replicas = 1;
  ccfg.shard_config.sample_cache.min_degree = 1;
  GraphCluster cluster(ccfg);
  std::vector<VertexId> seeds;
  for (VertexId v = 0; v < 20; ++v) {
    seeds.push_back(v);
    for (VertexId k = 1; k <= 3; ++k) {
      cluster.Apply({UpdateKind::kInsert, Edge{v, (v + k) % 20, 1.0, 0}});
    }
  }
  const auto expect_series_follow = [&](const char* when) {
    for (std::uint64_t r = 0; r < 3; ++r) {
      cluster.SampleNeighbors(seeds, 2, /*weighted=*/true, r);
    }
    const RegistrySnapshot snap = cluster.metrics().Snapshot();
    for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
      EXPECT_EQ(snap.Value("pd2gl_sample_cache_hits",
                           {{"shard", std::to_string(s)}}),
                cluster.shard(s).store().sample_cache()->Stats().hits)
          << when << ", shard " << s;
    }
  };
  expect_series_follow("before any crash");
  cluster.CrashShard(1);
  expect_series_follow("while crashed");
  ASSERT_TRUE(cluster.RecoverShard(1).ok());
  expect_series_follow("after recovery");
  cluster.CrashShard(1);
  cluster.AdvanceVirtualTime(1);
  cluster.AdvanceVirtualTime(ccfg.replication.suspicion_timeout_us);
  ASSERT_EQ(cluster.stats().failovers, 1u);
  expect_series_follow("after failover");
}

TEST(SubsystemRegistryTest, PipelineSharesOneRegistry) {
  // Ingestor and micro-batcher registered into ONE registry: the whole
  // ingest pipeline exports as a single page.
  MetricRegistry reg;
  GraphStore graph;
  ThreadPool pool(2);
  EpochCoordinator epochs;
  TemporalEdgeLog log;
  UpdateIngestor ingestor(IngestorConfig{}, &reg);
  MicroBatcher batcher(&graph, &pool, &ingestor, &epochs, &log,
                       MicroBatcherConfig{}, &reg);

  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        ingestor.OfferInsert(i + 1, Edge{i, i + 1, 1.0, 0}).ok());
  }
  batcher.Flush();

  const IngestorStats is = ingestor.Stats();
  const MicroBatcherStats bs = batcher.Stats();
  const RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(is.accepted, 10u);
  EXPECT_EQ(snap.Value("pd2gl_ingest_accepted"), is.accepted);
  EXPECT_EQ(snap.Value("pd2gl_micro_batcher_updates_ingested"),
            bs.updates_ingested);
  EXPECT_EQ(snap.Value("pd2gl_micro_batcher_updates_applied"),
            bs.updates_applied);
  EXPECT_EQ(snap.Value("pd2gl_micro_batcher_batches_applied"),
            bs.batches_applied);
  EXPECT_GT(snap.Value("pd2gl_micro_batcher_updates_applied"), 0u);
}

// ---------------------------------------------------------------------------
// Golden page: the merged export of a fixed workload, line for line.
// ---------------------------------------------------------------------------

/// A fixed workload that drives every counter-exporting subsystem:
///  1. a faulty, replicated 2-shard cluster through a batch, a crash, a
///     hinted-handoff update, a sample with one primary down, recovery,
///     anti-entropy and more samples;
///  2. five served two-step plans over that cluster, then an SLO cut;
///  3. a ten-update ingest pipeline in which five edges arrive twice; its
///     ingestor and micro-batcher share one registry.
struct FixedWorkload {
  static ClusterConfig FaultyReplicatedPair() {
    ClusterConfig c;
    c.num_shards = 2;
    c.replication.num_replicas = 1;
    c.fault.failure_prob = 0.2;
    c.fault.corrupt_prob = 0.1;
    c.shard_config.sample_cache.min_degree = 4;
    return c;
  }
  static serve::ServeConfig TwoPerBatch() {
    serve::ServeConfig c;
    c.batcher.max_batch = 2;
    c.slo_target_p99_us = 100;
    return c;
  }

  GraphCluster cluster{FaultyReplicatedPair()};
  EpochCoordinator epochs;
  serve::GraphServer server{&cluster, &epochs, TwoPerBatch()};
  MetricRegistry pipeline_metrics;
  GraphStore graph;
  ThreadPool pool{2};
  EpochCoordinator pipeline_epochs;
  TemporalEdgeLog log;
  UpdateIngestor ingestor{IngestorConfig{}, &pipeline_metrics};
  MicroBatcher micro{&graph, &pool, &ingestor, &pipeline_epochs, &log,
                     MicroBatcherConfig{}, &pipeline_metrics};

  void Run() {
    std::vector<EdgeUpdate> batch;
    for (VertexId v = 0; v < 40; ++v) {
      for (VertexId k = 1; k <= 5; ++k) {
        batch.push_back({UpdateKind::kInsert,
                         Edge{v, (v * 7 + k) % 40,
                              1.0 + static_cast<double>(k), 0}});
      }
    }
    (void)cluster.ApplyBatch(batch);
    VertexId on_shard1 = 0;
    while (cluster.partitioner().ShardOf(on_shard1) != 1) ++on_shard1;
    cluster.CrashShard(1);
    (void)cluster.Apply({UpdateKind::kInsert, Edge{on_shard1, 39, 2.5, 0}});
    std::vector<VertexId> seeds(16);
    for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = i * 2;
    cluster.SampleNeighbors(seeds, 4, /*weighted=*/true, /*seed=*/11);
    EXPECT_TRUE(cluster.RecoverShard(1).ok());
    cluster.RunAntiEntropy();
    for (std::uint64_t r = 0; r < 3; ++r) {
      cluster.SampleNeighbors(seeds, 4, /*weighted=*/r != 1, 12 + r);
    }

    for (std::uint64_t i = 0; i < 5; ++i) {
      serve::QueryRequest req;
      req.tenant = static_cast<std::uint32_t>(i % 2);
      req.request_id = i;
      req.rng_seed = 100 + i;
      req.seeds = {i, i + 7};
      req.plan.Sample(2).Traverse(2);
      EXPECT_TRUE(server.Submit(req, i * 100).ok());
      server.Pump(i * 100);
    }
    server.Drain(1000);
    server.EndSloWindow();

    for (std::uint64_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(
          ingestor.OfferInsert(i + 1, Edge{i % 5, i % 5 + 1, 1.0, 0}).ok());
    }
    micro.Flush();
  }

  /// All three registries as one page, the way `pd2gl metrics` merges.
  RegistrySnapshot Page() const {
    RegistrySnapshot page = server.metrics().Snapshot();
    page.MergeFrom(cluster.metrics().Snapshot());
    page.MergeFrom(pipeline_metrics.Snapshot());
    return page;
  }
};

/// The page minus what holds measured time: histogram samples are dropped
/// (their `# TYPE` lines stay) and the CPU-time counter is masked.
std::string CounterLines(const std::string& page) {
  std::istringstream in(page);
  std::string out;
  std::string line;
  bool histogram = false;
  while (std::getline(in, line)) {
    if (line.starts_with("# TYPE ")) {
      histogram = line.ends_with(" histogram");
    } else if (histogram) {
      continue;
    } else if (line.starts_with("pd2gl_replication_replica_apply_nanos ")) {
      line = line.substr(0, line.find(' ')) + " <cpu-nanos>";
    }
    out += line + '\n';
  }
  return out;
}

TEST(ExportTest, SubsystemPagesAreGolden) {
  FixedWorkload w;
  w.Run();
  const std::string path = PD2GL_TEST_DATA_DIR "/obs_golden_page.txt";
  std::ifstream golden(path);
  ASSERT_TRUE(golden.good()) << "cannot read " << path;
  std::ostringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(CounterLines(obs::ToPrometheusText(w.Page())), expected.str());
}

TEST(SubsystemRegistryTest, EveryListRowMirrorsItsSeries) {
  FixedWorkload w;
  w.Run();
  const RegistrySnapshot page = w.Page();
  const serve::ServeStats serve_stats = w.server.Stats();
  // Expanded once per counter list: in each block, every row's snapshot
  // field must equal the series registered as prefix + row name.
#define PD2GL_EXPECT_ROW(name)                                 \
  EXPECT_EQ(stats.name, page.Value(prefix + #name, labels)) \
      << prefix << #name;
  {
    const ClusterStats stats = w.cluster.stats();
    const std::string prefix = "pd2gl_cluster_";
    const Labels labels;
    PD2GL_CLUSTER_COUNTERS(PD2GL_EXPECT_ROW)
  }
  {
    const ReplicationStats stats = w.cluster.replication_stats();
    const std::string prefix = "pd2gl_replication_";
    const Labels labels;
    PD2GL_REPLICATION_COUNTERS(PD2GL_EXPECT_ROW)
  }
  for (std::size_t shard = 0; shard < w.cluster.num_shards(); ++shard) {
    const SampleCacheStats stats =
        w.cluster.shard(shard).store().sample_cache()->Stats();
    const std::string prefix = "pd2gl_sample_cache_";
    const Labels labels{{"shard", std::to_string(shard)}};
    PD2GL_SAMPLE_CACHE_COUNTERS(PD2GL_EXPECT_ROW)
  }
  {
    const serve::ServeStats& stats = serve_stats;
    const std::string prefix = "pd2gl_serve_";
    const Labels labels;
    PD2GL_SERVE_COUNTERS(PD2GL_EXPECT_ROW)
  }
  {
    const serve::AdmissionStats& stats = serve_stats.admission;
    const std::string prefix = "pd2gl_admission_";
    const Labels labels;
    PD2GL_ADMISSION_COUNTERS(PD2GL_EXPECT_ROW)
  }
  {
    const serve::BatcherStats& stats = serve_stats.batcher;
    const std::string prefix = "pd2gl_batcher_";
    const Labels labels;
    PD2GL_BATCHER_COUNTERS(PD2GL_EXPECT_ROW)
  }
  {
    const IngestorStats stats = w.ingestor.Stats();
    const std::string prefix = "pd2gl_ingest_";
    const Labels labels;
    PD2GL_INGEST_COUNTERS(PD2GL_EXPECT_ROW)
  }
  {
    const MicroBatcherStats stats = w.micro.Stats();
    const std::string prefix = "pd2gl_micro_batcher_";
    const Labels labels;
    PD2GL_MICRO_BATCHER_COUNTERS(PD2GL_EXPECT_ROW)
  }
#undef PD2GL_EXPECT_ROW
}

}  // namespace
}  // namespace platod2gl
