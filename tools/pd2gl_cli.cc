// pd2gl: command-line utility around the PlatoD2GL library.
//
//   pd2gl gen <rmat|bipartite|uniform> <edges> <out.txt> [seed]
//       write a synthetic edge list (text format, see io/edge_list_reader)
//   pd2gl load <edges.txt> <out.ckpt>
//       parse a text edge list and write a binary checkpoint
//   pd2gl stats <edges.txt | graph.ckpt>
//       degree summary and log2 degree histogram, topology memory
//   pd2gl sample <edges.txt | graph.ckpt> <vertex> <k>
//       draw k weighted neighbours of a vertex; k is bounded like a
//       serving plan's fanout (1 <= k <= PlannerLimits::max_fanout)
//   pd2gl verify-store <edges.txt | graph.ckpt>
//       run the full structural invariant sweep over every samtree of
//       every relation (Definition-1 bounds, routing order, FSTable /
//       CSTable sum agreement, CP-ID round-trips, edge-counter drift),
//       then a replication echo drill: stream the graph through a
//       replicated 2-shard cluster and require anti-entropy to find
//       zero divergence (docs/replication.md)
//   pd2gl stream-train <steps> [producers] [rate] [block|reject|drop] [seed]
//       run the streaming pipeline end to end: `producers` threads feed
//       timestamped edge updates into the UpdateIngestor while the
//       ContinuousTrainer interleaves micro-batch application with
//       GraphSAGE minibatch steps, reporting loss / staleness / epoch
//       (docs/streaming_pipeline.md)
//   pd2gl serve-bench <requests> [rate] [max_batch] [seed]
//       replay an open-loop Zipf query mix (4 tenants) against the
//       online serving layer over a 4-shard cluster while an ingest
//       thread churns edges; reports virtual-time p50/p99, throughput,
//       batching and admission counters, and a one-screen registry
//       summary (hottest shards, cache hit rate, worst trace)
//   pd2gl metrics [requests] [seed] [prom|json]
//       run a small deterministic serving workload and export the merged
//       registry page — serve + cluster + per-shard + sample-cache
//       series plus the profiling sites — in Prometheus text (default)
//       or JSON (docs/observability.md)
//   pd2gl trace <request_id|worst> [requests] [seed]
//       run the same canned workload and pretty-print one request's span
//       tree (serve root -> plan steps -> per-shard RPCs) on the virtual
//       clock; `worst` picks the highest-latency retained trace
#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "platod2gl.h"

using namespace platod2gl;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  pd2gl gen <rmat|bipartite|uniform> <edges> <out.txt> "
               "[seed]\n"
               "  pd2gl load <edges.txt> <out.ckpt>\n"
               "  pd2gl stats <edges.txt | graph.ckpt>\n"
               "  pd2gl sample <edges.txt | graph.ckpt> <vertex> <k>\n"
               "  pd2gl verify-store <edges.txt | graph.ckpt>\n"
               "  pd2gl stream-train <steps> [producers] [rate] "
               "[block|reject|drop] [seed]\n"
               "  pd2gl serve-bench <requests> [rate] [max_batch] "
               "[seed]\n"
               "  pd2gl metrics [requests] [seed] [prom|json]\n"
               "  pd2gl trace <request_id|worst> [requests] [seed]\n");
  return 2;
}

/// The CLI's default store shape: headroom for multi-relation inputs.
GraphStoreConfig EightRelations() {
  GraphStoreConfig cfg;
  cfg.num_relations = 8;
  return cfg;
}

/// Parse `s` as a whole unsigned decimal number: digits only, nothing
/// after them, no overflow.
bool ParseUnsigned(const char* s, std::uint64_t* out) {
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, *out);
  return ec == std::errc() && ptr == end;
}

bool LooksLikeCheckpoint(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  char magic[4] = {};
  const bool got = std::fread(magic, sizeof(magic), 1, f) == 1;
  std::fclose(f);
  return got && std::memcmp(magic, "PD2G", 4) == 0;
}

/// Load a graph from either format; returns false on failure.
bool LoadAnyGraph(const std::string& path, GraphStore* graph) {
  Status s = LooksLikeCheckpoint(path) ? LoadGraph(path, graph)
                                       : LoadEdgeList(path, graph);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return false;
  }
  return true;
}

int CmdGen(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string kind = argv[0];
  const std::size_t edges = std::strtoull(argv[1], nullptr, 10);
  const std::string out_path = argv[2];
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                      : 42;

  std::vector<Edge> edge_list;
  if (kind == "rmat") {
    RmatParams p;
    p.num_edges = edges;
    p.seed = seed;
    edge_list = GenerateRmat(p);
  } else if (kind == "bipartite") {
    BipartiteParams p;
    p.num_edges = edges;
    p.seed = seed;
    edge_list = GenerateBipartite(p);
  } else if (kind == "uniform") {
    UniformParams p;
    p.num_edges = edges;
    p.seed = seed;
    edge_list = GenerateUniform(p);
  } else {
    return Usage();
  }
  DedupEdges(&edge_list);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "# pd2gl gen %s, %zu edges after dedup, seed %llu\n",
               kind.c_str(), edge_list.size(),
               (unsigned long long)seed);
  for (const Edge& e : edge_list) {
    std::fprintf(f, "%llu %llu %.6f %u\n", (unsigned long long)e.src,
                 (unsigned long long)e.dst, e.weight, e.type);
  }
  std::fclose(f);
  std::printf("wrote %zu edges to %s\n", edge_list.size(),
              out_path.c_str());
  return 0;
}

int CmdLoad(int argc, char** argv) {
  if (argc < 2) return Usage();
  GraphStore graph(EightRelations());
  EdgeListStats stats;
  const Status read = LoadEdgeList(argv[0], &graph, &stats);
  if (!read.ok()) {
    std::fprintf(stderr, "error: %s\n", read.ToString().c_str());
    return 1;
  }
  const Status write = SaveGraph(graph, argv[1]);
  if (!write.ok()) {
    std::fprintf(stderr, "error: %s\n", write.ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu edges (%zu lines skipped), checkpoint: %s\n",
              stats.edges_loaded, stats.lines_skipped, argv[1]);
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 1) return Usage();
  GraphStore graph(EightRelations());
  if (!LoadAnyGraph(argv[0], &graph)) return 1;

  // Degree summary of relation 0's sources; histogram bucket b counts
  // sources with degree in [2^b, 2^{b+1}).
  std::size_t sources = 0, edges = 0, max_degree = 0;
  std::vector<std::size_t> histogram;
  graph.topology(0).ForEachSource([&](VertexId, const Samtree& tree) {
    const std::size_t deg = tree.size();
    if (deg == 0) return;
    ++sources;
    edges += deg;
    max_degree = std::max(max_degree, deg);
    const std::size_t bucket =
        static_cast<std::size_t>(std::bit_width(deg)) - 1;
    if (histogram.size() <= bucket) histogram.resize(bucket + 1, 0);
    ++histogram[bucket];
  });
  std::printf("sources: %zu   edges: %zu   mean degree: %.2f   max "
              "degree: %zu\n",
              sources, edges,
              sources == 0 ? 0.0 : static_cast<double>(edges) / sources,
              max_degree);
  std::printf("degree histogram (log2 buckets):");
  for (std::size_t b = 0; b < histogram.size(); ++b) {
    std::printf(" [2^%zu]=%zu", b, histogram[b]);
  }
  std::printf("\n");

  const MemoryBreakdown mem = graph.TopologyMemory();
  std::printf("topology memory: %s\n", HumanBytes(mem.Total()).c_str());
  return 0;
}

int CmdSample(int argc, char** argv) {
  if (argc < 3) return Usage();
  // The sampler reserves k slots up front, so k is bounded like a serving
  // plan's fanout.
  const std::uint32_t max_k = serve::PlannerLimits{}.max_fanout;
  VertexId v = 0;
  std::uint64_t k = 0;
  if (!ParseUnsigned(argv[1], &v) || !ParseUnsigned(argv[2], &k) || k == 0 ||
      k > max_k) {
    std::fprintf(stderr,
                 "error: <vertex> and <k> must be whole numbers, "
                 "1 <= k <= %u\n",
                 max_k);
    return Usage();
  }
  GraphStore graph(EightRelations());
  if (!LoadAnyGraph(argv[0], &graph)) return 1;

  Xoshiro256 rng(1);
  std::vector<VertexId> out;
  if (!graph.SampleNeighbors(v, k, /*weighted=*/true, rng, &out)) {
    std::fprintf(stderr, "vertex %llu has no out-edges\n",
                 (unsigned long long)v);
    return 1;
  }
  std::printf("%zu weighted samples from N(%llu):", out.size(),
              (unsigned long long)v);
  for (VertexId u : out) std::printf(" %llu", (unsigned long long)u);
  std::printf("\n");
  return 0;
}

/// Replication echo drill (docs/replication.md): stream every edge of
/// the verified graph through a 2-shard, 1-replica cluster with sync
/// WAL shipping, flush, and run one anti-entropy round. A structurally
/// sound store must replicate with zero digest mismatches and zero
/// repairs — a divergence here means the log-shipping path mangled an
/// update the local invariant sweep cannot see. Prints the replication
/// counters; returns false on any divergence.
bool ReplicationEchoDrill(const GraphStore& graph) {
  ClusterConfig cfg;
  cfg.num_shards = 2;
  cfg.shard_config = EightRelations();
  cfg.replication.num_replicas = 1;
  GraphCluster cluster(cfg);

  std::vector<EdgeUpdate> batch;
  batch.reserve(4096);
  std::uint64_t streamed = 0;
  Status apply = Status::Ok();
  for (std::size_t rel = 0; rel < graph.num_relations(); ++rel) {
    const TopologyStore& topo = graph.topology(static_cast<EdgeType>(rel));
    topo.ForEachSource([&](VertexId src, const Samtree&) {
      for (const auto& [dst, w] : topo.Neighbors(src)) {
        batch.push_back(EdgeUpdate{
            UpdateKind::kInsert,
            Edge{src, dst, w, static_cast<EdgeType>(rel)}});
        if (batch.size() == 4096) {
          if (Status s = cluster.ApplyBatch(batch); !s.ok()) apply = s;
          streamed += batch.size();
          batch.clear();
        }
      }
    });
  }
  if (!batch.empty()) {
    if (Status s = cluster.ApplyBatch(batch); !s.ok()) apply = s;
    streamed += batch.size();
  }
  if (!apply.ok()) {
    std::fprintf(stderr, "replication drill: apply failed: %s\n",
                 apply.ToString().c_str());
    return false;
  }
  if (Status s = cluster.FlushReplication(); !s.ok()) {
    std::fprintf(stderr, "replication drill: flush failed: %s\n",
                 s.ToString().c_str());
    return false;
  }
  (void)cluster.RunAntiEntropy();

  const ReplicationStats rs = cluster.replication_stats();
  const ClusterStats& cs = cluster.stats();
  std::printf(
      "replication drill: %llu updates shipped in %llu appends "
      "(%llu bytes), %llu applied, %llu retransmits\n",
      (unsigned long long)streamed, (unsigned long long)rs.append_messages,
      (unsigned long long)rs.bytes_shipped,
      (unsigned long long)rs.entries_applied,
      (unsigned long long)(rs.rejected_appends + rs.duplicate_entries));
  std::printf(
      "replication drill: digest rounds %llu, mismatches %llu, repairs "
      "%llu, failovers %llu\n",
      (unsigned long long)cs.digest_rounds,
      (unsigned long long)cs.digest_mismatches,
      (unsigned long long)cs.antientropy_repairs,
      (unsigned long long)cs.failovers);
  if (cs.digest_mismatches != 0 || cs.antientropy_repairs != 0 ||
      cs.failovers != 0) {
    std::fprintf(stderr,
                 "replication drill: DIVERGENCE (clean stream must "
                 "replicate with zero mismatches/repairs/failovers)\n");
    return false;
  }
  return true;
}

int CmdVerifyStore(int argc, char** argv) {
  if (argc < 1) return Usage();
  GraphStore graph(EightRelations());
  if (!LoadAnyGraph(argv[0], &graph)) return 1;

  bool all_ok = true;
  std::size_t total_sources = 0;
  std::size_t total_edges = 0;
  for (std::size_t rel = 0; rel < graph.num_relations(); ++rel) {
    const TopologyStore& topo = graph.topology(static_cast<EdgeType>(rel));
    total_sources += topo.NumSources();
    total_edges += topo.NumEdges();
    std::string err;
    if (topo.CheckAllInvariants(&err)) {
      if (topo.NumSources() > 0) {
        std::printf("relation %zu: OK (%zu sources, %zu edges)\n", rel,
                    topo.NumSources(), topo.NumEdges());
      }
    } else {
      all_ok = false;
      std::fprintf(stderr, "relation %zu: INVARIANT VIOLATION: %s\n", rel,
                   err.c_str());
    }
  }
  all_ok = ReplicationEchoDrill(graph) && all_ok;
  std::printf("%s: %zu sources, %zu edges across %zu relations\n",
              all_ok ? "verify-store PASSED" : "verify-store FAILED",
              total_sources, total_edges, graph.num_relations());
  return all_ok ? 0 : 1;
}

int CmdStreamTrain(int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::size_t steps = std::strtoull(argv[0], nullptr, 10);
  const std::size_t producers =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2;
  const std::size_t rate =  // updates per producer per training step
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 500;
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  if (argc > 3) {
    const std::string p = argv[3];
    if (p == "reject") policy = BackpressurePolicy::kReject;
    else if (p == "drop") policy = BackpressurePolicy::kDropOldest;
    else if (p != "block") return Usage();
  }
  const std::uint64_t seed =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 42;
  if (steps == 0 || producers == 0) return Usage();

  // A seeded community graph with features/labels so the trainer has a
  // task; streamed traffic then keeps rewiring it mid-training.
  constexpr std::size_t kVertices = 1000;
  constexpr std::size_t kFeatDim = 8;
  constexpr std::size_t kClasses = 4;
  GraphStore graph;
  Xoshiro256 init_rng(seed);
  for (VertexId v = 0; v < kVertices; ++v) {
    for (int k = 0; k < 6; ++k) {
      const VertexId u = init_rng.NextUint64(kVertices);
      if (u != v) graph.AddEdge({v, u, 1.0, 0});
    }
    std::vector<float> f(kFeatDim);
    for (auto& x : f) x = static_cast<float>(init_rng.NextDouble() - 0.5);
    f[v % kClasses] += 1.5f;
    graph.attributes().SetFeatures(v, std::move(f));
    graph.attributes().SetLabel(v, static_cast<std::int64_t>(v % kClasses));
  }

  ThreadPool pool(4);
  UpdateIngestor ingestor(IngestorConfig{.policy = policy,
                                         .num_relations = 1});
  EpochCoordinator epochs;
  TemporalEdgeLog log;
  MicroBatcher batcher(&graph, &pool, &ingestor, &epochs, &log,
                       MicroBatcherConfig{});
  GraphSageModel model(GraphSageConfig{.in_dim = kFeatDim,
                                       .hidden_dim = 16,
                                       .num_classes = kClasses},
                       seed + 1);
  Trainer trainer(&graph, &model,
                  TrainerConfig{.batch_size = 64, .fanout_hop1 = 5,
                                .fanout_hop2 = 5});
  ContinuousTrainer driver(&ingestor, &batcher, &epochs, &trainer);

  // Producers: event time is a shared admission counter, so the merged
  // stream is monotone and the WAL accepts everything.
  std::atomic<std::uint64_t> clock{0};
  const std::size_t per_producer = steps * rate;
  std::vector<std::thread> feeds;
  feeds.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    feeds.emplace_back([&, p] {
      Xoshiro256 rng(seed + 100 + p);
      for (std::size_t i = 0; i < per_producer; ++i) {
        const std::uint64_t ts = 1 + clock.fetch_add(1);
        EdgeUpdate u;
        const std::uint64_t roll = rng.NextUint64(10);
        u.kind = roll < 6   ? UpdateKind::kInsert
                 : roll < 8 ? UpdateKind::kInPlaceUpdate
                            : UpdateKind::kDelete;
        u.edge = {rng.NextUint64(kVertices), rng.NextUint64(kVertices),
                  1.0 + static_cast<double>(rng.NextUint64(100)), 0};
        (void)ingestor.Offer(TimedUpdate{ts, u});  // reject/drop counted
      }
    });
  }

  Xoshiro256 train_rng(seed + 7);
  Timer timer;
  const std::size_t report_every = steps <= 10 ? 1 : steps / 10;
  for (std::size_t s = 0; s < steps; ++s) {
    const ContinuousTrainer::StepReport r = driver.Step(train_rng);
    if ((s + 1) % report_every == 0 || s + 1 == steps) {
      std::printf("step %4zu  loss %.4f  acc %.3f  epoch %llu  "
                  "staleness %llu  applied %zu\n",
                  r.step, r.loss, r.accuracy,
                  (unsigned long long)r.epoch,
                  (unsigned long long)r.staleness, r.updates_applied);
    }
  }
  for (auto& t : feeds) t.join();
  ingestor.Close();
  driver.Drain();
  const double secs = timer.ElapsedSeconds();

  const PipelineStats stats = driver.Stats();
  std::printf("\n%zu producers x %zu updates, %zu training steps in "
              "%.2fs\n",
              producers, per_producer, steps, secs);
  std::printf("ingest: accepted %llu  rejected %llu  dropped %llu  "
              "(%.0f updates/s)\n",
              (unsigned long long)stats.ingest.accepted,
              (unsigned long long)stats.ingest.rejected,
              (unsigned long long)stats.ingest.dropped,
              static_cast<double>(stats.ingest.accepted) / secs);
  std::printf("batcher: %llu micro-batches, %llu applied "
              "(%llu coalesced away), final staleness %llu\n",
              (unsigned long long)stats.batcher.batches_applied,
              (unsigned long long)stats.batcher.updates_applied,
              (unsigned long long)stats.batcher.coalesced,
              (unsigned long long)stats.staleness);
  std::printf("store: %zu edges   WAL: %zu entries (%llu rejected)\n",
              graph.NumEdges(), log.size(),
              (unsigned long long)log.rejected());

  std::string err;
  if (!graph.topology(0).CheckAllInvariants(&err)) {
    std::fprintf(stderr, "INVARIANT VIOLATION after stream: %s\n",
                 err.c_str());
    return 1;
  }
  std::printf("post-stream invariant sweep: OK\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Observability commands: `pd2gl metrics` and `pd2gl trace` run the same
// small deterministic serving workload and expose two views of it — the
// merged registry page and a single request's span tree. Deterministic by
// construction (virtual clock, fixed seed, no concurrent ingest) so two
// runs with the same arguments print the same numbers.
// ---------------------------------------------------------------------------

struct DemoServe {
  std::unique_ptr<GraphCluster> cluster;
  std::unique_ptr<EpochCoordinator> epochs;
  std::unique_ptr<serve::GraphServer> server;
};

/// Build a 4-shard cluster and serve `requests` mixed-plan queries
/// through a batching GraphServer. Keeps every completed trace.
DemoServe RunDemoWorkload(std::size_t requests, std::uint64_t seed) {
  constexpr std::size_t kVertices = 1000;
  DemoServe demo;
  demo.cluster = std::make_unique<GraphCluster>(ClusterConfig{.num_shards = 4});
  {
    Xoshiro256 rng(seed);
    std::vector<EdgeUpdate> batch;
    for (VertexId v = 0; v < kVertices; ++v) {
      for (int k = 0; k < 8; ++k) {
        batch.push_back({UpdateKind::kInsert,
                         Edge{v, rng.NextUint64(kVertices),
                              1.0 + static_cast<double>(k), 0}});
      }
    }
    (void)demo.cluster->ApplyBatch(batch);
    for (VertexId v = 0; v < kVertices; ++v) {
      const std::size_t s = demo.cluster->partitioner().ShardOf(v);
      demo.cluster->shard(s).store().attributes().SetFeatures(
          v, {static_cast<float>(v % 97), static_cast<float>(v % 31)});
    }
  }
  demo.epochs = std::make_unique<EpochCoordinator>();
  serve::ServeConfig scfg;
  scfg.batcher.max_batch = 8;
  scfg.batcher.window_us = 200;
  scfg.slo_target_p99_us = 5000;
  scfg.trace_capacity = requests > 0 ? requests : 1;  // keep every trace
  demo.server = std::make_unique<serve::GraphServer>(demo.cluster.get(),
                                                     demo.epochs.get(), scfg);

  Xoshiro256 rng(seed + 1);
  std::uint64_t now_us = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    now_us += 50 + rng.NextUint64(200);
    serve::QueryRequest req;
    req.tenant = static_cast<std::uint32_t>(rng.NextUint64(4));
    req.request_id = i;
    req.rng_seed = seed ^ (i * 0x9E3779B97F4A7C15ULL);
    const std::size_t num_seeds = 2 + rng.NextUint64(4);
    for (std::size_t s = 0; s < num_seeds; ++s) {
      req.seeds.push_back(rng.NextUint64(kVertices));
    }
    switch (rng.NextUint64(3)) {
      case 0:
        req.plan.Sample(8).Sample(4, true, 0).Gather(1);
        break;
      case 1:
        req.plan.Sample(8).NegativeSample(16, 0, kVertices, 0);
        break;
      default:
        req.plan.Sample(10).Gather(0);
        break;
    }
    (void)demo.server->Submit(req, now_us);
    demo.server->Pump(now_us);
  }
  demo.server->Drain(now_us + 1);
  return demo;
}

/// The whole-process registry page: serving + cluster (per-shard, cache,
/// replication when enabled) + the profiling sites.
obs::RegistrySnapshot MergedSnapshot(const DemoServe& demo) {
  obs::RegistrySnapshot merged = demo.server->metrics().Snapshot();
  merged.MergeFrom(demo.cluster->metrics().Snapshot());
  merged.MergeFrom(obs::ProfileSnapshot());
  return merged;
}

int CmdMetrics(int argc, char** argv) {
  const std::size_t requests =
      argc > 0 ? std::strtoull(argv[0], nullptr, 10) : 64;
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  const std::string format = argc > 2 ? argv[2] : "prom";
  if (requests == 0 || (format != "prom" && format != "json")) {
    return Usage();
  }
  const DemoServe demo = RunDemoWorkload(requests, seed);
  const obs::RegistrySnapshot merged = MergedSnapshot(demo);
  const std::string page = format == "json" ? obs::ToJson(merged)
                                            : obs::ToPrometheusText(merged);
  std::fputs(page.c_str(), stdout);
  return 0;
}

void PrintTrace(const obs::Trace& trace) {
  std::printf("trace %016llx  tenant %u  request %llu  status %u  %llu spans"
              "  %lluus\n",
              (unsigned long long)trace.trace_id, trace.tenant,
              (unsigned long long)trace.request_id, trace.status,
              (unsigned long long)trace.spans.size(),
              (unsigned long long)trace.DurationUs());
  // Spans are in creation order and parents precede children, so one
  // forward pass computes depths.
  std::vector<int> depth(trace.spans.size(), 0);
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const obs::Span& s = trace.spans[i];
    if (s.parent != obs::kNoParentSpan && s.parent < i) {
      depth[i] = depth[s.parent] + 1;
    }
    std::printf("  %*s%-13s [%6llu, %6llu)us", depth[i] * 2, "",
                obs::SpanKindName(s.kind), (unsigned long long)s.start_us,
                (unsigned long long)s.end_us);
    if (s.kind == obs::SpanKind::kRpcShard) {
      std::printf("  step %u  shard %u", s.step, s.shard);
    } else if (s.kind != obs::SpanKind::kServeRequest) {
      std::printf("  step %u", s.step);
    }
    std::printf("  items %llu%s\n", (unsigned long long)s.items,
                s.closed ? "" : "  OPEN");
  }
}

int CmdTrace(int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::string which = argv[0];
  const std::size_t requests =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 64;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  if (requests == 0) return Usage();

  const DemoServe demo = RunDemoWorkload(requests, seed);
  const std::vector<obs::Trace> all = demo.server->traces().Snapshot();
  if (all.empty()) {
    std::fprintf(stderr, "no traces retained\n");
    return 1;
  }
  const obs::Trace* pick = nullptr;
  if (which == "worst") {
    for (const obs::Trace& t : all) {
      if (pick == nullptr || t.DurationUs() > pick->DurationUs()) pick = &t;
    }
  } else {
    const std::uint64_t request_id = std::strtoull(which.c_str(), nullptr, 10);
    for (const obs::Trace& t : all) {
      if (t.request_id == request_id) pick = &t;
    }
    if (pick == nullptr) {
      std::fprintf(stderr, "request %llu has no retained trace "
                   "(%zu retained; try `worst`)\n",
                   (unsigned long long)request_id, all.size());
      return 1;
    }
  }
  PrintTrace(*pick);
  return 0;
}

int CmdServeBench(int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::size_t requests = std::strtoull(argv[0], nullptr, 10);
  const double rate =  // open-loop arrivals per virtual second
      argc > 1 ? std::strtod(argv[1], nullptr) : 8000.0;
  const std::size_t max_batch =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 32;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;
  if (requests == 0 || rate <= 0.0 || max_batch == 0) return Usage();

  constexpr std::size_t kVertices = 5000;
  constexpr std::uint32_t kTenants = 4;
  GraphCluster cluster(ClusterConfig{.num_shards = 4});
  {
    Xoshiro256 rng(seed);
    std::vector<EdgeUpdate> batch;
    for (VertexId v = 0; v < kVertices; ++v) {
      for (int k = 0; k < 8; ++k) {
        batch.push_back({UpdateKind::kInsert,
                         Edge{v, rng.NextUint64(kVertices),
                              1.0 + static_cast<double>(k), 0}});
      }
    }
    (void)cluster.ApplyBatch(batch);
    for (VertexId v = 0; v < kVertices; ++v) {
      const std::size_t s = cluster.partitioner().ShardOf(v);
      cluster.shard(s).store().attributes().SetFeatures(
          v, {static_cast<float>(v % 97), static_cast<float>(v % 31)});
    }
  }

  EpochCoordinator epochs;
  serve::ServeConfig scfg;
  scfg.num_tenants = kTenants;
  scfg.admission.policy = serve::AdmissionPolicy::kShedOldest;
  scfg.batcher.max_batch = max_batch;
  scfg.batcher.window_us = max_batch > 1 ? 400 : 0;
  scfg.slo_target_p99_us = 5000;
  serve::GraphServer server(&cluster, &epochs, scfg);

  // Concurrent edge churn through the cluster's real update path.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ingested{0};
  std::thread ingest([&] {
    Xoshiro256 rng(seed + 1);
    std::vector<EdgeUpdate> batch(256);
    // order: stop flag polled per batch; join() below synchronizes.
    while (!stop.load(std::memory_order_relaxed)) {
      for (EdgeUpdate& u : batch) {
        u.kind = rng.NextUint64(4) == 0 ? UpdateKind::kDelete
                                        : UpdateKind::kInsert;
        u.edge = {rng.NextUint64(kVertices), rng.NextUint64(kVertices),
                  1.0, 0};
      }
      (void)cluster.ApplyBatch(batch);
      // order: stat tally, read for reporting only after join().
      ingested.fetch_add(batch.size(), std::memory_order_relaxed);
    }
  });

  // Zipf-ish seeds (hot head): rank = floor(U^2 * n) concentrates a
  // quarter of the draws on the first 6% of ids — close enough for a
  // smoke; the bench binary uses an exact Zipf CDF.
  Xoshiro256 rng(seed + 2);
  Timer wall;
  double clock_us = 0.0;
  const double mean_gap_us = 1e6 / rate;
  std::uint64_t last_us = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    clock_us += -mean_gap_us * std::log(1.0 - rng.NextDouble());
    last_us = static_cast<std::uint64_t>(clock_us);
    serve::QueryRequest req;
    req.tenant = static_cast<std::uint32_t>(rng.NextUint64(kTenants));
    req.request_id = i;
    req.rng_seed = seed ^ (i * 0x9E3779B97F4A7C15ULL);
    const std::size_t num_seeds = 2 + rng.NextUint64(4);
    for (std::size_t s = 0; s < num_seeds; ++s) {
      const double u = rng.NextDouble();
      req.seeds.push_back(
          static_cast<VertexId>(u * u * static_cast<double>(kVertices)));
    }
    if (rng.NextUint64(10) < 7) {
      req.plan.Sample(10).Sample(5, true, 0);
    } else {
      req.plan.Sample(10).Gather(0);
    }
    (void)server.Submit(req, last_us);
    server.Pump(last_us);
  }
  server.Drain(last_us + 1);
  const double secs = wall.ElapsedSeconds();
  stop.store(true);
  ingest.join();

  const serve::ServeStats stats = server.Stats();
  const serve::SloReport slo = server.EndSloWindow();
  std::printf("serve-bench: %zu requests at %.0f rps (virtual), "
              "max_batch %zu, %.2fs wall\n",
              requests, rate, max_batch, secs);
  std::printf("latency: p50 %.1fus  p99 %.1fus  (SLO p99<%lluus: %s)\n",
              slo.p50_us, slo.p99_us,
              (unsigned long long)scfg.slo_target_p99_us,
              slo.violated ? "VIOLATED" : "ok");
  std::printf("admitted %llu  completed %llu  shed %llu  rejected %llu  "
              "invalid %llu\n",
              (unsigned long long)stats.admission.admitted,
              (unsigned long long)stats.completed,
              (unsigned long long)stats.shed,
              (unsigned long long)stats.rejected,
              (unsigned long long)stats.invalid);
  std::printf("batches %llu (mean %.1f req)  rpc rounds %llu  "
              "virtual busy %.1fms\n",
              (unsigned long long)stats.batches,
              stats.batches ? static_cast<double>(stats.batched_requests) /
                                  static_cast<double>(stats.batches)
                            : 0.0,
              (unsigned long long)stats.rpc_rounds,
              static_cast<double>(stats.virtual_busy_us) / 1e3);
  std::printf("concurrent ingest: %llu updates (%.0f/s wall)\n",
              (unsigned long long)ingested.load(),
              secs > 0 ? static_cast<double>(ingested.load()) / secs : 0.0);
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    const LatencyHistogram* h = server.tenant_latency(t);
    std::printf("tenant %u: %llu served, p50 %.1fus p99 %.1fus\n", t,
                (unsigned long long)h->Count(), h->PercentileMicros(50),
                h->PercentileMicros(99));
  }

  // One-screen registry summary: the same numbers `pd2gl metrics`
  // exports, folded down to what an operator scans first.
  {
    obs::RegistrySnapshot reg = server.metrics().Snapshot();
    reg.MergeFrom(cluster.metrics().Snapshot());
    std::printf("--- registry summary ---\n");
    std::vector<std::pair<std::uint64_t, std::string>> shard_seeds;
    for (const obs::MetricPoint& p : reg.points) {
      if (p.name == "pd2gl_shard_sample_seeds" && !p.labels.empty()) {
        shard_seeds.emplace_back(p.value, p.labels[0].value);
      }
    }
    std::sort(shard_seeds.rbegin(), shard_seeds.rend());
    std::printf("hottest shards (sample seeds):");
    for (std::size_t i = 0; i < shard_seeds.size() && i < 4; ++i) {
      std::printf("  #%s %llu", shard_seeds[i].second.c_str(),
                  (unsigned long long)shard_seeds[i].first);
    }
    std::printf("\n");
    const std::uint64_t hits = reg.SumAcrossLabels("pd2gl_sample_cache_hits");
    const std::uint64_t misses =
        reg.SumAcrossLabels("pd2gl_sample_cache_misses");
    if (hits + misses > 0) {
      std::printf("sample cache: %.1f%% hit (%llu/%llu)\n",
                  100.0 * static_cast<double>(hits) /
                      static_cast<double>(hits + misses),
                  (unsigned long long)hits,
                  (unsigned long long)(hits + misses));
    }
    const obs::TraceSink& sink = server.traces();
    const obs::Trace* worst = nullptr;
    const std::vector<obs::Trace> retained = sink.Snapshot();
    for (const obs::Trace& t : retained) {
      if (worst == nullptr || t.DurationUs() > worst->DurationUs()) {
        worst = &t;
      }
    }
    std::printf("traces: %llu published, %zu retained",
                (unsigned long long)sink.published(), retained.size());
    if (worst != nullptr) {
      std::printf(", worst %016llx (%lluus, request %llu)",
                  (unsigned long long)worst->trace_id,
                  (unsigned long long)worst->DurationUs(),
                  (unsigned long long)worst->request_id);
    }
    std::printf("\n");
  }

  // Smoke gate: every submitted request must be accounted for.
  const std::uint64_t accounted =
      stats.completed + stats.rejected + stats.invalid;
  if (accounted != stats.submitted) {
    std::fprintf(stderr, "FAIL: %llu submitted but %llu accounted\n",
                 (unsigned long long)stats.submitted,
                 (unsigned long long)accounted);
    return 1;
  }
  std::printf("request accounting: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(argc - 2, argv + 2);
  if (cmd == "load") return CmdLoad(argc - 2, argv + 2);
  if (cmd == "stats") return CmdStats(argc - 2, argv + 2);
  if (cmd == "sample") return CmdSample(argc - 2, argv + 2);
  if (cmd == "verify-store") return CmdVerifyStore(argc - 2, argv + 2);
  if (cmd == "stream-train") return CmdStreamTrain(argc - 2, argv + 2);
  if (cmd == "serve-bench") return CmdServeBench(argc - 2, argv + 2);
  if (cmd == "metrics") return CmdMetrics(argc - 2, argv + 2);
  if (cmd == "trace") return CmdTrace(argc - 2, argv + 2);
  return Usage();
}
