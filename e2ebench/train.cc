// Training workloads.
//
// train-khop: one closed-loop trainer samples 2-hop subgraphs (fanout
// 25 x 10, weighted) for 512-seed mini-batches through
// RemoteSubgraphSampler on a 4-shard cluster holding ogbn-mini — the
// paper's Fig. 10(d-f) operation on a long-tail graph. A unit is a
// mini-batch.
//
// train-churn: the same trainer on a cluster with one synchronously
// shipped replica per shard. Before every mini-batch it writes 256
// updates of a 60/30/10 insert/update/delete stream through
// GraphCluster::ApplyBatch. A unit is a step: the write and the
// mini-batch. One thread does both, so reads and writes alternate in the
// same order on every run and each mini-batch meets the invalidations of
// the same number of writes, however fast the host ran the steps before.
#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/random.h"
#include "dist/remote_sampler.h"
#include "e2e.h"

namespace pd2gl_e2e {
namespace {

using platod2gl::HistogramSnapshot;
using platod2gl::RemoteSampleReport;
using platod2gl::RemoteSubgraphSampler;
using platod2gl::SampledSubgraph;
using platod2gl::SampleReport;
using platod2gl::SeedStatus;
using platod2gl::SplitMix64;
using platod2gl::Status;
using platod2gl::SubgraphSampler;
using platod2gl::UpdateKind;
using platod2gl::Xoshiro256;

const std::vector<SubgraphSampler::Hop> kHops = {
    {.fanout = 25, .edge_type = 0, .weighted = true},
    {.fanout = 10, .edge_type = 0, .weighted = true}};
constexpr std::size_t kBatchSeeds = 512;
/// Updates written before each mini-batch under churn.
constexpr std::size_t kWriteBatch = 256;
/// Fixed warm-up in set-up: first-touch cache admissions land here.
constexpr int kWarmupSteps = 64;
/// Traced batches checked bit-identical to RemoteSubgraphSampler::Sample.
constexpr int kIdentityBatches = 50;

/// Mini-batch seeds: a seeded shuffle of the source vertices, cycled.
class SeedStream {
 public:
  SeedStream(std::vector<VertexId> sources, std::uint64_t seed)
      : perm_(std::move(sources)) {
    Xoshiro256 rng(seed);
    for (std::size_t i = perm_.size(); i > 1; --i) {
      std::swap(perm_[i - 1], perm_[rng.NextUint64(i)]);
    }
  }

  std::vector<VertexId> Next() {
    std::vector<VertexId> seeds(kBatchSeeds);
    for (VertexId& v : seeds) {
      v = perm_[pos_];
      pos_ = (pos_ + 1) % perm_.size();
    }
    return seeds;
  }

 private:
  std::vector<VertexId> perm_;
  std::size_t pos_ = 0;
};

std::uint64_t BatchSeed(std::uint64_t run_seed, std::uint64_t batch) {
  return SplitMix64(run_seed ^ (0xA0761D6478BD642FULL * (batch + 1))).Next();
}

/// The slowest RPC in a delta of pd2gl_cluster_rpc_compute_nanos, at
/// bucket resolution: bucket b holds [2^(b-1), 2^b) ns; its midpoint is
/// taken.
std::int64_t SlowestRpcNs(const HistogramSnapshot& delta) {
  for (std::size_t b = HistogramSnapshot::kBuckets - 1; b >= 1; --b) {
    if (delta.buckets[b] > 0) {
      return static_cast<std::int64_t>(
          1.5 * std::ldexp(1.0, static_cast<int>(b) - 1));
    }
  }
  return 0;
}

/// RemoteSubgraphSampler::SampleWithReport unrolled: one
/// SampleNeighborsChecked per hop with the sampler's per-hop seed
/// derivation, spans around each hop and each frontier assembly, and the
/// hop's slowest RPC (a registry delta) as its child.
RemoteSampleReport TracedSample(GraphCluster& cluster,
                                const std::vector<VertexId>& seeds,
                                std::uint64_t seed, SpanLog* spans,
                                std::uint32_t parent, std::uint64_t unit) {
  RemoteSampleReport report;
  SampledSubgraph& sg = report.subgraph;
  sg.layers.push_back(seeds);
  std::uint64_t round = 0;
  for (const SubgraphSampler::Hop& hop : kHops) {
    const HistogramSnapshot rpc0 = cluster.rpc_latency().Snapshot();
    const std::int64_t h0 = NowNs();
    const SampleReport hop_result = cluster.SampleNeighborsChecked(
        sg.layers.back(), hop.fanout, hop.weighted,
        seed ^ (0x9E3779B97F4A7C15ULL * ++round), hop.edge_type);
    const std::int64_t h1 = NowNs();
    if (spans != nullptr) {
      const std::int64_t slowest = SlowestRpcNs(
          cluster.rpc_latency().Snapshot().DeltaSince(rpc0));
      const std::uint32_t hop_span =
          spans->Add("dist.hop", parent, unit, h0, h1);
      spans->Add("shard.compute", hop_span, unit, h0,
                 h0 + std::min(h1 - h0, slowest));
    }

    const std::int64_t a0 = NowNs();
    const platod2gl::NeighborBatch& batch = hop_result.batch;
    std::uint64_t degraded = 0;
    std::vector<VertexId> next;
    std::vector<std::uint32_t> parents;
    next.reserve(batch.neighbors.size());
    parents.reserve(batch.neighbors.size());
    for (std::size_t i = 0; i + 1 < batch.offsets.size(); ++i) {
      if (hop_result.seed_status[i] == SeedStatus::kDegraded) ++degraded;
      for (std::size_t j = batch.offsets[i]; j < batch.offsets[i + 1]; ++j) {
        next.push_back(batch.neighbors[j]);
        parents.push_back(static_cast<std::uint32_t>(i));
      }
    }
    report.degraded_frontier.push_back(degraded);
    report.degraded_total += degraded;
    sg.layers.push_back(std::move(next));
    sg.parents.push_back(std::move(parents));
    if (spans != nullptr) {
      spans->Add("sampler.assemble", parent, unit, a0, NowNs());
    }
  }
  return report;
}

/// Output checks on one mini-batch: nothing degraded; each frontier
/// vertex drew exactly `fanout` children, or none and has no out-edges;
/// ~1% of the sampled (parent, child) pairs are edges of the owning shard.
void CheckBatch(const GraphCluster& cluster, const RemoteSampleReport& rep,
                Xoshiro256& rng, RunReport* report) {
  if (!report->Require(rep.complete(), "mini-batch has degraded seeds")) {
    return;
  }
  const SampledSubgraph& sg = rep.subgraph;
  if (!report->Require(sg.NumHops() == kHops.size() &&
                           sg.parents.size() == kHops.size(),
                       "mini-batch has the wrong number of hops")) {
    return;
  }
  for (std::size_t l = 0; l < kHops.size(); ++l) {
    const std::vector<VertexId>& frontier = sg.layers[l];
    const std::vector<VertexId>& next = sg.layers[l + 1];
    const std::vector<std::uint32_t>& parents = sg.parents[l];
    if (!report->Require(parents.size() == next.size(),
                         "layer and parent links differ in size")) {
      return;
    }
    std::size_t j = 0;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      std::size_t children = 0;
      while (j < parents.size() && parents[j] == i) {
        ++children;
        ++j;
      }
      if (children == 0 ? cluster.Degree(frontier[i]) != 0
                        : children != kHops[l].fanout) {
        report->Violation("hop " + std::to_string(l) + ": vertex " +
                          std::to_string(frontier[i]) + " drew " +
                          std::to_string(children) + " children");
      }
    }
    report->Require(j == parents.size(), "children out of frontier order");
    for (std::size_t k = rng.NextUint64(100); k < next.size(); k += 100) {
      const VertexId v = frontier[parents[k]];
      if (!cluster.shard(cluster.partitioner().ShardOf(v))
               .store()
               .HasEdge(v, next[k])) {
        report->Violation("sampled pair (" + std::to_string(v) + ", " +
                          std::to_string(next[k]) + ") is not an edge");
      }
    }
  }
}

struct TrainInputs {
  std::uint64_t seed = 1;
  std::vector<Edge> edges;
  std::vector<VertexId> sources;
};

struct TrainState {
  TrainState(const TrainInputs& in, bool churn_workload)
      : stream(in.sources, in.seed),
        run_seed(in.seed),
        check_rng(in.seed ^ 0xC4EC4ULL),
        churn(churn_workload),
        updates(&in.edges, SplitMix64(in.seed ^ 0x5EEDULL).Next()) {}

  std::unique_ptr<GraphCluster> cluster;
  SeedStream stream;
  std::uint64_t run_seed;
  std::uint64_t next_batch = 0;
  Xoshiro256 check_rng;
  bool churn;
  UpdateSource updates;
  std::vector<EdgeUpdate> applied;  // churn: every update written so far
  double load_s = 0.0;
};

struct StepStats {
  PhaseCost cost;
  std::vector<double> write_ms;  // churn: ApplyBatch
  std::uint64_t steps = 0;
  std::uint64_t failed = 0;  // a degraded seed or a failed write
  std::string first_error;
  std::size_t threads = 0;
};

/// One unit of work. Its CPU and wall time cover the library's calls
/// only; the output checks run after it.
void Step(TrainState& st, RemoteSubgraphSampler& sampler, SpanLog* spans,
          RunReport* report, StepStats* out) {
  std::vector<EdgeUpdate> write;
  for (std::size_t i = 0; st.churn && i < kWriteBatch; ++i) {
    write.push_back(st.updates.Next());
  }
  const std::vector<VertexId> seeds = st.stream.Next();
  const std::uint64_t b = st.next_batch++;
  const std::uint64_t seed = BatchSeed(st.run_seed, b);

  const std::int64_t c0 = CpuNs();
  const std::int64_t t0 = NowNs();
  const std::uint32_t root =
      spans != nullptr ? spans->Open(st.churn ? "train.step" : "train.batch",
                                     SpanLog::kNoParent, b, t0)
                       : SpanLog::kNoParent;
  Status written = Status::Ok();
  if (st.churn) {
    const std::uint64_t replica0 =
        spans != nullptr ? st.cluster->replication_stats().replica_apply_nanos
                         : 0;
    written = st.cluster->ApplyBatch(write);
    const std::int64_t w1 = NowNs();
    out->write_ms.push_back(static_cast<double>(w1 - t0) / 1e6);
    if (spans != nullptr) {
      const auto replica = static_cast<std::int64_t>(
          st.cluster->replication_stats().replica_apply_nanos - replica0);
      const std::uint32_t apply = spans->Add("write.apply", root, b, t0, w1);
      spans->Add("replication.replica_apply", apply, b, t0,
                 t0 + std::min(w1 - t0, replica));
    }
  }
  const RemoteSampleReport rep =
      spans != nullptr ? TracedSample(*st.cluster, seeds, seed, spans, root, b)
                       : sampler.SampleWithReport(seeds, kHops, seed);
  const std::int64_t t1 = NowNs();
  const std::int64_t c1 = CpuNs();
  if (spans != nullptr) spans->Close(root, t1);

  out->cost.cpu_us.push_back({t1, static_cast<double>(c1 - c0) / 1e3});
  out->cost.units.push_back({t1, 1.0});
  out->cost.unit_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  ++out->steps;
  if (!rep.complete() || !written.ok()) ++out->failed;
  if (!written.ok() && out->first_error.empty()) {
    out->first_error = written.ToString();
  }
  st.applied.insert(st.applied.end(), write.begin(), write.end());
  CheckBatch(*st.cluster, rep, st.check_rng, report);
}

/// Closed-loop steps for `seconds`.
StepStats RunSteps(TrainState& st, double seconds, SpanLog* spans,
                   RunReport* report) {
  StepStats out;
  RemoteSubgraphSampler sampler(st.cluster.get());
  out.cost.start_ns = NowNs();
  out.cost.end_ns = out.cost.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  while (NowNs() < out.cost.end_ns) Step(st, sampler, spans, report, &out);
  out.threads = ThreadCount();
  report->Require(out.first_error.empty(),
                  "churn write failed: " + out.first_error);
  return out;
}

std::unique_ptr<TrainState> SetUpTrain(const TrainInputs& in, bool churn,
                                       RunReport* report) {
  auto st = std::make_unique<TrainState>(in, churn);
  const std::int64_t t0 = NowNs();
  st->cluster = LoadCluster(in.edges, churn ? 1 : 0, true, report);
  st->load_s = static_cast<double>(NowNs() - t0) / 1e9;
  RemoteSubgraphSampler sampler(st->cluster.get());
  StepStats warmup;
  for (int s = 0; s < kWarmupSteps; ++s) {
    Step(*st, sampler, nullptr, report, &warmup);
  }
  report->Require(warmup.first_error.empty(),
                  "warm-up write failed: " + warmup.first_error);
  return st;
}

/// Edge count after applying `ops` to `base`, on a plain set.
std::size_t ModelEdgeCount(const std::vector<Edge>& base,
                           const std::vector<EdgeUpdate>& ops) {
  using Key = std::pair<VertexId, VertexId>;
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<VertexId>()(k.first * 0x9E3779B97F4A7C15ULL ^ k.second);
    }
  };
  std::vector<Key> keys;
  keys.reserve(base.size());
  for (const Edge& e : base) keys.emplace_back(e.src, e.dst);
  std::sort(keys.begin(), keys.end());
  std::unordered_map<Key, bool, KeyHash> touched;
  std::size_t count = base.size();
  for (const EdgeUpdate& op : ops) {
    const Key key(op.edge.src, op.edge.dst);
    const auto it = touched.find(key);
    const bool present =
        it != touched.end() ? it->second
                            : std::binary_search(keys.begin(), keys.end(), key);
    bool after = present;
    if (op.kind == UpdateKind::kInsert) after = true;
    if (op.kind == UpdateKind::kDelete) after = false;
    if (after && !present) ++count;
    if (!after && present) --count;
    touched[key] = after;
  }
  return count;
}

/// The traced path's subgraphs must equal the library's. Checked on a
/// twin cluster without the sample cache: a cache hit draws from an alias
/// table instead of the samtree, so on the live cluster a second call
/// could differ only because the first admitted a vertex.
void CheckTracedPathIdentity(const TrainInputs& in, RunReport* report) {
  const std::unique_ptr<GraphCluster> twin =
      LoadCluster(in.edges, 0, /*sample_cache=*/false, report);
  SeedStream stream(in.sources, in.seed);
  RemoteSubgraphSampler sampler(twin.get());
  for (int b = 0; b < kIdentityBatches; ++b) {
    const std::vector<VertexId> seeds = stream.Next();
    const std::uint64_t seed =
        BatchSeed(in.seed, static_cast<std::uint64_t>(b));
    const SampledSubgraph want = sampler.Sample(seeds, kHops, seed);
    const RemoteSampleReport got = TracedSample(
        *twin, seeds, seed, nullptr, SpanLog::kNoParent, 0);
    report->Require(got.subgraph.layers == want.layers &&
                        got.subgraph.parents == want.parents,
                    "traced batch " + std::to_string(b) +
                        " differs from RemoteSubgraphSampler::Sample");
  }
}

/// After the last write: replicas caught up and agree with their
/// primaries, and the cluster holds what a plain set model of the written
/// stream holds.
void CheckChurnEnd(TrainState& st, const TrainInputs& in, RunReport* report) {
  GraphCluster& cluster = *st.cluster;
  const Status flush = cluster.FlushReplication();
  report->Require(flush.ok(), "FlushReplication: " + flush.ToString());
  const auto ae = cluster.RunAntiEntropy();
  report->Require(ae.digest_mismatches == 0,
                  "anti-entropy found " + std::to_string(ae.digest_mismatches) +
                      " mismatched buckets");
  const std::size_t want = ModelEdgeCount(in.edges, st.applied);
  report->Require(cluster.NumEdges() == want,
                  "cluster holds " + std::to_string(cluster.NumEdges()) +
                      " edges, the written stream leaves " +
                      std::to_string(want));
  report->Require(cluster.stats().lost_updates == 0, "updates were lost");
}

void RunTrain(const Options& opt, bool churn, RunReport* report) {
  TrainInputs in;
  in.seed = opt.seed;
  in.edges = OgbnMiniEdges();
  in.sources = SourcesOf(in.edges);

  double rss_base = 0.0;
  std::unique_ptr<TrainState> st = TimedSetup<TrainState>(
      opt, report, &rss_base, [&] { return SetUpTrain(in, churn, report); });
  ReportMemory(opt, StoresOf(*st->cluster),
               static_cast<double>(in.edges.size()) / st->load_s, report);

  std::vector<StepStats> slices;
  SpanLog spans;
  if (!opt.traced()) {
    ReportEndToEnd(slices.emplace_back(RunSteps(*st, opt.duration_s, nullptr,
                                                report))
                       .cost,
                   report);
  } else {
    CheckTracedPathIdentity(in, report);
    std::vector<PhaseCost> plain;
    std::vector<PhaseCost> traced_costs;
    std::vector<double> write_ms;
    // The traced slices are adjacent; counters are cut around the pair.
    ClusterTallies before;
    ClusterTallies after;
    platod2gl::ReplicationStats rep_before;
    platod2gl::ReplicationStats rep_after;
    double steps = 0.0;
    bool started = false;
    for (const bool traced : kTraceSlices) {
      if (traced && !started) {
        started = true;
        before = ReadClusterTallies(*st->cluster);
        rep_before = st->cluster->replication_stats();
      }
      const StepStats& r = slices.emplace_back(RunSteps(
          *st, opt.duration_s / 4, traced ? &spans : nullptr, report));
      (traced ? traced_costs : plain).push_back(r.cost);
      if (!traced) {
        write_ms.insert(write_ms.end(), r.write_ms.begin(), r.write_ms.end());
        continue;
      }
      after = ReadClusterTallies(*st->cluster);
      rep_after = st->cluster->replication_stats();
      steps += static_cast<double>(r.steps);
    }

    const char* root = churn ? "train.step" : "train.batch";
    spans.ReportShares(root, report);
    // A unit's children are separately timed calls (write, hops, frontier
    // assembly); what they leave uncovered is time the spans miss.
    const double coverage = spans.Coverage(root);
    report->Require(coverage >= 0.95 && coverage <= 1.05,
                    std::string("children of ") + root + " cover " +
                        std::to_string(coverage) +
                        " of it, outside [0.95, 1.05]");
    ReportWallAndOverhead(plain, traced_costs, report);
    if (churn) {
      report->Metric("write.apply_ms_p50", Percentile(write_ms, 50), "ms");
      report->Metric("write.apply_ms_p99", Percentile(write_ms, 99), "ms");
      const auto shipped = static_cast<double>(rep_after.bytes_shipped -
                                               rep_before.bytes_shipped);
      const double updates = steps * static_cast<double>(kWriteBatch);
      report->Metric("replication.bytes_per_update",
                     updates > 0.0 ? shipped / updates : 0.0, "B");
    }
    const ClusterTallies delta = after - before;
    ReportDist(delta, steps, report);
    ReportCache(delta.cache, StoresOf(*st->cluster), report);
  }

  for (const StepStats& r : slices) {
    report->attempted += r.steps;
    report->failed += r.failed;
    report->Require(r.threads <= kMaxThreads,
                    std::to_string(r.threads) + " threads running");
  }
  const double rss_mb = ResidentGrowthMb(rss_base);
  if (churn) CheckChurnEnd(*st, in, report);
  if (opt.traced()) {
    report->Metric("process.rss_mb", rss_mb, "MB");
    report->Require(spans.WriteJson(opt.trace_file, opt, 20000),
                    "cannot write " + opt.trace_file);
  }
}

}  // namespace

void RunTrainKhop(const Options& opt, RunReport* report) {
  RunTrain(opt, /*churn=*/false, report);
}

void RunTrainChurn(const Options& opt, RunReport* report) {
  RunTrain(opt, /*churn=*/true, report);
}

}  // namespace pd2gl_e2e
