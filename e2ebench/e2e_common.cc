#include <malloc.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "e2e.h"
#include "gen/generators.h"

#ifndef PD2GL_COMMIT
#define PD2GL_COMMIT "unknown"
#endif
#ifndef PD2GL_BUILD_TYPE
#define PD2GL_BUILD_TYPE "unknown"
#endif

namespace pd2gl_e2e {

using platod2gl::ClusterConfig;
using platod2gl::EdgeUpdate;
using platod2gl::MemoryBreakdown;
using platod2gl::UpdateKind;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

std::vector<std::vector<double>> SplitWindows(
    const std::vector<Sample>& samples, std::int64_t start_ns,
    std::int64_t end_ns, std::size_t windows) {
  std::vector<std::vector<double>> out(windows);
  const double span =
      static_cast<double>(std::max<std::int64_t>(1, end_ns - start_ns));
  for (const Sample& s : samples) {
    if (s.t_ns < start_ns || s.t_ns >= end_ns) continue;
    const auto w = static_cast<std::size_t>(
        static_cast<double>(s.t_ns - start_ns) / span *
        static_cast<double>(windows));
    out[std::min(w, windows - 1)].push_back(s.value);
  }
  return out;
}

double MedianRatioOverWindows(const std::vector<Sample>& num,
                              const std::vector<Sample>& den,
                              std::int64_t start_ns, std::int64_t end_ns) {
  const auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  };
  const auto n = SplitWindows(num, start_ns, end_ns);
  const auto d = SplitWindows(den, start_ns, end_ns);
  std::vector<double> ratios;
  for (std::size_t w = 0; w < kWindows; ++w) {
    if (sum(d[w]) > 0.0) ratios.push_back(sum(n[w]) / sum(d[w]));
  }
  return Percentile(ratios, 50);
}

double PhaseCost::UnitsPerSecond() const {
  double n = 0.0;
  for (const Sample& s : units) n += s.value;
  return n / (static_cast<double>(end_ns - start_ns) / 1e9);
}

void ReportEndToEnd(const PhaseCost& phase, RunReport* report) {
  report->Metric("cpu_us_per_op", phase.CpuUsPerUnit(), "us");
}

void ReportWallAndOverhead(const std::vector<PhaseCost>& plain,
                           const std::vector<PhaseCost>& traced,
                           RunReport* report) {
  std::vector<double> unit_ms;
  std::vector<double> rates;
  for (const PhaseCost& p : plain) {
    unit_ms.insert(unit_ms.end(), p.unit_ms.begin(), p.unit_ms.end());
    rates.push_back(p.UnitsPerSecond());
  }
  if (!unit_ms.empty()) {
    report->Metric("wall.unit_ms_p50", Percentile(unit_ms, 50), "ms");
    report->Metric("wall.unit_ms_p99", Percentile(unit_ms, 99), "ms");
  }
  report->Metric("wall.units_per_s", Percentile(rates, 50), "1/s");
  const auto mean_cost = [](const std::vector<PhaseCost>& slices) {
    double sum = 0.0;
    for (const PhaseCost& p : slices) sum += p.CpuUsPerUnit();
    return slices.empty() ? 0.0 : sum / static_cast<double>(slices.size());
  };
  const double base = mean_cost(plain);
  report->Metric("trace.overhead_ratio",
                 base > 0.0 ? mean_cost(traced) / base - 1.0 : 0.0, "ratio");
}

double ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0;
  double resident_pages = 0.0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE));
}

std::size_t ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

void TrimHeap() { malloc_trim(0); }

double ResidentGrowthMb(double base) {
  TrimHeap();
  return (ResidentBytes() - base) / (1 << 20);
}

// --- RunReport ------------------------------------------------------------

void RunReport::Metric(const std::string& name, double value,
                       const std::string& unit) {
  if (!Require(std::isfinite(value), "metric " + name + " is not finite")) {
    value = 0.0;
  }
  metrics_.emplace_back(name, value, unit);
}

void RunReport::Violation(const std::string& what) {
  if (++violations_ > 16) return;
  std::string line = what;  // one line of the report
  std::replace(line.begin(), line.end(), '\n', ' ');
  messages_.push_back(std::move(line));
}

void RunReport::Print(const Options& opt) const {
  std::printf("provenance commit %s\n", PD2GL_COMMIT);
  std::printf("provenance compiler %s\n", __VERSION__);
  std::printf("provenance build_type %s\n", PD2GL_BUILD_TYPE);
  std::printf("provenance avx2 %d\n", platod2gl::simd::Avx2Enabled() ? 1 : 0);
  std::printf("provenance hardware_threads %u\n",
              std::thread::hardware_concurrency());
  std::printf("provenance setup_reps %d\n", opt.setup_reps());
  std::printf("attempted %llu\n", static_cast<unsigned long long>(attempted));
  std::printf("failed %llu\n", static_cast<unsigned long long>(failed));
  std::printf("violations %llu\n",
              static_cast<unsigned long long>(violations_));
  for (const std::string& m : messages_) std::printf("violation %s\n", m.c_str());
  for (const auto& [name, value, unit] : metrics_) {
    std::printf("metric %s %.17g %s\n", name.c_str(), value, unit.c_str());
  }
}

// --- SpanLog --------------------------------------------------------------

std::uint32_t SpanLog::Open(const char* name, std::uint32_t parent,
                            std::uint64_t unit, std::int64_t start_ns) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  const std::uint32_t root = parent == kNoParent ? id : spans_[parent].root;
  spans_.push_back(Span{name, parent, root, unit, start_ns, start_ns});
  return id;
}

void SpanLog::Close(std::uint32_t id, std::int64_t end_ns) {
  spans_[id].end_ns = end_ns;
}

double SpanLog::Coverage(std::string_view root) const {
  double roots = 0.0;
  double children = 0.0;
  for (const Span& s : spans_) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    if (s.parent == kNoParent) {
      if (root == s.name) roots += dur;
    } else if (spans_[s.parent].parent == kNoParent &&
               root == spans_[s.parent].name) {
      children += dur;
    }
  }
  return roots > 0.0 ? children / roots : 0.0;
}

void SpanLog::ReportShares(std::string_view root, RunReport* report) const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  double total = 0.0;
  std::map<std::string, double> self_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (root != spans_[s.root].name) continue;
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    if (s.parent == kNoParent) {
      total += dur;
    } else {
      self_ns[s.name] += dur - child_ns[i];
    }
  }
  for (const auto& [name, ns] : self_ns) {
    report->Metric(name + "_share", total > 0.0 ? ns / total : 0.0, "share");
  }
}

bool SpanLog::WriteJson(const std::string& path, const Options& opt,
                        std::size_t max_spans) const {
  platod2gl::bench::JsonRecords out("pd2gl_e2e spans: " + opt.workload +
                                    ", seed " + std::to_string(opt.seed));
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  const auto since_base = [base](std::int64_t ns) {
    return static_cast<std::uint64_t>(std::max<std::int64_t>(0, ns - base));
  };
  for (std::size_t i = 0; i < std::min(max_spans, spans_.size()); ++i) {
    const Span& s = spans_[i];
    out.Rec()
        .Num("id", static_cast<std::uint64_t>(i))
        .Str("name", s.name)
        .Num("unit", s.unit)
        .Num("start_ns", since_base(s.start_ns))
        .Num("end_ns", since_base(s.end_ns));
    if (s.parent != kNoParent) {
      out.Num("parent", static_cast<std::uint64_t>(s.parent));
    }
  }
  return out.WriteFile(path);
}

// --- Inputs ---------------------------------------------------------------

std::vector<Edge> OgbnMiniEdges() {
  platod2gl::RmatParams p;
  p.scale = 17;
  p.num_edges = 1250000;
  p.seed = 101;
  std::vector<Edge> edges = platod2gl::GenerateRmat(p);
  platod2gl::MakeBidirected(&edges);
  platod2gl::DedupEdges(&edges);
  return edges;
}

std::vector<Edge> RedditMiniEdges() {
  platod2gl::RmatParams p;
  p.scale = 14;
  p.num_edges = 2000000;
  p.a = 0.45;
  p.b = 0.22;
  p.c = 0.22;
  p.d = 0.11;
  p.seed = 202;
  std::vector<Edge> edges = platod2gl::GenerateRmat(p);
  platod2gl::MakeBidirected(&edges);
  platod2gl::DedupEdges(&edges);
  return edges;
}

const EdgeUpdate& UpdateSource::Next() {
  if (pos_ == chunk_.size()) {
    const std::uint64_t chunk_seed =
        platod2gl::SplitMix64(seed_ ^ (++chunks_ * 0x9E3779B97F4A7C15ULL))
            .Next();
    chunk_ = platod2gl::MakeUpdateStream(*base_, {.num_ops = 1 << 16,
                                                  .insert_fraction = 0.6,
                                                  .update_fraction = 0.3,
                                                  .seed = chunk_seed});
    pos_ = 0;
  }
  return chunk_[pos_++];
}

std::vector<VertexId> SourcesOf(const std::vector<Edge>& edges) {
  std::vector<VertexId> out;
  out.reserve(edges.size());
  for (const Edge& e : edges) out.push_back(e.src);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::unique_ptr<GraphCluster> LoadCluster(const std::vector<Edge>& edges,
                                          std::size_t replicas,
                                          bool sample_cache,
                                          RunReport* report) {
  ClusterConfig config;
  config.num_shards = kShards;
  config.num_client_threads = kClientThreads;
  config.rpc_latency_us = 0;  // every number is measured, none modelled
  config.replication.num_replicas = replicas;
  config.shard_config.sample_cache.enabled = sample_cache;
  auto cluster = std::make_unique<GraphCluster>(config);
  constexpr std::size_t kLoadBatch = 1 << 16;
  std::vector<EdgeUpdate> batch;
  batch.reserve(kLoadBatch);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    batch.push_back(EdgeUpdate{UpdateKind::kInsert, edges[i]});
    if (batch.size() == kLoadBatch || i + 1 == edges.size()) {
      const platod2gl::Status s = cluster->ApplyBatch(batch);
      report->Require(s.ok(), "load: " + s.ToString());
      batch.clear();
    }
  }
  report->Require(cluster->NumEdges() == edges.size(),
                  "load: cluster holds " + std::to_string(cluster->NumEdges()) +
                      " edges, expected " + std::to_string(edges.size()));
  return cluster;
}

// --- Registry tallies -----------------------------------------------------

CacheTallies ReadCacheTallies(const platod2gl::obs::RegistrySnapshot& snap) {
  CacheTallies t;
  t.hits = snap.SumAcrossLabels("pd2gl_sample_cache_hits");
  t.misses = snap.SumAcrossLabels("pd2gl_sample_cache_misses");
  t.stale_hits = snap.SumAcrossLabels("pd2gl_sample_cache_stale_hits");
  t.rebuilds = snap.SumAcrossLabels("pd2gl_sample_cache_rebuilds");
  t.admissions = snap.SumAcrossLabels("pd2gl_sample_cache_admissions");
  return t;
}

ClusterTallies ReadClusterTallies(const GraphCluster& cluster) {
  const platod2gl::obs::RegistrySnapshot snap = cluster.metrics().Snapshot();
  ClusterTallies t;
  t.rpcs = snap.Value("pd2gl_cluster_rpcs");
  t.bytes = snap.Value("pd2gl_cluster_bytes_sent") +
            snap.Value("pd2gl_cluster_bytes_received");
  t.retries = snap.Value("pd2gl_cluster_retries");
  t.degraded_seeds = snap.Value("pd2gl_cluster_degraded_seeds");
  for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
    t.shard_seeds.push_back(snap.Value("pd2gl_shard_sample_seeds",
                                       {{"shard", std::to_string(s)}}));
  }
  t.cache = ReadCacheTallies(snap);
  return t;
}

CacheTallies operator-(const CacheTallies& a, const CacheTallies& b) {
  return CacheTallies{a.hits - b.hits, a.misses - b.misses,
                      a.stale_hits - b.stale_hits, a.rebuilds - b.rebuilds,
                      a.admissions - b.admissions};
}

ClusterTallies operator-(const ClusterTallies& a, const ClusterTallies& b) {
  ClusterTallies d;
  d.rpcs = a.rpcs - b.rpcs;
  d.bytes = a.bytes - b.bytes;
  d.retries = a.retries - b.retries;
  d.degraded_seeds = a.degraded_seeds - b.degraded_seeds;
  for (std::size_t s = 0; s < a.shard_seeds.size(); ++s) {
    d.shard_seeds.push_back(a.shard_seeds[s] - b.shard_seeds[s]);
  }
  d.cache = a.cache - b.cache;
  return d;
}

// --- Metric groups --------------------------------------------------------

std::vector<const GraphStore*> StoresOf(const GraphCluster& cluster) {
  std::vector<const GraphStore*> stores;
  for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
    stores.push_back(&cluster.shard(s).store());
  }
  return stores;
}

void ReportMemory(const Options& opt,
                  const std::vector<const GraphStore*>& stores,
                  double load_edges_per_s, RunReport* report) {
  MemoryBreakdown mem;
  double edges = 0.0;
  for (const GraphStore* store : stores) {
    const MemoryBreakdown m = store->TopologyMemory();
    mem.topology_bytes += m.topology_bytes;
    mem.index_bytes += m.index_bytes;
    mem.key_bytes += m.key_bytes;
    mem.other_bytes += m.other_bytes;
    edges += static_cast<double>(store->NumEdges());
  }
  const auto per_edge = [&](std::size_t bytes) {
    return edges > 0.0 ? static_cast<double>(bytes) / edges : 0.0;
  };
  if (!opt.traced()) {
    report->Metric("mem_bytes_per_edge", per_edge(mem.Total()), "B");
    return;
  }
  report->Metric("storage.topology_bytes_per_edge",
                 per_edge(mem.topology_bytes), "B");
  report->Metric("storage.index_bytes_per_edge", per_edge(mem.index_bytes),
                 "B");
  report->Metric("storage.key_bytes_per_edge", per_edge(mem.key_bytes), "B");
  report->Metric("storage.other_bytes_per_edge", per_edge(mem.other_bytes),
                 "B");
  report->Metric("storage.load_edges_per_s", load_edges_per_s, "1/s");
}

void ReportCache(const CacheTallies& delta,
                 const std::vector<const GraphStore*>& stores,
                 RunReport* report) {
  const double lookups =
      static_cast<double>(delta.hits + delta.misses + delta.stale_hits);
  const auto ratio = [&](std::uint64_t n) {
    return lookups > 0.0 ? static_cast<double>(n) / lookups : 0.0;
  };
  double bytes = 0.0;
  for (const GraphStore* store : stores) {
    if (store->sample_cache() != nullptr) {
      bytes += static_cast<double>(store->sample_cache()->MemoryUsage());
    }
  }
  report->Metric("sampling.cache_hit_ratio", ratio(delta.hits), "ratio");
  report->Metric("sampling.cache_stale_ratio", ratio(delta.stale_hits),
                 "ratio");
  report->Metric("sampling.cache_rebuilds",
                 static_cast<double>(delta.rebuilds), "count");
  report->Metric("sampling.cache_admissions",
                 static_cast<double>(delta.admissions), "count");
  report->Metric("sampling.cache_bytes", bytes, "B");
}

void ReportDist(const ClusterTallies& delta, double units,
                RunReport* report) {
  const auto per_unit = [&](std::uint64_t n) {
    return units > 0.0 ? static_cast<double>(n) / units : 0.0;
  };
  double max_seeds = 0.0;
  double sum_seeds = 0.0;
  for (std::uint64_t s : delta.shard_seeds) {
    max_seeds = std::max(max_seeds, static_cast<double>(s));
    sum_seeds += static_cast<double>(s);
  }
  const double mean_seeds =
      delta.shard_seeds.empty()
          ? 0.0
          : sum_seeds / static_cast<double>(delta.shard_seeds.size());
  report->Metric("dist.rpcs_per_unit", per_unit(delta.rpcs), "count");
  report->Metric("dist.bytes_per_unit", per_unit(delta.bytes), "B");
  report->Metric("dist.shard_imbalance",
                 mean_seeds > 0.0 ? max_seeds / mean_seeds : 0.0, "ratio");
  report->Metric("dist.retries", static_cast<double>(delta.retries), "count");
  report->Metric("dist.degraded_seeds",
                 static_cast<double>(delta.degraded_seeds), "count");
}

}  // namespace pd2gl_e2e
