// Shared pieces of pd2gl_e2e, the end-to-end benchmark: run options, the
// report the program prints, the in-memory span log of a traced run,
// input generation, and the registry tallies per-layer metrics are cut
// from.
//
// Everything here measures the library from outside: wall and CPU clocks
// are read around calls into public functions, and counters are deltas of
// registry snapshots.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/types.h"
#include "dist/cluster.h"
#include "obs/metrics.h"
#include "storage/graph_store.h"

namespace pd2gl_e2e {

using platod2gl::Edge;
using platod2gl::EdgeUpdate;
using platod2gl::GraphCluster;
using platod2gl::GraphStore;
using platod2gl::VertexId;

class RunReport;

/// Threads one process may run, load generators included.
inline constexpr std::size_t kMaxThreads = 4;
/// Shape of every cluster workload: 4 shards fanned out on 2 client
/// threads beside the main thread.
inline constexpr std::size_t kShards = 4;
inline constexpr std::size_t kClientThreads = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double duration_s = 20.0;
  /// Where a traced run writes its spans; empty for an untraced run.
  std::string trace_file;

  bool traced() const { return !trace_file.empty(); }
  /// Set-ups per run: setup_s is the median of three; a traced run
  /// reports no setup_s and sets up once.
  int setup_reps() const { return traced() ? 1 : 3; }
};

/// Monotonic wall clock in nanoseconds.
std::int64_t NowNs();
/// CPU time of this process, every thread, in nanoseconds. Read around a
/// call that fans out to the cluster's client threads, it counts their
/// work too; a thread that waits asleep adds nothing.
std::int64_t CpuNs();

/// Linear-interpolated percentile (pct in [0, 100]); 0 for no samples.
double Percentile(std::vector<double> v, double pct);

/// A measured value stamped with when it happened.
struct Sample {
  std::int64_t t_ns;
  double value;
};

/// A measured phase is cut into equal windows by time stamp, and a
/// windowed statistic is the median of its per-window values: a host
/// stall then moves one window, not the run's result.
inline constexpr std::size_t kWindows = 20;

/// Per-window values of the samples stamped in [start_ns, end_ns).
std::vector<std::vector<double>> SplitWindows(
    const std::vector<Sample>& samples, std::int64_t start_ns,
    std::int64_t end_ns, std::size_t windows = kWindows);

/// Median over the windows of sum(num) / sum(den), skipping windows
/// where den sums to 0.
double MedianRatioOverWindows(const std::vector<Sample>& num,
                              const std::vector<Sample>& den,
                              std::int64_t start_ns, std::int64_t end_ns);

/// What one measured phase of a workload did, for the metrics every
/// workload reports. A unit is the workload's unit of work: a mini-batch,
/// a training step, a request, an update.
struct PhaseCost {
  /// CPU microseconds spent in the library's calls, and the units they
  /// completed, both stamped when the calls returned.
  std::vector<Sample> cpu_us;
  std::vector<Sample> units;
  /// Wall time of single units, where a unit has one.
  std::vector<double> unit_ms;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  /// cpu_us_per_op: median over windows of CPU time / units.
  double CpuUsPerUnit() const {
    return MedianRatioOverWindows(cpu_us, units, start_ns, end_ns);
  }
  /// Units per wall second of the phase.
  double UnitsPerSecond() const;
};

/// A traced run alternates untraced (false) and traced (true) slices of a
/// quarter of the duration each, ABBA, so state that drifts through the
/// run (a growing log, a warming cache) biases neither side of
/// trace.overhead_ratio.
inline constexpr bool kTraceSlices[] = {false, true, true, false};

/// The end-to-end metrics of an untraced phase: cpu_us_per_op.
void ReportEndToEnd(const PhaseCost& phase, RunReport* report);
/// The wall-clock per-layer metrics, from a traced run's untraced
/// slices: wall.unit_ms_p50/p99 (where units are timed one by one) and
/// wall.units_per_s. trace.overhead_ratio compares the CPU time per unit
/// of the traced slices with the untraced ones.
void ReportWallAndOverhead(const std::vector<PhaseCost>& plain,
                           const std::vector<PhaseCost>& traced,
                           RunReport* report);

/// Resident set size of this process, bytes (/proc/self/statm).
double ResidentBytes();
/// Resident growth since `base` bytes, in MB, after returning free heap
/// pages to the kernel.
double ResidentGrowthMb(double base);
/// Threads of this process right now (/proc/self/status).
std::size_t ThreadCount();
/// Give freed heap back to the kernel so resident growth is comparable
/// across repeated set-ups.
void TrimHeap();

/// What one run found: metrics by name and unit, operation counts, and
/// every output-check violation.
class RunReport {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Record an output-check violation; the run is then incorrect.
  void Violation(const std::string& what);
  /// Record a violation unless `ok`; returns `ok`.
  bool Require(bool ok, const std::string& what) {
    if (!ok) Violation(what);
    return ok;
  }

  bool correct() const { return violations_ == 0; }
  /// Prints the report to stdout, one `key value...` line per item:
  /// `provenance KEY VALUE`, `attempted N`, `failed N`, `violations N`,
  /// `violation TEXT` and `metric NAME VALUE UNIT`. run.py turns these
  /// lines into the JSON record.
  void Print(const Options& opt) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::vector<std::tuple<std::string, double, std::string>> metrics_;
  std::vector<std::string> messages_;  // the first few violations
  std::uint64_t violations_ = 0;
};

/// Spans of a traced run, kept in memory and written as JSON at exit.
/// A span's self time is its duration minus its direct children's; a
/// root span is one unit of work (a batch, a request, an update).
class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  std::uint32_t Open(const char* name, std::uint32_t parent,
                     std::uint64_t unit, std::int64_t start_ns);
  void Close(std::uint32_t id, std::int64_t end_ns);
  std::uint32_t Add(const char* name, std::uint32_t parent,
                    std::uint64_t unit, std::int64_t start_ns,
                    std::int64_t end_ns) {
    const std::uint32_t id = Open(name, parent, unit, start_ns);
    Close(id, end_ns);
    return id;
  }
  /// Direct-children time over root time, summed over roots `root`.
  double Coverage(std::string_view root) const;
  /// Emit `<span>_share` for every span under roots named `root`: its
  /// self time over the roots' total time. The shares and the roots'
  /// own self share sum to 1.
  void ReportShares(std::string_view root, RunReport* report) const;

  /// Writes the first `max_spans` spans to `path` as JsonRecords, times
  /// in ns since the first span started; false on an I/O failure.
  bool WriteJson(const std::string& path, const Options& opt,
                 std::size_t max_spans) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint32_t root;
    std::uint64_t unit;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Span> spans_;
};

// --- Inputs -------------------------------------------------------------

/// ogbn-mini and reddit-mini exactly as src/gen/datasets.cc builds them,
/// with the parameters passed explicitly so PLATOD2GL_SCALE cannot resize
/// them. The graphs are fixed; a run's seed drives its traffic (mini-batch
/// order, requests, updates), so runs differ in what they ask, not in the
/// graph they ask it of.
std::vector<Edge> OgbnMiniEdges();
std::vector<Edge> RedditMiniEdges();

/// Distinct source vertices of `edges`, ascending.
std::vector<VertexId> SourcesOf(const std::vector<Edge>& edges);

/// An endless 60/30/10 insert/update/delete stream over `base`, made by
/// MakeUpdateStream in seeded chunks of 65,536 updates.
class UpdateSource {
 public:
  UpdateSource(const std::vector<Edge>* base, std::uint64_t seed)
      : base_(base), seed_(seed) {}

  const EdgeUpdate& Next();

 private:
  const std::vector<Edge>* base_;
  std::uint64_t seed_;
  std::uint64_t chunks_ = 0;
  std::vector<EdgeUpdate> chunk_;
  std::size_t pos_ = 0;
};

/// A 4-shard cluster with no modelled RPC cost, loaded with `edges`
/// through ApplyBatch (the WAL-backed write path replicas ship from).
std::unique_ptr<GraphCluster> LoadCluster(const std::vector<Edge>& edges,
                                          std::size_t replicas,
                                          bool sample_cache,
                                          RunReport* report);

/// Runs `setup` opt.setup_reps() times, keeping the last result: reports
/// the median of its CPU seconds as setup_s and returns the resident size
/// measured right before the kept set-up (the base of process.rss_mb).
template <typename State, typename Setup>
std::unique_ptr<State> TimedSetup(const Options& opt, RunReport* report,
                                  double* rss_base, Setup&& setup) {
  std::unique_ptr<State> state;
  std::vector<double> secs;
  for (int rep = 0; rep < opt.setup_reps(); ++rep) {
    state.reset();
    TrimHeap();
    *rss_base = ResidentBytes();
    const std::int64_t c0 = CpuNs();
    state = setup();
    secs.push_back(static_cast<double>(CpuNs() - c0) / 1e9);
  }
  if (!opt.traced()) report->Metric("setup_s", Percentile(secs, 50), "s");
  return state;
}

// --- Registry tallies ---------------------------------------------------

struct CacheTallies {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stale_hits = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t admissions = 0;
};

struct ClusterTallies {
  std::uint64_t rpcs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t retries = 0;
  std::uint64_t degraded_seeds = 0;
  std::vector<std::uint64_t> shard_seeds;
  CacheTallies cache;
};

/// pd2gl_sample_cache_* summed over every shard label.
CacheTallies ReadCacheTallies(const platod2gl::obs::RegistrySnapshot& snap);
ClusterTallies ReadClusterTallies(const GraphCluster& cluster);
CacheTallies operator-(const CacheTallies& a, const CacheTallies& b);
ClusterTallies operator-(const ClusterTallies& a, const ClusterTallies& b);

// --- Metric groups shared by several workloads --------------------------

/// mem_bytes_per_edge (end to end) or the storage.* breakdown (traced).
void ReportMemory(const Options& opt,
                  const std::vector<const GraphStore*>& stores,
                  double load_edges_per_s, RunReport* report);
/// sampling.* from a cache delta and the caches' current footprint.
void ReportCache(const CacheTallies& delta,
                 const std::vector<const GraphStore*>& stores,
                 RunReport* report);
/// dist.* from a cluster delta over `units` units of work.
void ReportDist(const ClusterTallies& delta, double units, RunReport* report);

/// The shard stores of a cluster.
std::vector<const GraphStore*> StoresOf(const GraphCluster& cluster);

// --- Workloads ----------------------------------------------------------

void RunTrainKhop(const Options& opt, RunReport* report);
void RunTrainChurn(const Options& opt, RunReport* report);
void RunServeZipf(const Options& opt, RunReport* report);
void RunIngestPipeline(const Options& opt, RunReport* report);

}  // namespace pd2gl_e2e
