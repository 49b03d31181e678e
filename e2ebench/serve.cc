// serve-zipf: online inference through GraphServer, replaying a fixed
// arrival schedule as fast as the server takes it.
//
// A 4-shard cluster holds reddit-mini (dense: most vertices clear the
// sample cache's degree gate and fit its capacity) with 16-float vertex
// features. The schedule is a Poisson process at 64,000 req/s from 4
// tenants (Zipf 0.6); each request carries 2-7 Zipf(0.99) seeds over
// degree-ranked vertices and one of bench_serve_slo's plans (70% 2-hop
// sample, 20% sample + gather, 10% sample + negatives). Admission rejects
// past a 512 window / 256 quota; batches form at 32 requests or 400 us.
//
// The server's clock is the schedule: a request is submitted at its
// arrival time, and every batch deadline that falls before the next
// arrival is pumped at that deadline. With the cluster's modelled RPC cost
// at 0, a batch completes when it is dispatched, so the batches, their
// members and every admission decision are a function of the seed alone.
// What the run measures is the CPU and wall time the server spends on
// them. A unit is a request.
//
// At 64,000 req/s about 26 requests arrive in a batch window, so most
// batches leave full. At 8,000 req/s they hold a few, and each request
// pays a larger share of a cluster round's hand-off to the client
// threads. On a shared virtual machine the CPU time of those hand-offs
// swung: over eight alternating runs of each, the cost per request ranged
// over 73-112 us at 8,000 req/s and over 76-81 us at 64,000 req/s.
#include <cmath>
#include <unordered_map>

#include "common/random.h"
#include "e2e.h"
#include "gen/generators.h"
#include "pipeline/epoch_coordinator.h"
#include "serve/query_plan.h"
#include "serve/server.h"

namespace pd2gl_e2e {
namespace {

using platod2gl::EpochCoordinator;
using platod2gl::SplitMix64;
using platod2gl::Status;
using platod2gl::StatusCode;
using platod2gl::Xoshiro256;
using platod2gl::ZipfSampler;
using platod2gl::serve::GraphServer;
using platod2gl::serve::QueryRequest;
using platod2gl::serve::QueryResponse;
using platod2gl::serve::RequestStatus;
using platod2gl::serve::ServeConfig;
using platod2gl::serve::StageOutput;

constexpr std::uint32_t kTenants = 4;
constexpr std::size_t kFeatureDim = 16;
constexpr VertexId kVertexSpace = VertexId{1} << 14;  // reddit-mini ids
constexpr double kScheduleRate = 64000.0;
/// Requests replayed in set-up: first-touch cache builds land here.
constexpr std::size_t kWarmupRequests = 8000;
// Plan mix (bench_serve_slo): fanouts and negative count.
constexpr std::uint32_t kHop1 = 10;
constexpr std::uint32_t kHop2 = 5;
constexpr std::uint32_t kNegatives = 32;

ServeConfig MakeServeConfig() {
  ServeConfig cfg;
  cfg.num_tenants = kTenants;
  cfg.admission.max_in_flight = 512;
  cfg.admission.tenant_quota = 256;
  cfg.admission.policy = platod2gl::serve::AdmissionPolicy::kReject;
  cfg.batcher.max_batch = 32;
  cfg.batcher.window_us = 400;
  return cfg;
}

enum class PlanKind : std::uint8_t { kTwoHop, kGather, kNegatives };

struct TimedRequest {
  std::uint64_t due_us = 0;  // on the schedule
  PlanKind kind = PlanKind::kTwoHop;
  QueryRequest req;
};

/// The arrival schedule, one request at a time.
class RequestGen {
 public:
  RequestGen(const std::vector<VertexId>* ranked, std::uint64_t seed)
      : ranked_(ranked),
        seed_zipf_(ranked->size(), 0.99),
        tenant_zipf_(kTenants, 0.6),
        rng_(seed),
        seed_(seed) {}

  TimedRequest Next() {
    clock_us_ += -1e6 / kScheduleRate * std::log(1.0 - rng_.NextDouble());
    TimedRequest tr;
    tr.due_us = static_cast<std::uint64_t>(clock_us_);
    QueryRequest& q = tr.req;
    q.tenant = static_cast<std::uint32_t>(tenant_zipf_.Sample(rng_));
    q.request_id = next_id_++;
    q.rng_seed =
        SplitMix64(seed_ ^ (q.request_id * 0x9E3779B97F4A7C15ULL)).Next();
    const std::size_t num_seeds = 2 + rng_.NextUint64(6);
    for (std::size_t s = 0; s < num_seeds; ++s) {
      q.seeds.push_back((*ranked_)[seed_zipf_.Sample(rng_)]);
    }
    const std::uint64_t mix = rng_.NextUint64(10);
    if (mix < 7) {
      tr.kind = PlanKind::kTwoHop;
      q.plan.Sample(kHop1).Sample(kHop2, true, 0);
    } else if (mix < 9) {
      tr.kind = PlanKind::kGather;
      q.plan.Sample(kHop1).Gather(0);
    } else {
      tr.kind = PlanKind::kNegatives;
      q.plan.Sample(kHop1).NegativeSample(kNegatives, 0, kVertexSpace);
    }
    return tr;
  }

 private:
  const std::vector<VertexId>* ranked_;
  ZipfSampler seed_zipf_;
  ZipfSampler tenant_zipf_;
  Xoshiro256 rng_;
  std::uint64_t seed_;
  std::uint64_t next_id_ = 0;
  double clock_us_ = 0.0;
};

/// Vertices by descending out-degree (ties by id): Zipf rank 0 is the
/// biggest neighbourhood, the realistic "popular vertices are big" shape.
std::vector<VertexId> RankByDegree(const std::vector<Edge>& edges) {
  std::vector<std::pair<std::size_t, VertexId>> deg;
  const std::vector<VertexId> sources = SourcesOf(edges);
  deg.reserve(sources.size());
  for (VertexId v : sources) deg.emplace_back(0, v);
  for (const Edge& e : edges) {
    const auto it = std::lower_bound(sources.begin(), sources.end(), e.src);
    ++deg[static_cast<std::size_t>(it - sources.begin())].first;
  }
  std::sort(deg.begin(), deg.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<VertexId> ranked;
  ranked.reserve(deg.size());
  for (const auto& [d, v] : deg) ranked.push_back(v);
  return ranked;
}

/// Checks one sample stage: one range per input vertex, each `fanout`
/// ids, or none for a vertex without out-edges.
void CheckSampleStage(const GraphCluster& cluster, const StageOutput& stage,
                      const std::vector<VertexId>& input, std::size_t fanout,
                      RunReport* report) {
  if (!report->Require(stage.offsets.size() == input.size() + 1 &&
                           stage.offsets.front() == 0 &&
                           stage.offsets.back() == stage.ids.size(),
                       "sample stage has malformed offsets")) {
    return;
  }
  for (std::size_t i = 0; i < input.size(); ++i) {
    const std::size_t n = stage.offsets[i + 1] - stage.offsets[i];
    if (n == 0 ? cluster.Degree(input[i]) != 0 : n != fanout) {
      report->Violation("sample stage drew " + std::to_string(n) +
                        " ids for vertex " + std::to_string(input[i]));
    }
  }
}

/// Every OK response has one stage per plan op and `fanout x input` ids
/// per sample stage (gather: one row per input id; negatives: the count).
void CheckResponse(const GraphCluster& cluster, const QueryResponse& resp,
                   PlanKind kind, const std::vector<VertexId>& seeds,
                   RunReport* report) {
  if (resp.status != RequestStatus::kOk) return;  // counted as failed
  if (!report->Require(resp.stages.size() == 2,
                       "response has " + std::to_string(resp.stages.size()) +
                           " stages for a 2-op plan")) {
    return;
  }
  const StageOutput& hop1 = resp.stages[0];
  CheckSampleStage(cluster, hop1, seeds, kHop1, report);
  const StageOutput& second = resp.stages[1];
  switch (kind) {
    case PlanKind::kTwoHop:
      CheckSampleStage(cluster, second, hop1.ids, kHop2, report);
      break;
    case PlanKind::kGather:
      report->Require(
          second.feature_dim == kFeatureDim &&
              second.features.size() == hop1.ids.size() * kFeatureDim,
          "gather stage has the wrong shape");
      break;
    case PlanKind::kNegatives:
      report->Require(second.ids.size() == kNegatives,
                      "negative stage has the wrong count");
      break;
  }
}

struct ReplayOutcome {
  PhaseCost cost;
  std::vector<double> pump_ms;  // Pump calls that dispatched a batch
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;  // degraded, shed, rejected or invalid
  std::size_t threads = 0;
  platod2gl::serve::ServeStats server;
};

/// What a replay keeps of a request to check its response.
struct Expected {
  PlanKind kind;
  std::vector<VertexId> seeds;
};

/// Replays the schedule on a fresh server for `seconds` of wall time, or
/// for `max_requests` requests. A request's step is everything its arrival
/// makes the server do: Pump at each batch deadline that falls before it,
/// Submit, Pump at its arrival (a batch that reached 32 leaves now), and
/// TakeCompleted. CPU and wall time cover those calls; the responses are
/// checked between steps. With `spans`, each step is a unit whose
/// children are those calls.
ReplayOutcome Replay(GraphCluster& cluster, RequestGen& gen, double seconds,
                     std::size_t max_requests, SpanLog* spans,
                     RunReport* report) {
  ReplayOutcome out;
  EpochCoordinator epochs;
  GraphServer server(&cluster, &epochs, MakeServeConfig());
  std::unordered_map<std::uint64_t, Expected> expected;
  std::uint64_t now_us = 0;

  const auto pump = [&](std::uint64_t at, std::uint32_t root,
                        std::uint64_t unit) {
    const std::int64_t p0 = NowNs();
    const std::size_t dispatched = server.Pump(at);
    const std::int64_t p1 = NowNs();
    if (dispatched > 0) {
      out.pump_ms.push_back(static_cast<double>(p1 - p0) / 1e6);
    }
    if (spans != nullptr) spans->Add("serve.pump", root, unit, p0, p1);
    return dispatched;
  };
  const auto take = [&](std::vector<QueryResponse>* done) {
    for (QueryResponse& resp : *done) {
      const auto it = expected.find(resp.request_id);
      if (!report->Require(it != expected.end(), "unexpected response")) {
        continue;
      }
      if (resp.status == RequestStatus::kOk) {
        ++out.ok;
      } else {
        ++out.failed;
      }
      CheckResponse(cluster, resp, it->second.kind, it->second.seeds, report);
      expected.erase(it);
    }
  };

  out.cost.start_ns = NowNs();
  out.cost.end_ns = out.cost.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  while (out.submitted < max_requests && NowNs() < out.cost.end_ns) {
    TimedRequest tr = gen.Next();
    const std::uint64_t unit = tr.req.request_id;
    expected.emplace(unit, Expected{tr.kind, tr.req.seeds});

    const std::int64_t c0 = CpuNs();
    const std::int64_t t0 = NowNs();
    const std::uint32_t root =
        spans != nullptr
            ? spans->Open("serve.step", SpanLog::kNoParent, unit, t0)
            : SpanLog::kNoParent;
    for (std::uint64_t due = server.batcher().NextDeadline(); due <= tr.due_us;
         due = server.batcher().NextDeadline()) {
      now_us = due;
      if (pump(now_us, root, unit) == 0) break;
    }
    now_us = tr.due_us;
    const std::int64_t s0 = NowNs();
    const Status s = server.Submit(std::move(tr.req), now_us);
    const std::int64_t s1 = NowNs();
    if (spans != nullptr) spans->Add("serve.submit", root, unit, s0, s1);
    pump(now_us, root, unit);
    const std::int64_t k0 = NowNs();
    std::vector<QueryResponse> done = server.TakeCompleted();
    const std::int64_t t1 = NowNs();
    const std::int64_t c1 = CpuNs();
    if (spans != nullptr) {
      spans->Add("serve.take", root, unit, k0, t1);
      spans->Close(root, t1);
    }

    out.cost.cpu_us.push_back({t1, static_cast<double>(c1 - c0) / 1e3});
    out.cost.units.push_back({t1, 1.0});
    ++out.submitted;
    if (!s.ok()) {
      ++out.failed;
      report->Require(s.code() == StatusCode::kResourceExhausted,
                      "Submit refused a valid request: " + s.ToString());
      expected.erase(unit);
    }
    take(&done);
  }
  out.threads = ThreadCount();
  server.Drain(now_us + server.config().batcher.window_us);
  std::vector<QueryResponse> rest = server.TakeCompleted();
  take(&rest);
  report->Require(expected.empty(), std::to_string(expected.size()) +
                                        " requests never completed");

  out.server = server.Stats();
  const platod2gl::serve::ServeStats& st = out.server;
  report->Require(st.submitted == out.submitted &&
                      st.submitted == st.ok + st.degraded + st.shed +
                                          st.rejected + st.invalid &&
                      st.ok == out.ok,
                  "serve counts do not add up: submitted " +
                      std::to_string(st.submitted) + ", ok " +
                      std::to_string(st.ok));
  return out;
}

struct ServeState {
  explicit ServeState(const std::vector<VertexId>* ranked, std::uint64_t seed)
      : gen(ranked, seed) {}

  std::unique_ptr<GraphCluster> cluster;
  RequestGen gen;
  double load_s = 0.0;
};

std::unique_ptr<ServeState> SetUpServe(const std::vector<Edge>& edges,
                                       const std::vector<VertexId>& ranked,
                                       std::uint64_t seed, RunReport* report) {
  auto st = std::make_unique<ServeState>(&ranked, seed);
  const std::int64_t t0 = NowNs();
  st->cluster = LoadCluster(edges, 0, true, report);
  for (VertexId v : ranked) {
    std::vector<float> row(kFeatureDim);
    for (std::size_t d = 0; d < kFeatureDim; ++d) {
      row[d] = static_cast<float>((v * 31 + d * 7) % 97) / 97.0f;
    }
    st->cluster->shard(st->cluster->partitioner().ShardOf(v))
        .store()
        .attributes()
        .SetFeatures(v, std::move(row));
  }
  st->load_s = static_cast<double>(NowNs() - t0) / 1e9;
  const ReplayOutcome warmup =
      Replay(*st->cluster, st->gen, 1e9, kWarmupRequests, nullptr, report);
  report->Require(warmup.failed == 0, "warm-up requests failed");
  return st;
}

}  // namespace

void RunServeZipf(const Options& opt, RunReport* report) {
  const std::vector<Edge> edges = RedditMiniEdges();
  const std::vector<VertexId> ranked = RankByDegree(edges);
  const std::uint64_t seed = SplitMix64(opt.seed ^ 0x5E4E).Next();

  double rss_base = 0.0;
  std::unique_ptr<ServeState> st = TimedSetup<ServeState>(
      opt, report, &rss_base,
      [&] { return SetUpServe(edges, ranked, seed, report); });
  GraphCluster& cluster = *st->cluster;
  ReportMemory(opt, StoresOf(cluster),
               static_cast<double>(edges.size()) / st->load_s, report);

  constexpr std::size_t kUnbounded = ~std::size_t{0};
  std::vector<ReplayOutcome> slices;
  if (!opt.traced()) {
    ReportEndToEnd(slices.emplace_back(Replay(cluster, st->gen, opt.duration_s,
                                              kUnbounded, nullptr, report))
                       .cost,
                   report);
  } else {
    SpanLog spans;
    std::vector<PhaseCost> plain;
    std::vector<PhaseCost> traced_costs;
    std::vector<double> pump_ms;
    // The traced slices are adjacent; counters are cut around the pair.
    ClusterTallies before;
    ClusterTallies after;
    platod2gl::serve::ServeStats served;
    double submitted = 0.0;
    bool started = false;
    for (const bool traced : kTraceSlices) {
      if (traced && !started) {
        started = true;
        before = ReadClusterTallies(cluster);
      }
      const ReplayOutcome& o = slices.emplace_back(
          Replay(cluster, st->gen, opt.duration_s / 4, kUnbounded,
                 traced ? &spans : nullptr, report));
      (traced ? traced_costs : plain).push_back(o.cost);
      if (!traced) {
        pump_ms.insert(pump_ms.end(), o.pump_ms.begin(), o.pump_ms.end());
        continue;
      }
      after = ReadClusterTallies(cluster);
      submitted += static_cast<double>(o.submitted);
      served.batches += o.server.batches;
      served.batched_requests += o.server.batched_requests;
      served.rpc_rounds += o.server.rpc_rounds;
      served.completed += o.server.completed;
    }

    spans.ReportShares("serve.step", report);
    // A step's children are separately timed calls; what they leave
    // uncovered is the replay's own bookkeeping.
    const double coverage = spans.Coverage("serve.step");
    report->Require(coverage >= 0.95 && coverage <= 1.05,
                    "children of serve.step cover " + std::to_string(coverage) +
                        " of it, outside [0.95, 1.05]");
    ReportWallAndOverhead(plain, traced_costs, report);
    report->Metric("serve.pump_ms_p50", Percentile(pump_ms, 50), "ms");
    report->Metric("serve.pump_ms_p99", Percentile(pump_ms, 99), "ms");
    const auto per = [](std::uint64_t a, std::uint64_t b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    report->Metric("serve.batch_size_mean",
                   per(served.batched_requests, served.batches), "count");
    report->Metric("serve.rounds_per_request",
                   per(served.rpc_rounds, served.completed), "ratio");
    const ClusterTallies delta = after - before;
    ReportDist(delta, submitted, report);
    ReportCache(delta.cache, StoresOf(cluster), report);
    report->Metric("process.rss_mb", ResidentGrowthMb(rss_base), "MB");
    report->Require(spans.WriteJson(opt.trace_file, opt, 20000),
                    "cannot write " + opt.trace_file);
  }
  for (const ReplayOutcome& o : slices) {
    report->attempted += o.submitted;
    report->failed += o.failed;
    report->Require(o.threads <= kMaxThreads,
                    std::to_string(o.threads) + " threads running");
  }
}

}  // namespace pd2gl_e2e
