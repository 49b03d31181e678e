// Online-serving SLO bench (docs/serving.md): an open-loop Zipf request
// mix from 4 tenants is replayed against GraphServer twice — once with
// cross-request batching enabled, once with max_batch=1 (the unbatched
// baseline) — at several arrival rates, while a concurrent ingest thread
// mutates the same cluster with >= 100k edge updates/s.
//
// Latencies are virtual-time: each batch occupies the serving pipeline
// for the executor's virtual cost (RPC rounds + compute), so queueing
// delay at saturation is modelled deterministically and the numbers are
// reproducible on any host. The unbatched baseline pays one full RPC
// round-trip per request; batching amortises that round across every
// coalesced request, which is exactly the effect the paper's serving
// layer exists to capture.
//
// Results land in BENCH_serve_slo.json. The process exits non-zero if
// batching does not beat the unbatched baseline on p99 latency at the
// highest arrival rate — that is the regression gate.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "dist/cluster.h"
#include "gen/generators.h"
#include "pipeline/epoch_coordinator.h"
#include "serve/query_plan.h"
#include "serve/server.h"

using namespace platod2gl;
using namespace platod2gl::bench;
using serve::GraphServer;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::ServeConfig;
using serve::ServeStats;

namespace {

constexpr std::size_t kVertices = 20000;
constexpr std::size_t kDegree = 8;
constexpr std::size_t kShards = 4;
constexpr std::uint32_t kTenants = 4;
constexpr std::size_t kRequestsPerRun = 20000;
constexpr std::uint64_t kIngestTargetPerSec = 100000;

void PopulateCluster(GraphCluster* cluster) {
  std::vector<EdgeUpdate> batch;
  batch.reserve(4096);
  for (VertexId v = 0; v < kVertices; ++v) {
    for (std::uint64_t k = 1; k <= kDegree; ++k) {
      batch.push_back({UpdateKind::kInsert,
                       Edge{v, (v * 131 + k * 7919) % kVertices,
                            1.0 + static_cast<double>(k), 0}});
      if (batch.size() == 4096) {
        (void)cluster->ApplyBatch(batch);
        batch.clear();
      }
    }
  }
  if (!batch.empty()) (void)cluster->ApplyBatch(batch);
  for (VertexId v = 0; v < kVertices; ++v) {
    const std::size_t s = cluster->partitioner().ShardOf(v);
    cluster->shard(s).store().attributes().SetFeatures(
        v, {static_cast<float>(v % 97), static_cast<float>(v % 31)});
  }
}

/// One pre-generated open-loop request: arrival time from exponential
/// inter-arrivals at `rate_per_sec`, Zipf tenant, Zipf seeds, a plan
/// drawn from the serving mix (2-hop sample / sample+gather /
/// link-prediction negatives).
struct TimedRequest {
  std::uint64_t arrival_us = 0;
  QueryRequest req;
};

std::vector<TimedRequest> MakeWorkload(double rate_per_sec,
                                       std::uint64_t seed) {
  const ZipfSampler seed_zipf(kVertices, 0.99);
  const ZipfSampler tenant_zipf(kTenants, 0.6);
  Xoshiro256 rng(seed);
  std::vector<TimedRequest> out;
  out.reserve(kRequestsPerRun);
  double clock_us = 0.0;
  const double mean_gap_us = 1e6 / rate_per_sec;
  for (std::size_t i = 0; i < kRequestsPerRun; ++i) {
    clock_us += -mean_gap_us * std::log(1.0 - rng.NextDouble());
    TimedRequest tr;
    tr.arrival_us = static_cast<std::uint64_t>(clock_us);
    tr.req.tenant = static_cast<std::uint32_t>(tenant_zipf.Sample(rng));
    tr.req.request_id = i;
    tr.req.rng_seed = SplitMix64(seed ^ (i * 0x9E3779B97F4A7C15ULL)).Next();
    const std::size_t num_seeds = 2 + rng.NextUint64(6);
    for (std::size_t s = 0; s < num_seeds; ++s) {
      tr.req.seeds.push_back(seed_zipf.Sample(rng));
    }
    const std::uint64_t mix = rng.NextUint64(10);
    if (mix < 7) {  // 2-hop neighbourhood
      tr.req.plan.Sample(10).Sample(5, true, 0);
    } else if (mix < 9) {  // 1-hop + feature gather
      tr.req.plan.Sample(10).Gather(0);
    } else {  // link-prediction negatives
      tr.req.plan.Sample(10).NegativeSample(32, 0, kVertices);
    }
    out.push_back(std::move(tr));
  }
  return out;
}

struct RunResult {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double served_per_virtual_sec = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;
  double mean_batch = 0.0;
  std::uint64_t rpc_rounds = 0;
  double ingest_per_sec = 0.0;
};

RunResult RunLoad(const std::vector<TimedRequest>& workload,
                  std::size_t max_batch) {
  GraphCluster cluster(ClusterConfig{.num_shards = kShards});
  PopulateCluster(&cluster);
  EpochCoordinator epochs;

  ServeConfig cfg;
  cfg.num_tenants = kTenants;
  cfg.admission.max_in_flight = 512;
  cfg.admission.tenant_quota = 256;
  cfg.admission.policy = serve::AdmissionPolicy::kShedOldest;
  cfg.batcher.max_batch = max_batch;
  cfg.batcher.window_us = max_batch > 1 ? 400 : 0;
  GraphServer server(&cluster, &epochs, cfg);

  // Concurrent ingest: full-rate edge churn through the cluster's real
  // update path while the serving loop runs. Wall-clock rate is
  // reported; the serving latencies themselves are virtual-time.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ingested{0};
  std::thread ingest([&] {
    Xoshiro256 irng(0xFEED);
    std::vector<EdgeUpdate> batch(512);
    // order: stop flag polled per batch; join() below synchronizes.
    while (!stop.load(std::memory_order_relaxed)) {
      for (EdgeUpdate& u : batch) {
        const VertexId src = irng.NextUint64(kVertices);
        const VertexId dst = irng.NextUint64(kVertices);
        u.kind = irng.NextUint64(4) == 0 ? UpdateKind::kDelete
                                         : UpdateKind::kInsert;
        u.edge = Edge{src, dst, 1.0, 0};
      }
      (void)cluster.ApplyBatch(batch);
      // order: stat tally, read for reporting only after join().
      ingested.fetch_add(batch.size(), std::memory_order_relaxed);
    }
  });

  Timer wall;
  for (const TimedRequest& tr : workload) {
    (void)server.Submit(tr.req, tr.arrival_us);
    server.Pump(tr.arrival_us);
  }
  const std::uint64_t end_us = workload.back().arrival_us + 1;
  server.Drain(end_us);
  const double wall_secs = wall.ElapsedSeconds();
  stop.store(true);
  ingest.join();

  // Read through the server's metric registry — the same page `pd2gl
  // metrics` exports — so the JSON the perf trajectory tracks is the
  // exported series, not a parallel bookkeeping path. The latency
  // percentiles come from the registered pd2gl_serve_latency_nanos
  // histogram for the same reason.
  const obs::RegistrySnapshot snap = server.metrics().Snapshot();
  const HistogramSnapshot lat = snap.Hist("pd2gl_serve_latency_nanos");
  RunResult r;
  r.p50_us = static_cast<double>(lat.PercentileNanos(50)) / 1e3;
  r.p99_us = static_cast<double>(lat.PercentileNanos(99)) / 1e3;
  r.completed = snap.Value("pd2gl_serve_completed");
  r.shed = snap.Value("pd2gl_serve_shed");
  r.rejected = snap.Value("pd2gl_serve_rejected");
  r.batches = snap.Value("pd2gl_serve_batches");
  r.mean_batch =
      r.batches == 0
          ? 0.0
          : static_cast<double>(snap.Value("pd2gl_serve_batched_requests")) /
                static_cast<double>(r.batches);
  r.rpc_rounds = snap.Value("pd2gl_serve_rpc_rounds");
  const double virtual_secs =
      static_cast<double>(server.busy_until_us()) / 1e6;
  r.served_per_virtual_sec =
      virtual_secs > 0.0
          ? static_cast<double>(r.completed - r.shed) / virtual_secs
          : 0.0;
  r.ingest_per_sec =
      wall_secs > 0.0
          ? static_cast<double>(ingested.load()) / wall_secs
          : 0.0;
  return r;
}

}  // namespace

int main() {
  std::printf("serve SLO bench: %zu requests, %u tenants (Zipf 0.6), "
              "Zipf(0.99) seeds over %zu vertices, %zu shards\n",
              kRequestsPerRun, kTenants, kVertices, kShards);
  std::printf("%-10s %-9s %10s %10s %10s %9s %9s %9s %11s %12s\n", "load(rps)",
              "mode", "p50(us)", "p99(us)", "served/s", "shed", "rejected",
              "batches", "mean-batch", "ingest/s");

  JsonRecords json("serve_slo");
  const std::vector<double> loads = {2000.0, 8000.0, 32000.0};
  double best_batched_p99 = 0.0;
  double best_unbatched_p99 = 0.0;
  bool ingest_ok = true;

  for (const double load : loads) {
    const auto workload =
        MakeWorkload(load, /*seed=*/0xD2610000 + (std::uint64_t)load);
    for (const std::size_t max_batch : {std::size_t{32}, std::size_t{1}}) {
      const char* mode = max_batch > 1 ? "batched" : "unbatched";
      const RunResult r = RunLoad(workload, max_batch);
      std::printf("%-10.0f %-9s %10.1f %10.1f %10.0f %9llu %9llu %9llu %11.1f "
                  "%12.0f\n",
                  load, mode, r.p50_us, r.p99_us, r.served_per_virtual_sec,
                  (unsigned long long)r.shed,
                  (unsigned long long)r.rejected,
                  (unsigned long long)r.batches, r.mean_batch,
                  r.ingest_per_sec);
      json.Rec()
          .Num("load_rps", load)
          .Str("mode", mode)
          .Num("p50_us", r.p50_us)
          .Num("p99_us", r.p99_us)
          .Num("served_per_virtual_sec", r.served_per_virtual_sec)
          .Num("completed", r.completed)
          .Num("shed", r.shed)
          .Num("rejected", r.rejected)
          .Num("batches", r.batches)
          .Num("mean_batch", r.mean_batch)
          .Num("rpc_rounds", r.rpc_rounds)
          .Num("ingest_updates_per_sec", r.ingest_per_sec);
      if (load == loads.back()) {
        (max_batch > 1 ? best_batched_p99 : best_unbatched_p99) = r.p99_us;
      }
      if (r.ingest_per_sec < static_cast<double>(kIngestTargetPerSec)) {
        ingest_ok = false;
      }
    }
  }

  if (json.WriteFile("BENCH_serve_slo.json")) {
    std::printf("wrote BENCH_serve_slo.json\n");
  } else {
    std::fprintf(stderr, "failed to write BENCH_serve_slo.json\n");
  }
  if (!ingest_ok) {
    // Host-dependent soft target: the virtual-time latency gate below is
    // what protects the serving layer; a slow shared host only means the
    // concurrent-churn condition was lighter than advertised.
    std::printf("note: concurrent ingest below %llu updates/s on this "
                "host\n",
                (unsigned long long)kIngestTargetPerSec);
  }

  // Regression gate: at the highest arrival rate, cross-request batching
  // must beat the unbatched baseline on p99.
  if (!(best_batched_p99 < best_unbatched_p99)) {
    std::fprintf(stderr,
                 "FAIL: batched p99 %.1fus does not beat unbatched p99 "
                 "%.1fus at %.0f req/s\n",
                 best_batched_p99, best_unbatched_p99, loads.back());
    return 1;
  }
  std::printf("gate ok: batched p99 %.1fus < unbatched p99 %.1fus at "
              "%.0f req/s\n",
              best_batched_p99, best_unbatched_p99, loads.back());
  return 0;
}
