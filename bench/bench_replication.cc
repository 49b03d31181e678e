// Robustness bench: ingest throughput as the per-shard replica count
// scales (docs/replication.md).
//
// One writer streams update batches through GraphCluster::ApplyBatch,
// which ships the new WAL entries to every replica inline before it
// returns. On a fault-free channel every replica is therefore caught up
// whenever ApplyBatch returns, so there is no staleness to report.
//
// Accounting: this is a shared-host simulation of a distributed system,
// so the replicas' own apply work (decode + store apply, metered as
// replica_apply_nanos on a thread-CPU clock) burns cycles that in a
// deployment belong to *other machines*. The primary-side throughput —
// what the gate protects — is therefore priced as
//     updates / (process CPU - replica apply CPU),
// which charges the ingest path for everything replication adds on the
// primary (WAL window copies, encoding, fault draws, lock waits) but
// not for remote apply. Wall-clock throughput is reported alongside for
// transparency; it degrades with replica count by construction, because
// the replicas' apply runs on the writer's thread.
//
// The replica counts run interleaved (0, 1, 2, 0, 1, 2, ...), so slow
// drift of a shared host lands on every count alike. Results (medians,
// with the quartiles of the primary-side rate) land in
// BENCH_replication.json, and the process exits non-zero if the median
// first-replica run costs more than 15% of the median replication-disabled
// primary-side throughput.
#include <algorithm>
#include <ctime>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "dist/cluster.h"

using namespace platod2gl;
using namespace platod2gl::bench;

namespace {

constexpr std::size_t kVertices = 4000;
// Few large batches: each ApplyBatch makes one ship round per shard,
// and a round's fixed costs (watermark reads, the ack, the fault draws)
// are paid per batch, not per update. Streaming ingest batches are this
// coarse in the paper's pipeline anyway.
constexpr std::size_t kBatches = 80;
constexpr std::size_t kBatchSize = 5000;
constexpr double kMaxOneReplicaLoss = 0.15;
// Interleaved runs per replica count. The gate compares two medians, so
// their spread must sit well inside the 15% floor: with 31 runs of 400k
// updates, 30 bench runs on a 4-vCPU host put the gated ratio at
// 0.899-0.970 (median 0.929) against the 0.85 floor.
constexpr int kRepetitions = 31;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct RunResult {
  double wall_secs = 0.0;
  double primary_cpu_secs = 0.0;  ///< process CPU minus replica apply CPU
  double replica_apply_secs = 0.0;
  std::uint64_t bytes_shipped = 0;
  std::uint64_t entries_applied = 0;
  std::uint64_t retransmits = 0;
};

RunResult RunIngest(std::size_t replicas) {
  ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.replication.num_replicas = replicas;
  // Chunks sized for throughput: the test default (64) is tuned for
  // fault-interleaving coverage, not for a fault-free bulk stream.
  cfg.replication.max_entries_per_append = 256;
  GraphCluster cluster(cfg);

  Xoshiro256 rng(11);
  const double cpu0 = ProcessCpuSeconds();
  Timer timer;
  for (std::size_t b = 0; b < kBatches; ++b) {
    std::vector<EdgeUpdate> batch;
    batch.reserve(kBatchSize);
    for (std::size_t i = 0; i < kBatchSize; ++i) {
      EdgeUpdate u;
      const std::uint64_t roll = rng.NextUint64(10);
      u.kind = roll < 7   ? UpdateKind::kInsert
               : roll < 9 ? UpdateKind::kInPlaceUpdate
                          : UpdateKind::kDelete;
      u.edge = {rng.NextUint64(kVertices), rng.NextUint64(kVertices),
                1.0 + static_cast<double>(rng.NextUint64(100)), 0};
      batch.push_back(u);
    }
    (void)cluster.ApplyBatch(batch);
  }
  RunResult r;
  if (replicas > 0 && !cluster.FlushReplication().ok()) {
    std::fprintf(stderr, "replicas failed to converge after ingest\n");
    std::exit(1);
  }
  r.wall_secs = timer.ElapsedSeconds();
  const double cpu = ProcessCpuSeconds() - cpu0;

  if (replicas > 0) {
    // Read through the cluster's metric registry — the same page `pd2gl
    // metrics` exports — so the JSON the perf trajectory tracks is the
    // exported series, not a parallel bookkeeping path.
    const obs::RegistrySnapshot snap = cluster.metrics().Snapshot();
    r.replica_apply_secs =
        static_cast<double>(
            snap.Value("pd2gl_replication_replica_apply_nanos")) *
        1e-9;
    r.primary_cpu_secs = cpu - r.replica_apply_secs;
    r.bytes_shipped = snap.Value("pd2gl_replication_bytes_shipped");
    r.entries_applied = snap.Value("pd2gl_replication_entries_applied");
    r.retransmits = snap.Value("pd2gl_replication_rejected_appends") +
                    snap.Value("pd2gl_replication_duplicate_entries");
  } else {
    r.primary_cpu_secs = cpu;
  }
  return r;
}

}  // namespace

int main() {
  std::printf("=== Robustness: replication throughput ===\n\n");
  std::printf(
      "%zu updates over %zu shards, inline WAL shipping, fault-free; median "
      "of %d interleaved runs per replica count\n\n",
      kBatches * kBatchSize, static_cast<std::size_t>(4), kRepetitions);
  std::printf("%-9s %13s %23s %12s %14s %12s\n", "replicas",
              "primary-ups/s", "[p25, p75]", "wall-ups/s", "bytes shipped",
              "retransmits");
  PrintRule();

  const std::vector<std::size_t> replica_counts = {0, 1, 2};
  std::vector<std::vector<RunResult>> runs(replica_counts.size());
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (std::size_t i = 0; i < replica_counts.size(); ++i) {
      runs[i].push_back(RunIngest(replica_counts[i]));
    }
  }

  JsonRecords json("replication");
  const std::size_t total = kBatches * kBatchSize;
  std::vector<double> median_rate;
  for (std::size_t i = 0; i < replica_counts.size(); ++i) {
    std::vector<RunResult>& rs = runs[i];
    std::sort(rs.begin(), rs.end(), [](const RunResult& a, const RunResult& b) {
      return a.primary_cpu_secs < b.primary_cpu_secs;
    });
    // The median run is reported whole; the rate is updates per CPU
    // second, so the faster CPU quartile is the upper rate quartile.
    const RunResult& r = rs[rs.size() / 2];
    const auto rate_of = [&](const RunResult& x) {
      return static_cast<double>(total) / x.primary_cpu_secs;
    };
    const double rate = rate_of(r);
    const double rate_p25 = rate_of(rs[rs.size() - 1 - rs.size() / 4]);
    const double rate_p75 = rate_of(rs[rs.size() / 4]);
    const double wall_rate = static_cast<double>(total) / r.wall_secs;
    median_rate.push_back(rate);
    std::printf("%-9zu %13.0f [%10.0f, %10.0f] %12.0f %14llu %12llu\n",
                replica_counts[i], rate, rate_p25, rate_p75, wall_rate,
                (unsigned long long)r.bytes_shipped,
                (unsigned long long)r.retransmits);
    json.Rec()
        .Num("replicas", static_cast<std::uint64_t>(replica_counts[i]))
        .Num("updates", static_cast<std::uint64_t>(total))
        .Num("repetitions", static_cast<std::uint64_t>(kRepetitions))
        .Num("updates_per_sec", rate)
        .Num("updates_per_sec_p25", rate_p25)
        .Num("updates_per_sec_p75", rate_p75)
        .Num("wall_updates_per_sec", wall_rate)
        .Num("replica_apply_secs", r.replica_apply_secs)
        .Num("bytes_shipped", r.bytes_shipped)
        .Num("entries_applied", r.entries_applied)
        .Num("retransmits", r.retransmits);
  }
  PrintRule();

  if (json.WriteFile("BENCH_replication.json")) {
    std::printf("wrote BENCH_replication.json\n");
  } else {
    std::fprintf(stderr, "failed to write BENCH_replication.json\n");
  }

  // Regression gate, on medians: the first replica must cost the primary
  // <= 15%.
  const double rate0 = median_rate[0];
  const double rate1 = median_rate[1];
  const double floor = (1.0 - kMaxOneReplicaLoss) * rate0;
  if (rate1 < floor) {
    std::fprintf(stderr,
                 "FAIL: median 1-replica primary-side throughput %.0f/s is "
                 "below %.0f/s (>%.0f%% drop vs the median replication-off "
                 "run at %.0f/s)\n",
                 rate1, floor, kMaxOneReplicaLoss * 100.0, rate0);
    return 1;
  }
  std::printf("gate ok: median 1-replica primary-side rate is %.3f of the "
              "replication-off median (floor %.2f)\n",
              rate1 / rate0, 1.0 - kMaxOneReplicaLoss);
  return 0;
}
