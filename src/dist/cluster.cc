#include "dist/cluster.h"

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <string>
#include <utility>

#include "common/random.h"
#include "common/timer.h"
#include "dist/wire.h"

namespace platod2gl {

namespace {
/// Salt deriving the per-shard sampling RNG stream from the caller's seed.
/// Retries re-derive the same stream, so fault runs sample identically to
/// fault-free runs (tested in test_fault_tolerance.cc).
constexpr std::uint64_t kShardSeedSalt = 0xD1B54A32D192ED03ULL;

/// The value array of a flat reply: neighbour ids or feature values.
std::vector<VertexId>& Values(NeighborBatch& b) { return b.neighbors; }
std::vector<float>& Values(wire::FeatureBatch& b) { return b.values; }

/// Fallback of a round without replica reads: the shard's ids degrade.
constexpr auto kNoFallback = [](auto&&...) { return false; };

/// RunRpc's backoff schedule and timeout cost, in virtual microseconds:
/// the first retry waits kInitialBackoffUs (±25% jitter), each later one
/// kBackoffMultiplier times longer, capped at kMaxBackoffUs. An attempt
/// whose response never arrives costs kTimeoutUs.
constexpr std::uint64_t kInitialBackoffUs = 200;
constexpr std::uint64_t kBackoffMultiplier = 2;
constexpr std::uint64_t kMaxBackoffUs = 5000;
constexpr std::uint64_t kTimeoutUs = 2000;
}  // namespace

GraphCluster::GraphCluster(ClusterConfig config)
    : config_(config),
      partitioner_(config.num_shards),
      pool_(config.num_client_threads),
      injector_(config.fault, config.num_shards) {
#define PD2GL_REGISTER(name) \
  counters_.name = metrics_.RegisterCounter("pd2gl_cluster_" #name);
  PD2GL_CLUSTER_COUNTERS(PD2GL_REGISTER)
#undef PD2GL_REGISTER
  metrics_.RegisterExternalHistogram("pd2gl_cluster_rpc_compute_nanos", {},
                                     &rpc_latency_);

  shards_.reserve(partitioner_.num_shards());
  shard_seed_counters_.reserve(partitioner_.num_shards());
  shard_gather_counters_.reserve(partitioner_.num_shards());
  for (std::size_t i = 0; i < partitioner_.num_shards(); ++i) {
    shards_.push_back(std::make_unique<GraphShard>(config_.shard_config));
    const obs::Labels shard_label{{"shard", std::to_string(i)}};
    shard_seed_counters_.push_back(
        metrics_.RegisterCounter("pd2gl_shard_sample_seeds", shard_label));
    shard_gather_counters_.push_back(
        metrics_.RegisterCounter("pd2gl_shard_gather_ids", shard_label));
  }
  ExportShardCaches();
  if (config_.replication.num_replicas > 0) {
    std::vector<GraphShard*> primaries;
    primaries.reserve(shards_.size());
    for (auto& s : shards_) primaries.push_back(s.get());
    replication_ = std::make_unique<ReplicationManager>(
        config_.replication, config_.shard_config, std::move(primaries),
        &injector_, &cutover_, &metrics_);
  }
}

ClusterStats GraphCluster::stats() const {
  ClusterStats s;
#define PD2GL_FILL(name) s.name = counters_.name->Value();
  PD2GL_CLUSTER_COUNTERS(PD2GL_FILL)
#undef PD2GL_FILL
  return s;
}

void GraphCluster::ReplicationHealthCheck() {
  if (!replication_) return;
  const ReplicationManager::HealthReport health =
      replication_->AdvanceTime(counters_.virtual_network_us->Value());
  counters_.failovers->Add(health.failovers);
  counters_.failover_replayed->Add(health.replayed_entries);
  if (health.failovers > 0) ExportShardCaches();
}

void GraphCluster::ExportShardCaches() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (SampleCache* cache = shards_[i]->store().sample_cache()) {
      cache->RegisterWith(&metrics_, {{"shard", std::to_string(i)}});
    }
  }
}

void GraphCluster::ShipReplication() {
  if (!replication_) return;
  replication_->Kick();
  ReplicationHealthCheck();
}

void GraphCluster::AdvanceVirtualTime(std::uint64_t us) {
  counters_.virtual_network_us->Add(us);
  ReplicationHealthCheck();
}

Status GraphCluster::FlushReplication() {
  if (!replication_) return Status::Ok();
  return replication_->Flush();
}

ReplicationManager::AntiEntropyReport GraphCluster::RunAntiEntropy() {
  if (!replication_) return {};
  const ReplicationManager::AntiEntropyReport r =
      replication_->RunAntiEntropyAll();
  counters_.digest_rounds->Add(r.digest_rounds);
  counters_.digest_mismatches->Add(r.digest_mismatches);
  counters_.antientropy_repairs->Add(r.repaired_replicas);
  counters_.antientropy_edges->Add(r.repaired_edges);
  return r;
}

void GraphCluster::CrashReplica(std::size_t s, std::size_t r) {
  injector_.CrashReplica(s, r);
  // The replica process died: its volatile store is gone with it.
  if (replication_) replication_->WipeReplica(s, r);
}

void GraphCluster::RecoverReplica(std::size_t s, std::size_t r) {
  // Rejoin empty; the next ship round replays the log (or bootstraps a
  // snapshot when the log was truncated past seq 0).
  injector_.RestoreReplica(s, r);
}

void GraphCluster::PartitionReplica(std::size_t s, std::size_t r) {
  injector_.PartitionReplica(s, r);
}

void GraphCluster::HealReplica(std::size_t s, std::size_t r) {
  injector_.HealReplica(s, r);
}

template <typename Body>
GraphCluster::RpcOutcome GraphCluster::RunRpc(std::size_t s, Body&& body) {
  const RetryPolicy& retry = config_.retry;
  const std::size_t max_attempts =
      std::max<std::size_t>(std::size_t{1}, retry.max_attempts);
  RpcOutcome out;
  std::uint64_t backoff = kInitialBackoffUs;
  // Deterministic backoff jitter, drawn from a stream unrelated to both
  // the fault decisions and the sampling RNGs.
  SplitMix64 jitter(config_.fault.seed ^ (0xBF58476D1CE4E5B9ULL * (s + 1)));
  while (true) {
    ++out.attempts;
    if (injector_.IsCrashed(s)) {
      // Connection refused: the serving process is dead. Probing still
      // costs a round trip in virtual time.
      ++out.crash_rejections;
      out.virtual_us += config_.rpc_latency_us;
    } else {
      switch (injector_.NextFault(s)) {
        case FaultInjector::Fault::kNone:
          out.virtual_us += config_.rpc_latency_us;
          if (body(/*corrupt=*/false, out)) out.delivered = true;
          break;
        case FaultInjector::Fault::kSlow:
          out.virtual_us +=
              config_.rpc_latency_us + config_.fault.slow_extra_us;
          if (body(/*corrupt=*/false, out)) out.delivered = true;
          break;
        case FaultInjector::Fault::kFail:  // request lost in flight
          out.virtual_us += config_.rpc_latency_us;
          ++out.transient_faults;
          break;
        case FaultInjector::Fault::kTimeout:  // response never arrives
          out.virtual_us += std::max(config_.rpc_latency_us, kTimeoutUs);
          ++out.transient_faults;
          break;
        case FaultInjector::Fault::kCorrupt:  // response damaged in flight
          out.virtual_us += config_.rpc_latency_us;
          ++out.transient_faults;
          ++out.corrupt;
          if (body(/*corrupt=*/true, out)) out.delivered = true;
          break;
      }
    }
    if (out.delivered) break;
    if (out.virtual_us >= retry.deadline_us) {
      out.deadline_hit = true;
      break;
    }
    if (out.attempts >= max_attempts) break;
    // Exponential backoff with ±25% jitter — virtual time, never slept.
    std::uint64_t wait = backoff;
    const std::uint64_t j = backoff / 4;
    if (j > 0) wait = backoff - j + jitter.Next() % (2 * j + 1);
    if (out.virtual_us + wait >= retry.deadline_us) {
      out.deadline_hit = true;
      break;
    }
    out.virtual_us += wait;
    backoff = std::min(backoff * kBackoffMultiplier, kMaxBackoffUs);
  }
  return out;
}

GraphCluster::RpcOutcome GraphCluster::DeliverUpdates(
    std::size_t s, const std::vector<EdgeUpdate>& group) {
  if (injector_.IsCrashed(s)) {
    // Hinted handoff: the durable log service outlives the serving
    // process (GNNFlow-style — the update log is the recovery substrate).
    // Write the updates straight to the shard's WAL; RecoverShard replays
    // them. One virtual RPC to the log.
    RpcOutcome out;
    out.attempts = 1;
    out.virtual_us = config_.rpc_latency_us;
    shards_[s]->ApplyBatch(group);
    out.delivered = true;
    out.resp_bytes = 1;  // ack
    return out;
  }
  return RunRpc(s, [&](bool corrupt, RpcOutcome& out) {
    if (corrupt) {
      // A damaged ack is indistinguishable from a lost request; the
      // attempt is modelled as not applied, preserving exactly-once
      // delivery across the retry.
      return false;
    }
    Timer rpc;
    shards_[s]->ApplyBatch(group);
    rpc_latency_.RecordMicros(rpc.ElapsedMicros());
    out.resp_bytes += 1;  // ack
    return true;
  });
}

void GraphCluster::MergeOutcome(const RpcOutcome& out) {
  counters_.rpcs->Add(out.attempts);
  counters_.virtual_network_us->Add(out.virtual_us);
  counters_.retries->Add(out.attempts - 1);
  counters_.transient_faults->Add(out.transient_faults);
  counters_.corrupt_responses->Add(out.corrupt);
  counters_.crash_rejections->Add(out.crash_rejections);
  if (out.deadline_hit) counters_.deadline_hits->Add();
}

template <typename HasWork, typename Body>
void GraphCluster::FanOut(HasWork&& has_work, Body&& body) {
  std::vector<std::size_t> touched;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (has_work(s)) touched.push_back(s);
  }
  if (touched.size() == 1) {
    body(touched[0]);
    return;
  }
  pool_.ParallelFor(touched.size(),
                    [&](std::size_t i) { body(touched[i]); });
}

Status GraphCluster::ApplyBatch(const std::vector<EdgeUpdate>& batch) {
  // Refuse what the stores cannot hold before any WAL logs it: a logged
  // update that the store throws on would fail every later replay.
  const std::size_t relations =
      std::max<std::size_t>(1, config_.shard_config.num_relations);
  Status result = Status::Ok();
  std::vector<std::vector<EdgeUpdate>> per_shard(shards_.size());
  for (const EdgeUpdate& u : batch) {
    if (!IsValidUpdate(u, relations)) {
      if (result.ok()) {
        result = Status::InvalidArgument(
            "update " + std::to_string(u.edge.src) + "->" +
            std::to_string(u.edge.dst) +
            " refused: bad type, vertex or weight");
      }
      continue;
    }
    per_shard[partitioner_.ShardOf(u.edge.src)].push_back(u);
  }
  std::vector<RpcOutcome> outcomes(shards_.size());
  std::vector<std::uint8_t> handoff(shards_.size(), 0);
  FanOut([&](std::size_t s) { return !per_shard[s].empty(); },
         [&](std::size_t s) {
           handoff[s] = injector_.IsCrashed(s) ? 1 : 0;
           outcomes[s] = DeliverUpdates(s, per_shard[s]);
         });
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto& group = per_shard[s];
    if (group.empty()) continue;
    const RpcOutcome& out = outcomes[s];
    MergeOutcome(out);
    counters_.bytes_sent->Add(out.attempts *
                              wire::UpdateBatchBytes(group.size()));
    counters_.bytes_received->Add(out.resp_bytes);
    if (handoff[s]) counters_.wal_handoffs->Add(group.size());
    if (!out.delivered) {
      counters_.lost_updates->Add(group.size());
      if (result.ok()) {
        result = Status::DeadlineExceeded(
            std::to_string(group.size()) + " updates lost: shard " +
            std::to_string(s) + " unreachable past the retry budget");
      }
    }
  }
  ShipReplication();
  return result;
}

template <typename Batch, typename Fill, typename Fallback>
MultiRangeReport<Batch> GraphCluster::ShardRound(
    const std::vector<const std::vector<VertexId>*>& item_ids,
    const std::vector<std::size_t>& values_per_id,
    const std::vector<obs::Counter*>& shard_load, obs::Counter* degraded,
    Fill&& fill, Fallback&& fallback) {
  MultiRangeReport<Batch> multi;
  multi.reports.resize(item_ids.size());
  if (item_ids.empty()) return multi;

  // Group each item's id positions by owning shard:
  // shard_groups[s] = [(item, first range, positions-in-item), ...] in
  // item order, i.e. the order of the ranges in shard s's response.
  struct ShardGroup {
    std::size_t item;
    std::size_t first_range;
    std::vector<std::size_t> positions;
  };
  std::vector<std::vector<ShardGroup>> shard_groups(shards_.size());
  std::vector<std::size_t> shard_ranges(shards_.size(), 0);
  std::vector<std::size_t> shard_values(shards_.size(), 0);
  for (std::size_t w = 0; w < item_ids.size(); ++w) {
    const std::vector<VertexId>& ids = *item_ids[w];
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::size_t s = partitioner_.ShardOf(ids[i]);
      std::vector<ShardGroup>& groups = shard_groups[s];
      if (groups.empty() || groups.back().item != w) {
        groups.push_back(ShardGroup{w, shard_ranges[s], {}});
      }
      groups.back().positions.push_back(i);
      ++shard_ranges[s];
      shard_values[s] += values_per_id[w];
    }
  }

  // One parallel logical RPC (with retries) per touched shard, carrying
  // every item's ids for that shard and answered by one flat response.
  std::vector<Batch> responses(shards_.size());
  std::vector<RpcOutcome> outcomes(shards_.size());
  const auto has_work = [&](std::size_t s) {
    return !shard_groups[s].empty();
  };
  FanOut(has_work, [&](std::size_t s) {
    const std::vector<ShardGroup>& groups = shard_groups[s];
    outcomes[s] = RunRpc(s, [&](bool corrupt, RpcOutcome& out) {
      Timer rpc;
      // Built in attempt-local storage, so a retry starts empty. `fill`
      // re-derives any RNG state per item per attempt, so a retry replays
      // the exact draw sequence and batching never perturbs an item's
      // stream.
      Batch resp;
      resp.offsets.reserve(shard_ranges[s] + 1);
      resp.offsets.push_back(0);
      Values(resp).reserve(shard_values[s]);
      for (const ShardGroup& grp : groups) {
        fill(s, grp.item, grp.positions, &resp);
      }
      rpc_latency_.RecordMicros(rpc.ElapsedMicros());
      if (corrupt) {
        // Ship the response through the real codec, damage it in flight,
        // and let the hardened decoder judge it (docs/fault_tolerance.md).
        std::string bytes = wire::EncodeSampleResponse(resp);
        out.resp_bytes += bytes.size();  // shipped before the damage
        injector_.CorruptBytes(s, &bytes);
        Batch decoded;
        if (!wire::DecodeSampleResponse(bytes, &decoded) ||
            decoded.offsets.size() != shard_ranges[s] + 1) {
          return false;  // rejected by the codec; RunRpc retries
        }
        // Structurally valid despite the damage — accept what decoded.
        // (CorruptBytes guarantees structural damage, so this is a
        // belt-and-braces path, not an expected one.)
        responses[s] = std::move(decoded);
        return true;
      }
      out.resp_bytes += wire::SampleResponseBytes(resp);
      responses[s] = std::move(resp);
      return true;
    });
  });

  for (std::size_t w = 0; w < item_ids.size(); ++w) {
    multi.reports[w].seed_status.assign(item_ids[w]->size(), SeedStatus::kOk);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::vector<ShardGroup>& groups = shard_groups[s];
    if (groups.empty()) continue;
    const RpcOutcome& out = outcomes[s];
    MergeOutcome(out);
    // One logical SampleRequest per item bundled into the RPC.
    std::size_t request_bytes = 0;
    for (const ShardGroup& grp : groups) {
      request_bytes += wire::SampleRequestBytes(grp.positions.size());
    }
    counters_.bytes_sent->Add(out.attempts * request_bytes);
    shard_load[s]->Add(shard_ranges[s]);
    counters_.bytes_received->Add(out.resp_bytes);
    // The round's virtual wall time is the slowest of the parallel RPCs.
    multi.round_virtual_us = std::max(multi.round_virtual_us, out.virtual_us);
    if (!out.delivered) {
      // Stand in for the lost response in the same layout: replica ranges
      // where a replica serves, flagged empty ranges where none does.
      Batch& resp = responses[s];
      resp.offsets.reserve(shard_ranges[s] + 1);
      resp.offsets.push_back(0);
      Values(resp).reserve(shard_values[s]);
      for (const ShardGroup& grp : groups) {
        RangeReport<Batch>& report = multi.reports[grp.item];
        if (fallback(s, grp.item, grp.positions, &resp, &report)) continue;
        resp.offsets.insert(resp.offsets.end(), grp.positions.size(),
                            Values(resp).size());
        for (std::size_t pos : grp.positions) {
          report.seed_status[pos] = SeedStatus::kDegraded;
        }
        report.degraded_seeds += grp.positions.size();
      }
    }
  }
  if (degraded != nullptr) {
    for (const RangeReport<Batch>& r : multi.reports) {
      degraded->Add(r.degraded_seeds);
    }
  }
  // Reads ship nothing new, but their virtual-time cost does age
  // suspicions — the health monitor runs so a dead primary eventually
  // fails over under a read-only workload too.
  ReplicationHealthCheck();

  // Scatter the shard responses into each item's batch in id order:
  // size every range, prefix-sum the offsets, then copy the ranges into
  // one allocation per item.
  for (std::size_t w = 0; w < item_ids.size(); ++w) {
    multi.reports[w].batch.offsets.assign(item_ids[w]->size() + 1, 0);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::vector<std::size_t>& from = responses[s].offsets;
    for (const ShardGroup& grp : shard_groups[s]) {
      std::vector<std::size_t>& to = multi.reports[grp.item].batch.offsets;
      for (std::size_t k = 0; k < grp.positions.size(); ++k) {
        const std::size_t r = grp.first_range + k;
        to[grp.positions[k] + 1] = from[r + 1] - from[r];
      }
    }
  }
  for (RangeReport<Batch>& report : multi.reports) {
    std::vector<std::size_t>& offsets = report.batch.offsets;
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    Values(report.batch).resize(offsets.back());
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Batch& resp = responses[s];
    for (const ShardGroup& grp : shard_groups[s]) {
      Batch& batch = multi.reports[grp.item].batch;
      for (std::size_t k = 0; k < grp.positions.size(); ++k) {
        const std::size_t r = grp.first_range + k;
        std::copy(Values(resp).data() + resp.offsets[r],
                  Values(resp).data() + resp.offsets[r + 1],
                  Values(batch).data() + batch.offsets[grp.positions[k]]);
      }
    }
  }
  return multi;
}

MultiSampleReport GraphCluster::SampleMany(
    const std::vector<SampleWorkItem>& work) {
  std::vector<const std::vector<VertexId>*> item_seeds;
  std::vector<std::size_t> draws_per_seed;
  item_seeds.reserve(work.size());
  draws_per_seed.reserve(work.size());
  for (const SampleWorkItem& w : work) {
    item_seeds.push_back(w.seeds);
    draws_per_seed.push_back(w.fanout);
  }
  return ShardRound<NeighborBatch>(
      item_seeds, draws_per_seed, shard_seed_counters_,
      counters_.degraded_seeds,
      [&](std::size_t s, std::size_t item,
          const std::vector<std::size_t>& positions, NeighborBatch* resp) {
        const SampleWorkItem& w = work[item];
        // Fresh RNG per item per attempt: batched results are
        // bit-identical to issuing the item alone, and a retry replays
        // the exact draw sequence of the failed attempt.
        Xoshiro256 rng(w.rng_seed ^ (kShardSeedSalt * (s + 1)));
        for (std::size_t pos : positions) {
          shards_[s]->SampleNeighbors((*w.seeds)[pos], w.fanout, w.weighted,
                                      rng, &resp->neighbors, w.type);
          resp->offsets.push_back(resp->neighbors.size());
        }
      },
      [&](std::size_t s, std::size_t item,
          const std::vector<std::size_t>& positions, NeighborBatch* resp,
          SampleReport* report) {
        // Bounded-staleness fallback: an unreachable primary's seeds may
        // be served by its freshest replica if one is within the
        // staleness budget — real data flagged kStale, not an empty
        // degraded marker. Seeded identically to the primary attempt, so
        // a caught-up replica returns bit-identical samples. Only on
        // primary failure: a fault-free run never touches replicas and
        // stays bit-identical to a replication-disabled run.
        if (replication_ == nullptr) return false;
        const SampleWorkItem& w = work[item];
        std::vector<VertexId> group_seeds;
        group_seeds.reserve(positions.size());
        for (std::size_t pos : positions) {
          group_seeds.push_back((*w.seeds)[pos]);
        }
        std::optional<ReplicationManager::ReplicaServe> serve =
            replication_->SampleFromReplica(
                s, group_seeds, w.fanout, w.weighted,
                w.rng_seed ^ (kShardSeedSalt * (s + 1)), w.type, resp);
        if (!serve.has_value()) return false;
        for (std::size_t pos : positions) {
          report->seed_status[pos] = SeedStatus::kStale;
        }
        counters_.replica_read_seeds->Add(positions.size());
        if (serve->lag > 0) counters_.stale_replica_seeds->Add(positions.size());
        return true;
      });
}

SampleReport GraphCluster::SampleNeighborsChecked(
    const std::vector<VertexId>& seeds, std::size_t fanout, bool weighted,
    std::uint64_t seed, EdgeType type) {
  SampleWorkItem item;
  item.seeds = &seeds;
  item.fanout = fanout;
  item.weighted = weighted;
  item.rng_seed = seed;
  item.type = type;
  MultiSampleReport multi = SampleMany({item});
  return std::move(multi.reports[0]);
}

MultiSampleReport GraphCluster::TraverseMany(
    const std::vector<TraverseWorkItem>& work) {
  std::vector<const std::vector<VertexId>*> item_seeds;
  item_seeds.reserve(work.size());
  for (const TraverseWorkItem& w : work) item_seeds.push_back(w.seeds);
  // A range holds min(cap, degree) ids: the cap bounds it, but reserving
  // it would over-allocate for every low-degree seed, so grow instead.
  const std::vector<std::size_t> draws_per_seed(work.size(), 0);
  // No replica fallback for traversal: degraded frontiers must stay
  // visible to the serving layer's SLO accounting.
  return ShardRound<NeighborBatch>(
      item_seeds, draws_per_seed, shard_seed_counters_,
      counters_.degraded_seeds,
      [&](std::size_t s, std::size_t item,
          const std::vector<std::size_t>& positions, NeighborBatch* resp) {
        const TraverseWorkItem& w = work[item];
        for (std::size_t pos : positions) {
          shards_[s]->Traverse((*w.seeds)[pos], w.cap, &resp->neighbors,
                               w.type);
          resp->offsets.push_back(resp->neighbors.size());
        }
      },
      kNoFallback);
}

MultiGatherReport GraphCluster::GatherMany(
    const std::vector<GatherWorkItem>& work) {
  std::vector<const std::vector<VertexId>*> item_ids;
  item_ids.reserve(work.size());
  for (const GatherWorkItem& w : work) item_ids.push_back(w.ids);
  // Row widths are unknown until served: grow the reply instead.
  const std::vector<std::size_t> values_per_id(work.size(), 0);
  // Gather rounds count their ids per shard apart from sampled seeds, and
  // their degraded rows only in the reports (not in degraded_seeds).
  MultiRangeReport<wire::FeatureBatch> rows = ShardRound<wire::FeatureBatch>(
      item_ids, values_per_id, shard_gather_counters_, /*degraded=*/nullptr,
      [&](std::size_t s, std::size_t item,
          const std::vector<std::size_t>& positions,
          wire::FeatureBatch* resp) {
        for (std::size_t pos : positions) {
          shards_[s]->GatherFeatures((*work[item].ids)[pos], &resp->values);
          resp->offsets.push_back(resp->values.size());
        }
      },
      kNoFallback);

  // Dense [ids x dim] assembly; dim = widest row delivered this round,
  // shorter or absent rows are zero-padded.
  MultiGatherReport multi;
  multi.round_virtual_us = rows.round_virtual_us;
  std::size_t dim = 0;
  for (const RangeReport<wire::FeatureBatch>& r : rows.reports) {
    const std::vector<std::size_t>& offsets = r.batch.offsets;
    for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
      dim = std::max(dim, offsets[i + 1] - offsets[i]);
    }
  }
  multi.dim = static_cast<std::uint32_t>(dim);
  multi.reports.resize(rows.reports.size());
  for (std::size_t w = 0; w < rows.reports.size(); ++w) {
    RangeReport<wire::FeatureBatch>& r = rows.reports[w];
    const std::vector<std::size_t>& offsets = r.batch.offsets;
    GatherReport& report = multi.reports[w];
    report.features.assign((offsets.size() - 1) * dim, 0.0f);
    for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
      std::copy(r.batch.values.data() + offsets[i],
                r.batch.values.data() + offsets[i + 1],
                report.features.data() + i * dim);
    }
    report.row_status = std::move(r.seed_status);
    report.degraded_rows = r.degraded_seeds;
  }
  return multi;
}

void GraphCluster::CrashShard(std::size_t i) {
  injector_.CrashShard(i);
  shards_[i]->Crash();
  ExportShardCaches();
}

Status GraphCluster::RecoverShard(std::size_t i) {
  std::size_t replayed = 0;
  Status s = shards_[i]->Recover(&replayed);
  if (!s.ok()) return s;
  injector_.RestoreShard(i);
  ExportShardCaches();
  counters_.recoveries->Add();
  counters_.replayed_updates->Add(replayed);
  return Status::Ok();
}

Status GraphCluster::CheckpointAll(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // SaveGraph fails loudly
  Status result = Status::Ok();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->crashed()) continue;
    Status s = shards_[i]->Checkpoint(dir + "/shard_" + std::to_string(i) +
                                      ".ckpt");
    if (!s.ok() && result.ok()) result = s;
  }
  return result;
}

std::size_t GraphCluster::Degree(VertexId src, EdgeType type) const {
  return shards_[partitioner_.ShardOf(src)]->store().Degree(src, type);
}

std::size_t GraphCluster::NumEdges() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->store().NumEdges();
  return n;
}

}  // namespace platod2gl
