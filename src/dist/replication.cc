#include "dist/replication.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <utility>

#include "common/crc32.h"
#include "io/checkpoint.h"
#include "obs/profile.h"

namespace platod2gl {

namespace {

/// RAII meter for work billed to the *replica* machine (decode + apply).
/// Thread-CPU clock, not wall: on a shared-host simulation other threads
/// time-slice the same cores, and only actual cycles burnt by the
/// replica's side should land in replica_apply_nanos.
class ReplicaCpuMeter {
 public:
  explicit ReplicaCpuMeter(obs::Counter* sink) : sink_(sink) {
    start_ = Now();
  }
  ~ReplicaCpuMeter() { sink_->Add(Now() - start_); }

 private:
  static std::uint64_t Now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }
  obs::Counter* sink_;
  std::uint64_t start_ = 0;
};

struct FilePtr {
  std::FILE* f = nullptr;
  ~FilePtr() {
    if (f != nullptr) std::fclose(f);
  }
};

bool ReadFileToString(const std::string& path, std::string* out) {
  FilePtr fp{std::fopen(path.c_str(), "rb")};
  if (fp.f == nullptr) return false;
  out->clear();
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), fp.f)) > 0) {
    out->append(buf, n);
  }
  return std::ferror(fp.f) == 0;
}

/// Keyrange buckets per anti-entropy digest.
constexpr std::size_t kDigestBuckets = 16;

/// Keyrange bucket of a source vertex: SplitMix64-mixed so contiguous id
/// ranges spread across buckets (primary and replica agree by construction).
std::size_t BucketOf(VertexId src) {
  SplitMix64 sm(src);
  return static_cast<std::size_t>(sm.Next() % kDigestBuckets);
}

/// CRC-32 of one edge's topology record (type, src, dst, weight), packed
/// little-endian-independent via memcpy — attributes are out of digest
/// scope (docs/replication.md).
std::uint32_t EdgeCrc(EdgeType type, VertexId src, VertexId dst, Weight w) {
  unsigned char buf[4 + 8 + 8 + 8];
  std::uint32_t t = type;
  std::memcpy(buf, &t, 4);
  std::memcpy(buf + 4, &src, 8);
  std::memcpy(buf + 12, &dst, 8);
  std::memcpy(buf + 20, &w, 8);
  return Crc32(buf, sizeof(buf), 0);
}

/// Per-bucket (edge count, CRC xor) digest of a store's topology. The xor
/// combine is order-insensitive: two stores with the same edge *set*
/// digest identically even if their iteration orders differ (a replica
/// bootstrapped from a snapshot may iterate differently from one that
/// replayed the whole log).
void ComputeDigest(const GraphStore& store, std::vector<std::uint64_t>* counts,
                   std::vector<std::uint32_t>* crcs) {
  counts->assign(kDigestBuckets, 0);
  crcs->assign(kDigestBuckets, 0);
  for (std::size_t rel = 0; rel < store.num_relations(); ++rel) {
    const auto type = static_cast<EdgeType>(rel);
    store.topology(type).ForEachSource([&](VertexId src, const Samtree& tree) {
      const std::size_t b = BucketOf(src);
      tree.ForEachNeighbor([&](VertexId dst, Weight w) {
        (*counts)[b] += 1;
        (*crcs)[b] ^= EdgeCrc(type, src, dst, w);
      });
    });
  }
}

/// Every edge of `store` whose source hashes into `bucket`.
std::vector<Edge> BucketEdges(const GraphStore& store, std::size_t bucket) {
  std::vector<Edge> out;
  for (std::size_t rel = 0; rel < store.num_relations(); ++rel) {
    const auto type = static_cast<EdgeType>(rel);
    store.topology(type).ForEachSource([&](VertexId src, const Samtree& tree) {
      if (BucketOf(src) != bucket) return;
      tree.ForEachNeighbor([&](VertexId dst, Weight w) {
        out.push_back(Edge{src, dst, w, type});
      });
    });
  }
  return out;
}

}  // namespace

// --- ReplicationManager ---------------------------------------------------

ReplicationManager::ReplicationManager(const ReplicationConfig& config,
                                       const GraphStoreConfig& store_config,
                                       std::vector<GraphShard*> primaries,
                                       FaultInjector* injector,
                                       EpochCoordinator* cutover,
                                       obs::MetricRegistry* metrics)
    : config_(config),
      store_config_(store_config),
      primaries_(std::move(primaries)),
      injector_(injector),
      cutover_(cutover) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
#define PD2GL_REGISTER(name) \
  counters_.name = metrics_->RegisterCounter("pd2gl_replication_" #name);
  PD2GL_REPLICATION_COUNTERS(PD2GL_REGISTER)
#undef PD2GL_REGISTER
  if (config_.num_replicas > FaultInjector::kMaxReplicas) {
    config_.num_replicas = FaultInjector::kMaxReplicas;
  }
  if (config_.max_entries_per_append == 0) config_.max_entries_per_append = 1;
  reps_.reserve(primaries_.size());
  for (std::size_t s = 0; s < primaries_.size(); ++s) {
    auto sr = std::make_unique<ShardRep>();
    MutexLock lock(sr->mu);
    sr->replicas.resize(config_.num_replicas);
    for (auto& r : sr->replicas) {
      r.store = std::make_unique<GraphStore>(store_config_);
    }
    reps_.push_back(std::move(sr));
  }
}

void ReplicationManager::Kick() {
  for (std::size_t s = 0; s < primaries_.size(); ++s) Ship(s);
}

void ReplicationManager::Ship(std::size_t shard) {
  ShardRep& sr = *reps_[shard];
  MutexLock lock(sr.mu);
  for (std::size_t r = 0; r < sr.replicas.size(); ++r) {
    Replica& rep = sr.replicas[r];
    if (rep.incompatible || injector_->IsReplicaCrashed(shard, r) ||
        injector_->IsReplicaPartitioned(shard, r)) {
      continue;
    }
    if (rep.applied_seq < primaries_[shard]->wal_truncated_through()) {
      BootstrapReplica(shard, r, rep);
    }
  }
  PD2GL_PROFILE_SCOPE(obs::ProfileSite::kWalShip);
  GraphShard* pri = primaries_[shard];
  const std::uint64_t head = pri->wal_seq();
  counters_.ship_rounds->Add();
  for (std::size_t r = 0; r < sr.replicas.size(); ++r) {
    Replica& rep = sr.replicas[r];
    if (rep.incompatible) continue;
    if (injector_->IsReplicaCrashed(shard, r)) continue;
    if (injector_->IsReplicaPartitioned(shard, r)) continue;
    // Below the truncation point and not bootstrapped this round: the log
    // cannot reach this replica, skip until a bootstrap succeeds.
    if (rep.applied_seq < pri->wal_truncated_through()) continue;
    if (rep.applied_seq < head) {
      std::vector<TimedUpdate>& window = sr.window_scratch;
      pri->WalWindowInto(rep.applied_seq, head, &window);
      // Chunk the window into append messages, encoding straight from
      // the WAL entries (no intermediate RepLogAppend materialisation).
      std::vector<std::string> msgs;
      msgs.reserve(window.size() / config_.max_entries_per_append + 1);
      for (std::size_t i = 0; i < window.size();
           i += config_.max_entries_per_append) {
        const std::size_t end =
            std::min(window.size(), i + config_.max_entries_per_append);
        msgs.push_back(wire::EncodeRepLogAppendWindow(
            static_cast<std::uint32_t>(shard), rep.applied_seq + i + 1,
            window.data() + i, end - i, config_.wire_version));
      }
      // Deliver under the injected channel-fault schedule. All three
      // fault classes resolve into retransmits: the contiguity check in
      // DeliverAppend refuses anything that does not extend applied_seq.
      std::size_t i = 0;
      while (i < msgs.size() && !rep.incompatible) {
        switch (injector_->NextRepFault(shard, r)) {
          case FaultInjector::RepFault::kDrop:
            counters_.dropped_messages->Add();
            ++i;
            break;
          case FaultInjector::RepFault::kDuplicate:
            counters_.duplicated_messages->Add();
            DeliverAppend(msgs[i], rep);
            DeliverAppend(msgs[i], rep);
            ++i;
            break;
          case FaultInjector::RepFault::kReorder:
            if (i + 1 < msgs.size()) {
              counters_.reordered_messages->Add();
              DeliverAppend(msgs[i + 1], rep);
              DeliverAppend(msgs[i], rep);
              i += 2;
            } else {
              DeliverAppend(msgs[i], rep);
              ++i;
            }
            break;
          case FaultInjector::RepFault::kNone:
            DeliverAppend(msgs[i], rep);
            ++i;
            break;
        }
      }
    }
    // Ack only when the watermark can actually move — an idle ship round
    // over a caught-up, fully-acked replica sends nothing.
    if (!rep.incompatible && rep.acked_seq < rep.applied_seq) {
      SendAck(shard, r, sr);
    }
  }
}

void ReplicationManager::DeliverAppend(const std::string& bytes,
                                       Replica& rep) {
  counters_.append_messages->Add();
  counters_.bytes_shipped->Add(bytes.size());
  ReplicaCpuMeter meter(counters_.replica_apply_nanos);
  wire::RepLogAppend msg;
  switch (wire::DecodeRepLogAppend(bytes, &msg)) {
    case wire::DecodeResult::kUnsupportedVersion:
      MarkIncompatible(rep);
      return;
    case wire::DecodeResult::kMalformed:
      rep.last_error = Status::DataLoss("malformed replication append");
      return;
    case wire::DecodeResult::kOk:
      break;
  }
  // Collect the run that extends applied_seq, then apply it as one batch.
  std::vector<EdgeUpdate> run;
  run.reserve(msg.entries.size());
  std::uint64_t applied = rep.applied_seq;
  for (const wire::RepLogEntry& e : msg.entries) {
    if (e.seq <= applied) {
      // At-least-once transport: silently skip the duplicate prefix.
      counters_.duplicate_entries->Add();
      continue;
    }
    if (e.seq != applied + 1) {
      // Gap (a predecessor was dropped or is still in flight behind a
      // reorder): refuse the suffix; the next ship round retransmits
      // from applied_seq + 1.
      counters_.rejected_appends->Add();
      break;
    }
    run.push_back(e.update);
    applied = e.seq;
  }
  rep.store->ApplyBatch(run);
  rep.applied_seq = applied;
  counters_.entries_applied->Add(run.size());
}

void ReplicationManager::MarkIncompatible(Replica& rep) {
  if (rep.incompatible) return;
  rep.incompatible = true;
  rep.last_error =
      Status::Unimplemented("replica rejected replication wire version");
  counters_.unimplemented_peers->Add();
}

void ReplicationManager::SendAck(std::size_t shard, std::size_t replica,
                                 ShardRep& sr) {
  Replica& rep = sr.replicas[replica];
  wire::RepAck ack;
  ack.shard = static_cast<std::uint32_t>(shard);
  ack.replica = static_cast<std::uint32_t>(replica);
  ack.applied_seq = rep.applied_seq;
  const std::string bytes = wire::EncodeRepAck(ack, config_.wire_version);
  counters_.ack_messages->Add();
  counters_.bytes_shipped->Add(bytes.size());
  // The reverse channel is just as lossy as the forward one. A dropped
  // ack leaves acked_seq stale; the next round's cumulative ack covers it.
  if (injector_->NextRepFault(shard, replica) ==
      FaultInjector::RepFault::kDrop) {
    counters_.dropped_messages->Add();
    return;
  }
  wire::RepAck decoded;
  if (wire::DecodeRepAck(bytes, &decoded) != wire::DecodeResult::kOk) return;
  rep.acked_seq = std::max(rep.acked_seq, decoded.applied_seq);
}

bool ReplicationManager::BootstrapReplica(std::size_t shard,
                                          std::size_t replica, Replica& rep) {
  GraphShard* pri = primaries_[shard];
  std::string image;
  std::uint64_t covered = 0;
  if (!pri->crashed()) {
    // Live primary: snapshot the serving store (covers the full log). The
    // image reads that store unlocked, so it holds only while no writer
    // applies to it: a ship on one client thread beside a writer on
    // another races this read.
    covered = pri->wal_seq();
    if (!SaveGraphToBytes(pri->store(), &image).ok()) return false;
  } else if (!pri->checkpoint_path().empty()) {
    // Crashed primary: its disk checkpoint is still authoritative for the
    // truncated prefix; log shipping covers the rest.
    covered = pri->checkpoint_seq();
    if (!ReadFileToString(pri->checkpoint_path(), &image)) return false;
  } else {
    return false;  // nothing to bootstrap from yet
  }
  wire::RepSnapshot snap;
  snap.shard = static_cast<std::uint32_t>(shard);
  snap.covered_seq = covered;
  snap.checkpoint = std::move(image);
  const std::string bytes =
      wire::EncodeRepSnapshot(snap, config_.wire_version);
  counters_.bytes_shipped->Add(bytes.size());
  if (injector_->NextRepFault(shard, replica) ==
      FaultInjector::RepFault::kDrop) {
    counters_.dropped_messages->Add();
    return false;  // retried next ship round
  }
  // Decoding and loading the image are the receiving replica's work.
  ReplicaCpuMeter meter(counters_.replica_apply_nanos);
  wire::RepSnapshot decoded;
  switch (wire::DecodeRepSnapshot(bytes, &decoded)) {
    case wire::DecodeResult::kUnsupportedVersion:
      MarkIncompatible(rep);
      return false;
    case wire::DecodeResult::kMalformed:
      rep.last_error = Status::DataLoss("malformed snapshot message");
      return false;
    case wire::DecodeResult::kOk:
      break;
  }
  auto fresh = std::make_unique<GraphStore>(store_config_);
  Status s = LoadGraphFromBytes(decoded.checkpoint, fresh.get());
  if (!s.ok()) {  // CRC mismatch or structural damage: refuse the image
    rep.last_error = s;
    return false;
  }
  rep.store = std::move(fresh);
  rep.applied_seq = decoded.covered_seq;
  rep.last_error = Status::Ok();
  counters_.snapshot_bootstraps->Add();
  return true;
}

Status ReplicationManager::Flush() {
  for (int round = 0; round < kMaxFlushRounds; ++round) {
    bool all_caught_up = true;
    for (std::size_t s = 0; s < primaries_.size(); ++s) {
      Ship(s);
      ShardRep& sr = *reps_[s];
      MutexLock lock(sr.mu);
      const std::uint64_t head = primaries_[s]->wal_seq();
      for (std::size_t r = 0; r < sr.replicas.size(); ++r) {
        const Replica& rep = sr.replicas[r];
        if (rep.incompatible || injector_->IsReplicaCrashed(s, r) ||
            injector_->IsReplicaPartitioned(s, r)) {
          continue;  // unreachable by contract, not by flakiness
        }
        if (rep.applied_seq < head || rep.acked_seq < head) {
          all_caught_up = false;
        }
      }
    }
    if (all_caught_up) return Status::Ok();
  }
  return Status::DeadlineExceeded(
      "replication flush: channels still lossy after max rounds");
}

std::optional<ReplicationManager::ReplicaServe>
ReplicationManager::SampleFromReplica(std::size_t shard,
                                      const std::vector<VertexId>& seeds,
                                      std::size_t fanout, bool weighted,
                                      std::uint64_t rng_seed, EdgeType type,
                                      NeighborBatch* out) {
  ShardRep& sr = *reps_[shard];
  // Lock order: shard mutex, then the epoch coordinator pin — the same
  // order PromoteLocked uses (mutex, then write barrier), so the two can
  // never deadlock.
  MutexLock lock(sr.mu);
  const std::uint64_t head = primaries_[shard]->wal_seq();
  std::size_t best = sr.replicas.size();
  for (std::size_t r = 0; r < sr.replicas.size(); ++r) {
    const Replica& rep = sr.replicas[r];
    // A partitioned replica is cut off from its *primary*, not from
    // clients — it may still serve (stale) reads. A crashed one may not.
    if (rep.incompatible || injector_->IsReplicaCrashed(shard, r)) continue;
    if (best == sr.replicas.size() ||
        rep.applied_seq > sr.replicas[best].applied_seq) {
      best = r;
    }
  }
  if (best == sr.replicas.size()) return std::nullopt;
  Replica& rep = sr.replicas[best];
  const std::uint64_t lag = head - rep.applied_seq;
  if (lag > config_.staleness_budget) return std::nullopt;
  auto pin = cutover_->PinRead();
  ReplicaServe serve;
  serve.replica = best;
  serve.lag = lag;
  // Seeded exactly like the primary-path attempt so a caught-up replica
  // (lag 0) returns bit-identical samples.
  Xoshiro256 rng(rng_seed);
  for (VertexId seed : seeds) {
    rep.store->SampleNeighbors(seed, fanout, weighted, rng, &out->neighbors,
                               type);
    out->offsets.push_back(out->neighbors.size());
  }
  return serve;
}

ReplicationManager::HealthReport ReplicationManager::AdvanceTime(
    std::uint64_t now_us) {
  HealthReport report;
  for (std::size_t s = 0; s < primaries_.size(); ++s) {
    ShardRep& sr = *reps_[s];
    MutexLock lock(sr.mu);
    if (!injector_->IsCrashed(s)) {
      sr.suspected_since_us = kNotSuspected;  // healthy (or recovered)
      continue;
    }
    if (sr.suspected_since_us == kNotSuspected) {
      // First observation of the crash: start the suspicion clock. The
      // timeout is measured from here, so promotion needs a later
      // AdvanceTime call — a blip recovered before then never fails over.
      sr.suspected_since_us = now_us;
      continue;
    }
    if (now_us - sr.suspected_since_us < config_.suspicion_timeout_us) {
      continue;
    }
    std::optional<std::uint64_t> replayed = PromoteLocked(s, sr);
    if (replayed.has_value()) {
      report.failovers += 1;
      report.replayed_entries += *replayed;
      sr.suspected_since_us = kNotSuspected;
    }
    // else: no promotable replica yet — stay suspected and retry on the
    // next health check.
  }
  return report;
}

std::optional<std::uint64_t> ReplicationManager::PromoteLocked(std::size_t s,
                                                               ShardRep& sr) {
  GraphShard* pri = primaries_[s];
  const std::uint64_t head = pri->wal_seq();
  // Candidate: the furthest-applied live, connected, compatible replica;
  // ties break to the lowest index — both deterministic.
  std::size_t best = sr.replicas.size();
  for (std::size_t r = 0; r < sr.replicas.size(); ++r) {
    const Replica& rep = sr.replicas[r];
    if (rep.incompatible) continue;
    if (injector_->IsReplicaCrashed(s, r)) continue;
    if (injector_->IsReplicaPartitioned(s, r)) continue;
    if (rep.applied_seq < pri->wal_truncated_through()) continue;
    if (best == sr.replicas.size() ||
        rep.applied_seq > sr.replicas[best].applied_seq) {
      best = r;
    }
  }
  if (best == sr.replicas.size()) return std::nullopt;
  Replica& rep = sr.replicas[best];
  // Roll the candidate forward to the log head: replaying (applied, head]
  // of the durable WAL makes its store bit-identical to a sequential
  // replay of the primary's whole log (tests pin this byte-for-byte).
  std::size_t replayed = 0;
  Status st = pri->CheckedWalReplay(rep.store.get(), rep.applied_seq, head,
                                    &replayed);
  if (!st.ok()) return std::nullopt;  // truncation gap: not promotable
  {
    // Take over the keyrange under the epoch barrier: pinned readers
    // drain before the store pointer swaps, and the epoch advance
    // publishes the hand-off.
    auto wg = cutover_->BeginWrite();
    pri->Promote(std::move(rep.store));
  }
  injector_->RestoreShard(s);
  // The promoted slot is now an empty replica; it re-bootstraps (or
  // re-replays from seq 0) on subsequent ship rounds.
  rep.store = std::make_unique<GraphStore>(store_config_);
  rep.applied_seq = 0;
  rep.acked_seq = 0;
  return static_cast<std::uint64_t>(replayed);
}

ReplicationManager::AntiEntropyReport ReplicationManager::RunAntiEntropy(
    std::size_t shard) {
  AntiEntropyReport report;
  GraphShard* pri = primaries_[shard];
  ShardRep& sr = *reps_[shard];
  MutexLock lock(sr.mu);
  if (pri->crashed()) {
    // No authoritative side to digest against; every replica is skipped.
    report.skipped_replicas += sr.replicas.size();
    return report;
  }
  const std::uint64_t head = pri->wal_seq();
  std::vector<std::uint64_t> pri_counts;
  std::vector<std::uint32_t> pri_crcs;
  ComputeDigest(pri->store(), &pri_counts, &pri_crcs);
  for (std::size_t r = 0; r < sr.replicas.size(); ++r) {
    Replica& rep = sr.replicas[r];
    if (rep.incompatible || injector_->IsReplicaCrashed(shard, r) ||
        injector_->IsReplicaPartitioned(shard, r) ||
        rep.applied_seq != head) {
      // Only caught-up, reachable replicas are compared: digesting a
      // lagging store would flag honest lag as divergence (false
      // positive), which the acceptance tests forbid.
      report.skipped_replicas += 1;
      continue;
    }
    wire::RepDigest digest;
    digest.shard = static_cast<std::uint32_t>(shard);
    digest.through_seq = head;
    digest.bucket_edges = pri_counts;
    digest.bucket_crcs = pri_crcs;
    const std::string bytes =
        wire::EncodeRepDigest(digest, config_.wire_version);
    counters_.bytes_shipped->Add(bytes.size());
    if (injector_->NextRepFault(shard, r) ==
        FaultInjector::RepFault::kDrop) {
      counters_.dropped_messages->Add();
      report.skipped_replicas += 1;
      continue;
    }
    wire::RepDigest decoded;
    switch (wire::DecodeRepDigest(bytes, &decoded)) {
      case wire::DecodeResult::kUnsupportedVersion:
        MarkIncompatible(rep);
        report.skipped_replicas += 1;
        continue;
      case wire::DecodeResult::kMalformed:
        report.skipped_replicas += 1;
        continue;
      case wire::DecodeResult::kOk:
        break;
    }
    report.digest_rounds += 1;
    std::vector<std::uint64_t> rep_counts;
    std::vector<std::uint32_t> rep_crcs;
    ComputeDigest(*rep.store, &rep_counts, &rep_crcs);
    bool repaired = false;
    for (std::size_t b = 0; b < kDigestBuckets; ++b) {
      if (decoded.bucket_edges[b] == rep_counts[b] &&
          decoded.bucket_crcs[b] == rep_crcs[b]) {
        continue;
      }
      report.digest_mismatches += 1;
      repaired = true;
      // Repair = re-ship the bucket delta as one batch: drop everything
      // the replica holds in the bucket, then re-insert the primary's
      // bucket edges. Delete-then-insert handles both phantom and missing
      // edges.
      std::vector<EdgeUpdate> delta;
      for (const Edge& e : BucketEdges(*rep.store, b)) {
        delta.push_back({UpdateKind::kDelete, e});
      }
      const std::vector<Edge> truth = BucketEdges(pri->store(), b);
      for (const Edge& e : truth) delta.push_back({UpdateKind::kInsert, e});
      rep.store->ApplyBatch(delta);
      report.repaired_edges += truth.size();
    }
    if (repaired) report.repaired_replicas += 1;
  }
  return report;
}

ReplicationManager::AntiEntropyReport ReplicationManager::RunAntiEntropyAll() {
  AntiEntropyReport total;
  for (std::size_t s = 0; s < primaries_.size(); ++s) {
    const AntiEntropyReport r = RunAntiEntropy(s);
    total.digest_rounds += r.digest_rounds;
    total.digest_mismatches += r.digest_mismatches;
    total.repaired_replicas += r.repaired_replicas;
    total.repaired_edges += r.repaired_edges;
    total.skipped_replicas += r.skipped_replicas;
  }
  return total;
}

void ReplicationManager::WipeReplica(std::size_t shard, std::size_t replica) {
  ShardRep& sr = *reps_[shard];
  MutexLock lock(sr.mu);
  Replica& rep = sr.replicas[replica];
  rep.store = std::make_unique<GraphStore>(store_config_);
  rep.applied_seq = 0;
  rep.acked_seq = 0;
  rep.last_error = Status::Ok();
}

bool ReplicationManager::CorruptReplicaEdgeForTest(std::size_t shard,
                                                   std::size_t replica) {
  ShardRep& sr = *reps_[shard];
  MutexLock lock(sr.mu);
  Replica& rep = sr.replicas[replica];
  std::vector<Edge> edges;
  for (std::size_t b = 0; b < kDigestBuckets; ++b) {
    const std::vector<Edge> bucket = BucketEdges(*rep.store, b);
    edges.insert(edges.end(), bucket.begin(), bucket.end());
  }
  if (edges.empty()) return false;
  Edge victim = edges[injector_->RepDraw(shard, replica) % edges.size()];
  victim.weight += 1.5;  // weight is part of the topology digest
  rep.store->Apply(EdgeUpdate{UpdateKind::kInPlaceUpdate, victim});
  return true;
}

ReplicationStats ReplicationManager::stats() const {
  ReplicationStats s;
#define PD2GL_FILL(name) s.name = counters_.name->Value();
  PD2GL_REPLICATION_COUNTERS(PD2GL_FILL)
#undef PD2GL_FILL
  return s;
}

Status ReplicationManager::SnapshotReplica(std::size_t shard,
                                           std::size_t replica,
                                           std::string* out) {
  ShardRep& sr = *reps_[shard];
  MutexLock lock(sr.mu);
  return SaveGraphToBytes(*sr.replicas[replica].store, out);
}

std::vector<ReplicationManager::ReplicaProbe> ReplicationManager::Probe(
    std::size_t shard) {
  ShardRep& sr = *reps_[shard];
  MutexLock lock(sr.mu);
  std::vector<ReplicaProbe> out;
  out.reserve(sr.replicas.size());
  for (std::size_t r = 0; r < sr.replicas.size(); ++r) {
    const Replica& rep = sr.replicas[r];
    ReplicaProbe p;
    p.applied_seq = rep.applied_seq;
    p.acked_seq = rep.acked_seq;
    p.head_seq = primaries_[shard]->wal_seq();
    p.crashed = injector_->IsReplicaCrashed(shard, r);
    p.partitioned = injector_->IsReplicaPartitioned(shard, r);
    p.incompatible = rep.incompatible;
    p.edges = rep.store->NumEdges();
    out.push_back(p);
  }
  return out;
}

}  // namespace platod2gl
