// Production concurrency scenarios under the deterministic schedule
// checker (PD2GL_SCHEDCHECK builds only; build with the `schedcheck`
// CMake preset and run `ctest -L schedcheck`).
//
// These are the model-checked ports of the wall-clock stress shapes in
// tests/test_race_stress.cc: instead of hammering big structures from 8
// threads and hoping the OS schedules the bad interleaving, each
// scenario is a 2-3 thread, few-operation skeleton whose *every*
// schedule (up to the preemption bound) is enumerated, plus a seeded
// random-walk sweep whose size CI cranks up via
// PD2GL_SCHEDCHECK_RANDOM_SCHEDULES (seed: PD2GL_SCHEDCHECK_SEED; both
// echoed in the gtest failure message so any CI failure replays
// locally).
//
// The suite also proves the checker catches real bugs: the CuckooMap
// shard-size race fixed in the TSan-regression era is reintroduced
// behind sched::SetCuckooShardSizeRace(true), and the checker must find
// it — deterministically, with the identical schedule across two runs
// and under replay of the reported decision list.
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "core/samtree.h"
#include "dist/fault_injector.h"
#include "dist/replication.h"
#include "dist/shard.h"
#include "pipeline/epoch_coordinator.h"
#include "pipeline/update_ingestor.h"
#include "sampling/sample_cache.h"
#include "schedcheck/sched.h"
#include "serve/admission.h"
#include "serve/request_batcher.h"
#include "storage/cuckoo_map.h"

#ifndef PD2GL_SCHEDCHECK
#error "test_schedcheck_scenarios.cc requires -DPD2GL_SCHEDCHECK (schedcheck preset)"
#endif

namespace {

using platod2gl::CuckooMap;
using platod2gl::Edge;
using platod2gl::EpochCoordinator;
using platod2gl::IngestedUpdate;
using platod2gl::IngestorConfig;
using platod2gl::SampleCache;
using platod2gl::SampleCacheConfig;
using platod2gl::SampleCacheStats;
using platod2gl::Samtree;
using platod2gl::Status;
using platod2gl::StatusCode;
using platod2gl::UpdateIngestor;
using platod2gl::VertexId;
using platod2gl::Xoshiro256;
namespace sched = platod2gl::sched;

std::uint64_t EnvU64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? def : std::strtoull(v, nullptr, 10);
}

sched::Options Exhaustive(int preemption_bound = 2) {
  sched::Options opts;
  opts.mode = sched::Mode::kExhaustive;
  opts.preemption_bound = preemption_bound;
  return opts;
}

/// Random-walk options honouring the CI knobs; defaults keep local runs
/// fast (CI sets PD2GL_SCHEDCHECK_RANDOM_SCHEDULES=10000).
sched::Options RandomWalk() {
  sched::Options opts;
  opts.mode = sched::Mode::kRandomWalk;
  opts.seed = EnvU64("PD2GL_SCHEDCHECK_SEED", 1);
  opts.max_schedules = EnvU64("PD2GL_SCHEDCHECK_RANDOM_SCHEDULES", 1000);
  return opts;
}

/// Assert a passing exploration; on failure echo everything needed to
/// replay (seed, failing index, decision list, trace).
void ExpectOk(const sched::Result& r) {
  EXPECT_TRUE(r.ok) << "failing schedule: seed=" << r.seed
                    << " index=" << r.failing_index
                    << " choices=" << r.choices << "\n"
                    << r.failure << "\n"
                    << r.trace;
}

// ---------------------------------------------------------------------------
// Scenario 1 — EpochCoordinator: reader pins vs writer apply.
//
// Port of RaceStressTest.SamplersVsBatchUpdaterOnDisjointPartitions,
// reduced to the barrier itself: the writer mutates a *plain* cell under
// its WriteGuard; the reader reads it under a ReadGuard. If the barrier
// ever admitted both at once the checker reports the plain-access data
// race; the sched::Checks tie the pinned epoch to the data actually
// visible.
// ---------------------------------------------------------------------------

struct EpochState {
  EpochCoordinator coord;
  sched::NonAtomic<int> cell{0};
};

void EpochScenario(sched::Test& t) {
  auto s = std::make_shared<EpochState>();
  t.Spawn("writer", [s] {
    auto g = s->coord.BeginWrite();
    s->cell.store(s->cell.load() + 1);
  });
  t.Spawn("reader", [s] {
    auto g = s->coord.PinRead();
    const int seen = s->cell.load();
    sched::Check(s->coord.epoch() == g.epoch(),
                 "epoch is stable while a reader is pinned");
    sched::Check(seen == static_cast<int>(g.epoch()),
                 "reader sees exactly the writes of its pinned epoch");
  });
  t.AfterRun([s] {
    sched::Check(s->coord.epoch() == 1, "one apply advanced the epoch once");
    sched::Check(s->coord.readers_active() == 0, "all readers unpinned");
    sched::Check(s->cell.load() == 1, "the write landed");
  });
}

TEST(SchedCheckEpoch, ReaderWriterExclusionHoldsExhaustively) {
  const sched::Result r = sched::Explore(Exhaustive(), EpochScenario);
  ExpectOk(r);
  EXPECT_GT(r.schedules, 1u);
}

TEST(SchedCheckEpoch, ReaderWriterExclusionHoldsUnderRandomWalk) {
  ExpectOk(sched::Explore(RandomWalk(), EpochScenario));
}

// Two readers + one writer: write preference (a waiting writer holds off
// new readers) must not deadlock, and both readers' epoch/data coupling
// must hold in every schedule.
void EpochTwoReaderScenario(sched::Test& t) {
  auto s = std::make_shared<EpochState>();
  const auto reader = [s] {
    auto g = s->coord.PinRead();
    sched::Check(s->cell.load() == static_cast<int>(g.epoch()),
                 "reader sees exactly the writes of its pinned epoch");
  };
  t.Spawn("writer", [s] {
    auto g = s->coord.BeginWrite();
    s->cell.store(s->cell.load() + 1);
  });
  t.Spawn("reader-a", reader);
  t.Spawn("reader-b", reader);
  t.AfterRun([s] {
    sched::Check(s->coord.epoch() == 1, "one apply advanced the epoch once");
  });
}

TEST(SchedCheckEpoch, WritePreferenceNeverDeadlocksTwoReaders) {
  ExpectOk(sched::Explore(Exhaustive(), EpochTwoReaderScenario));
}

// ---------------------------------------------------------------------------
// Scenario 2 — UpdateIngestor: blocked producer vs consumer drain vs
// Close() shutdown.
//
// shard_capacity=1 forces the producer's second Offer to block; the
// consumer's drain and the closer's Close() race to wake it. Every
// schedule must terminate (a lost wakeup in the space_cv protocol shows
// up as a modeled deadlock), and the books must balance afterwards.
// ---------------------------------------------------------------------------

struct IngestorState {
  IngestorState() : ing(Config()) {}
  static IngestorConfig Config() {
    IngestorConfig c;
    c.num_shards = 1;
    c.shard_capacity = 1;
    c.policy = platod2gl::BackpressurePolicy::kBlock;
    return c;
  }
  UpdateIngestor ing;
  std::vector<IngestedUpdate> drained;
  Status st1 = Status::Ok();
  Status st2 = Status::Ok();
};

void IngestorScenario(sched::Test& t) {
  auto s = std::make_shared<IngestorState>();
  t.Spawn("producer", [s] {
    s->st1 = s->ing.OfferInsert(5, Edge{1, 2, 1.0, 0});
    s->st2 = s->ing.OfferInsert(6, Edge{1, 3, 1.0, 0});
  });
  t.Spawn("consumer", [s] { s->ing.DrainAll(&s->drained); });
  t.Spawn("closer", [s] { s->ing.Close(); });
  t.AfterRun([s] {
    std::vector<IngestedUpdate> rest;
    s->ing.DrainAll(&rest);
    const auto stats = s->ing.Stats();
    const std::uint64_t offers_ok = (s->st1.ok() ? 1u : 0u) +
                                    (s->st2.ok() ? 1u : 0u);
    sched::Check(s->st1.ok() || s->st1.code() == StatusCode::kUnavailable,
                 "first offer either lands or hits the close");
    sched::Check(s->st2.ok() || s->st2.code() == StatusCode::kUnavailable,
                 "second offer either lands or hits the close");
    sched::Check(!(s->st1.code() == StatusCode::kUnavailable && s->st2.ok()),
                 "closed_ is sticky: once an offer is refused, later ones are");
    sched::Check(stats.accepted == offers_ok, "accepted matches ok offers");
    sched::Check(stats.closed_rejects == 2 - offers_ok,
                 "every non-accepted offer is a counted close-reject");
    sched::Check(s->drained.size() + rest.size() == offers_ok,
                 "every accepted update is drained exactly once");
    sched::Check(s->ing.QueueDepth() == 0, "queue empty after final drain");
    const std::uint64_t want_wm = s->st2.ok() ? 6u : (s->st1.ok() ? 5u : 0u);
    sched::Check(stats.watermark == want_wm,
                 "watermark is the newest accepted timestamp");
    // Per-edge FIFO: the shard queue hands updates back in offer order.
    std::uint64_t last_ts = 0;
    for (const auto& v : {s->drained, rest}) {
      for (const auto& u : v) {
        sched::Check(u.update.timestamp >= last_ts, "drain preserves FIFO");
        last_ts = u.update.timestamp;
      }
    }
  });
}

TEST(SchedCheckIngestor, BlockedProducerDrainAndCloseAlwaysTerminate) {
  const sched::Result r = sched::Explore(Exhaustive(), IngestorScenario);
  ExpectOk(r);
  EXPECT_GT(r.schedules, 1u);
}

TEST(SchedCheckIngestor, ShutdownBooksBalanceUnderRandomWalk) {
  ExpectOk(sched::Explore(RandomWalk(), IngestorScenario));
}

// ---------------------------------------------------------------------------
// Scenario 3 — CuckooMap: concurrent inserts vs lock-free Size polling.
//
// Port of RaceStressTest.CuckooMapConcurrentWritersAndSizePolling. One
// shard, so both writers and the poll contend on the same lock and the
// same size counter. With the production atomic counter every schedule
// is clean; SchedCheckCuckooRace below flips the counter back to the
// pre-fix plain size_t and demands the checker find the race.
// ---------------------------------------------------------------------------

void CuckooScenario(sched::Test& t) {
  auto map = std::make_shared<CuckooMap<std::uint64_t>>(
      /*num_shards=*/1, /*initial_buckets_per_shard=*/2);
  t.Spawn("insert-a", [map] {
    map->With(1, [](std::uint64_t& v) { v = 10; });
  });
  t.Spawn("insert-b", [map] {
    map->With(2, [](std::uint64_t& v) { v = 20; });
    const std::size_t n = map->Size();
    sched::Check(n >= 1 && n <= 2, "size stays within inserted bounds");
  });
  t.AfterRun([map] {
    sched::Check(map->Size() == 2, "both inserts counted");
    sched::Check(map->Contains(1) && map->Contains(2), "both keys present");
  });
}

TEST(SchedCheckCuckoo, InsertsAndSizePollingAreCleanExhaustively) {
  const sched::Result r = sched::Explore(Exhaustive(), CuckooScenario);
  ExpectOk(r);
  EXPECT_GT(r.schedules, 1u);
}

TEST(SchedCheckCuckoo, InsertsAndSizePollingAreCleanUnderRandomWalk) {
  ExpectOk(sched::Explore(RandomWalk(), CuckooScenario));
}

/// Reintroduces the historical bug for the duration of one test: shard
/// sizes kept in a plain size_t, written under the shard lock but read
/// lock-free by Size().
struct ShardSizeRaceToggle {
  ShardSizeRaceToggle() { sched::SetCuckooShardSizeRace(true); }
  ~ShardSizeRaceToggle() { sched::SetCuckooShardSizeRace(false); }
};

TEST(SchedCheckCuckooRace, ReintroducedShardSizeRaceIsFoundDeterministically) {
  ShardSizeRaceToggle toggle;
  const sched::Result r1 = sched::Explore(Exhaustive(), CuckooScenario);
  ASSERT_FALSE(r1.ok) << "checker failed to find the reintroduced race";
  EXPECT_NE(r1.failure.find("data race"), std::string::npos) << r1.failure;
  EXPECT_FALSE(r1.trace.empty());
  EXPECT_FALSE(r1.choices.empty());

  // Determinism: a second full exploration finds the *same* schedule.
  const sched::Result r2 = sched::Explore(Exhaustive(), CuckooScenario);
  ASSERT_FALSE(r2.ok);
  EXPECT_EQ(r1.failing_index, r2.failing_index);
  EXPECT_EQ(r1.failure, r2.failure);
  EXPECT_EQ(r1.trace, r2.trace);
  EXPECT_EQ(r1.choices, r2.choices);

  // And the reported decision list replays to the identical failure.
  sched::Options replay;
  replay.replay = r1.choices;
  const sched::Result r3 = sched::Explore(replay, CuckooScenario);
  ASSERT_FALSE(r3.ok);
  EXPECT_EQ(r1.failure, r3.failure);
  EXPECT_EQ(r1.trace, r3.trace);
}

TEST(SchedCheckCuckooRace, ReintroducedShardSizeRaceIsFoundByRandomWalk) {
  ShardSizeRaceToggle toggle;
  sched::Options opts = RandomWalk();
  opts.max_schedules = 10000;  // plenty; typically found within a handful
  const sched::Result r = sched::Explore(opts, CuckooScenario);
  ASSERT_FALSE(r.ok) << "random walk (seed=" << opts.seed
                     << ") failed to find the reintroduced race";
  // Replays from (seed, failing_index) alone.
  sched::Options again = opts;
  again.start_index = r.failing_index;
  again.max_schedules = 1;
  const sched::Result rr = sched::Explore(again, CuckooScenario);
  ASSERT_FALSE(rr.ok);
  EXPECT_EQ(r.failure, rr.failure);
  EXPECT_EQ(r.trace, rr.trace);
  EXPECT_EQ(r.choices, rr.choices);
}

// ---------------------------------------------------------------------------
// Scenario 4 — SampleCache: valid hit vs stale-entry rebuild on one
// shard.
//
// Port of RaceStressTest.SampleCacheAdmissionEvictionRebuildChurn,
// honouring the cache's contract (tree mutations happen in quiescent
// gaps, here: before the threads start). tree1's entry is staled by a
// pre-scenario Remove, so one thread exercises the stale->rebuild->serve
// path while the other takes a valid hit on the same shard's LRU; the
// rebuilt entry must never serve the removed neighbour.
// ---------------------------------------------------------------------------

struct CacheState {
  CacheState()
      : cache(Config()),
        tree1(Samtree::BulkBuild({{1, 1.0}, {2, 1.0}})),
        tree2(Samtree::BulkBuild({{5, 1.0}, {6, 1.0}})) {
    // Admit both entries, then invalidate tree1's (quiescent gap — no
    // scenario thread is running yet).
    Xoshiro256 rng(3);
    std::vector<VertexId> out;
    cache.Sample(1, 0, tree1, /*weighted=*/false, 1, rng, &out);
    cache.Sample(2, 0, tree2, /*weighted=*/false, 1, rng, &out);
    tree1.Remove(2);
  }
  static SampleCacheConfig Config() {
    SampleCacheConfig c;
    c.capacity = 4;
    c.num_shards = 1;
    c.min_degree = 1;
    c.admit_after_misses = 0;
    return c;
  }
  SampleCache cache;
  Samtree tree1;
  Samtree tree2;
};

void CacheScenario(sched::Test& t) {
  auto s = std::make_shared<CacheState>();
  t.Spawn("stale-sampler", [s] {
    Xoshiro256 rng(7);
    std::vector<VertexId> out;
    const bool served =
        s->cache.Sample(1, 0, s->tree1, /*weighted=*/false, 3, rng, &out);
    sched::Check(served, "stale entry is rebuilt and served, not dropped");
    for (const VertexId v : out) {
      sched::Check(v == 1, "rebuilt entry never serves the removed neighbour");
    }
  });
  t.Spawn("hot-sampler", [s] {
    Xoshiro256 rng(9);
    std::vector<VertexId> out;
    const bool served =
        s->cache.Sample(2, 0, s->tree2, /*weighted=*/false, 3, rng, &out);
    sched::Check(served, "valid entry is a hit");
    for (const VertexId v : out) {
      sched::Check(v == 5 || v == 6, "hit serves the live neighbourhood");
    }
  });
  t.AfterRun([s] {
    const SampleCacheStats stats = s->cache.Stats();
    // 2 warm-up misses + 1 stale hit + 1 valid hit; every call in
    // exactly one bucket, rebuilds mirror stale hits.
    sched::Check(stats.misses == 2, "warm-up misses counted");
    sched::Check(stats.hits == 1, "exactly one valid hit");
    sched::Check(stats.stale_hits == 1, "exactly one stale hit");
    sched::Check(stats.rebuilds == stats.stale_hits,
                 "every stale hit was rebuilt in place");
    sched::Check(stats.evictions == 0, "capacity 4 never evicts 2 entries");
    sched::Check(s->cache.size() == 2, "both entries resident");
  });
}

TEST(SchedCheckSampleCache, HitAndInvalidationRebuildAreCleanExhaustively) {
  const sched::Result r = sched::Explore(Exhaustive(), CacheScenario);
  ExpectOk(r);
  EXPECT_GT(r.schedules, 1u);
}

TEST(SchedCheckSampleCache, HitAndInvalidationRebuildAreCleanUnderRandomWalk) {
  ExpectOk(sched::Explore(RandomWalk(), CacheScenario));
}

// ---------------------------------------------------------------------------
// Scenario 5 — ReplicationManager: failover promotion racing the epoch
// barrier.
//
// Promotion swaps the primary's store under cutover->BeginWrite(); the
// replica read path pins cutover->PinRead() *while already holding the
// shard's replication mutex* — the same lock order promotion uses, so
// the checker proves the pair can never ABBA-deadlock. A third thread
// holds a bare read pin (the cluster's client-serial read path), forcing
// the promoter to wait at the barrier in some schedules; write
// preference must still terminate every schedule, and the promoted
// store must serve exactly the replicated edges.
// ---------------------------------------------------------------------------

struct PromoteState {
  PromoteState() : injector({}, /*num_shards=*/1) {
    platod2gl::ReplicationConfig rc;
    rc.num_replicas = 1;
    rc.suspicion_timeout_us = 100;
    rc.staleness_budget = 0;  // only a fully caught-up replica may serve
    mgr = std::make_unique<platod2gl::ReplicationManager>(
        rc, platod2gl::GraphStoreConfig{},
        std::vector<platod2gl::GraphShard*>{&primary}, &injector, &coord);
    using platod2gl::UpdateKind;
    primary.ApplyBatch(std::vector<platod2gl::EdgeUpdate>{
        {UpdateKind::kInsert, Edge{1, 2, 1.0, 0}},
        {UpdateKind::kInsert, Edge{1, 3, 2.0, 0}}});
    mgr->Kick();  // fault-free sync ship: replica is caught up at seq 2
    injector.CrashShard(0);
    primary.Crash();
    mgr->AdvanceTime(1);  // first observation starts the suspicion clock
  }
  platod2gl::GraphShard primary;
  platod2gl::FaultInjector injector;
  EpochCoordinator coord;
  std::unique_ptr<platod2gl::ReplicationManager> mgr;
  std::size_t failovers = 0;
};

void PromoteScenario(sched::Test& t) {
  auto s = std::make_shared<PromoteState>();
  t.Spawn("promoter", [s] {
    const auto hr = s->mgr->AdvanceTime(200);  // suspicion timeout elapsed
    s->failovers = hr.failovers;
  });
  t.Spawn("replica-reader", [s] {
    platod2gl::NeighborBatch drawn;
    drawn.offsets.push_back(0);
    const auto serve = s->mgr->SampleFromReplica(0, {1}, /*fanout=*/2,
                                                 /*weighted=*/false,
                                                 /*rng_seed=*/42, 0, &drawn);
    if (serve.has_value()) {
      // Served before the promotion consumed the replica: caught up
      // (budget 0) and drawn from the replicated neighbourhood.
      sched::Check(serve->lag == 0, "budget 0 only admits a caught-up serve");
      sched::Check(drawn.NumSeeds() == 1, "one range per seed");
      for (const VertexId v : drawn.neighbors) {
        sched::Check(v == 2 || v == 3, "replica serves replicated edges only");
      }
    }
    // else: promotion won the shard mutex first and emptied the slot.
  });
  t.Spawn("pinned-reader", [s] {
    auto g = s->coord.PinRead();
    sched::Check(s->coord.epoch() == g.epoch(),
                 "epoch is stable while the read pin is held");
    sched::Check(s->coord.writers_waiting() <= 1,
                 "at most the promoter is parked at the barrier");
  });
  t.AfterRun([s] {
    sched::Check(s->failovers == 1, "exactly one promotion happened");
    sched::Check(s->coord.epoch() == 1, "promotion ran under the barrier");
    sched::Check(s->coord.writers_waiting() == 0, "barrier drained");
    sched::Check(s->coord.readers_active() == 0, "all readers unpinned");
    sched::Check(!s->primary.crashed(), "promoted store is serving");
    Xoshiro256 rng(5);
    std::vector<VertexId> out;
    sched::Check(s->primary.SampleNeighbors(1, 2, /*weighted=*/false, rng,
                                            &out, 0),
                 "promoted primary serves the shard");
    for (const VertexId v : out) {
      sched::Check(v == 2 || v == 3,
                   "promoted store holds exactly the replicated edges");
    }
  });
}

TEST(SchedCheckReplication, PromotionVsEpochBarrierIsCleanExhaustively) {
  // Promotion + store sampling are long threads (many sync ops each), so
  // bound 2 explodes to minutes; one preemption already covers the
  // interesting handoffs (mutex acquisition order, barrier park/resume).
  // The random-walk companion covers deeper interleavings.
  const sched::Result r =
      sched::Explore(Exhaustive(/*preemption_bound=*/1), PromoteScenario);
  ExpectOk(r);
  EXPECT_GT(r.schedules, 1u);
}

TEST(SchedCheckReplication, PromotionVsEpochBarrierUnderRandomWalk) {
  ExpectOk(sched::Explore(RandomWalk(), PromoteScenario));
}

// ---------------------------------------------------------------------------
// Scenario 6 — AdmissionController: submitter probe vs Release vs Close.
//
// The serving layer's admission window (src/serve/admission.h) keeps its
// books under one mutex while the closed flag is a separate atomic. A
// full 1-slot window; a submitter probes it with TryAdmit while Release()
// frees the only slot and Close() shuts the window. Whoever wins, the
// verdict must be one the policy matrix can report, every outcome must be
// counted exactly once, the window occupancy must balance admissions
// minus releases, and a close must stay closed.
// ---------------------------------------------------------------------------

struct AdmissionState {
  AdmissionState() : ac(Config()) {
    // Fill the 1-slot window before any scenario thread runs, so the
    // submitter below finds it full in schedules where it goes first.
    verdict0 = ac.TryAdmit(/*tenant=*/0);
  }
  static platod2gl::serve::AdmissionConfig Config() {
    platod2gl::serve::AdmissionConfig c;
    c.max_in_flight = 1;
    c.tenant_quota = 1;
    return c;
  }
  platod2gl::serve::AdmissionController ac;
  platod2gl::serve::AdmissionController::Verdict verdict0;
  platod2gl::serve::AdmissionController::Verdict verdict =
      platod2gl::serve::AdmissionController::Verdict::kQuotaFull;
};

void AdmissionWindowScenario(sched::Test& t) {
  using Verdict = platod2gl::serve::AdmissionController::Verdict;
  auto s = std::make_shared<AdmissionState>();
  sched::Check(s->verdict0 == Verdict::kAdmitted, "pre-fill took the slot");
  t.Spawn("submitter", [s] { s->verdict = s->ac.TryAdmit(1); });
  t.Spawn("releaser", [s] { s->ac.Release(0); });
  t.Spawn("closer", [s] { s->ac.Close(); });
  t.AfterRun([s] {
    using Verdict = platod2gl::serve::AdmissionController::Verdict;
    sched::Check(s->verdict == Verdict::kAdmitted ||
                     s->verdict == Verdict::kWindowFull ||
                     s->verdict == Verdict::kClosed,
                 "a probe lands, finds the window full or observes the close");
    const auto stats = s->ac.Stats();
    const std::uint64_t admitted =
        1 + (s->verdict == Verdict::kAdmitted ? 1u : 0u);
    sched::Check(stats.admitted == admitted, "admissions counted exactly");
    sched::Check(stats.window_rejects ==
                     (s->verdict == Verdict::kWindowFull ? 1u : 0u),
                 "a full-window verdict is a counted window-reject");
    sched::Check(stats.quota_rejects == 0, "tenant 1 is never over quota");
    sched::Check(stats.closed_rejects ==
                     (s->verdict == Verdict::kClosed ? 1u : 0u),
                 "a closed verdict is a counted close-reject");
    // One Release for the pre-filled slot: whatever the submitter won is
    // still in flight.
    sched::Check(s->ac.in_flight() == admitted - 1,
                 "window occupancy balances admissions minus releases");
    sched::Check(s->ac.closed(), "close is sticky");
    sched::Check(s->ac.TryAdmit(2) == Verdict::kClosed,
                 "new arrivals observe the close");
  });
}

TEST(SchedCheckAdmission, ProbeReleaseAndCloseBalanceTheBooksExhaustively) {
  const sched::Result r = sched::Explore(Exhaustive(), AdmissionWindowScenario);
  ExpectOk(r);
  EXPECT_GT(r.schedules, 1u);
}

TEST(SchedCheckAdmission, WindowBooksBalanceUnderRandomWalk) {
  ExpectOk(sched::Explore(RandomWalk(), AdmissionWindowScenario));
}

// ---------------------------------------------------------------------------
// Scenario 7 — RequestBatcher: Close() racing two Enqueues.
//
// Enqueue's closed check and its push must be one critical section: an
// unlocked check-then-lock would let Close() land in the gap and strand
// an "accepted" request in a queue nothing will ever drain. Every
// schedule checks the no-stranding invariant directly: a force-formed
// batch after the race returns exactly the accepted requests.
// ---------------------------------------------------------------------------

struct BatcherState {
  BatcherState() : b(Config()) {}
  static platod2gl::serve::BatcherConfig Config() {
    platod2gl::serve::BatcherConfig c;
    c.max_batch = 4;
    c.window_us = 10;
    return c;
  }
  static platod2gl::serve::PendingRequest Pending(std::uint32_t tenant) {
    platod2gl::serve::PendingRequest p;
    p.request.tenant = tenant;
    p.request.request_id = tenant;
    return p;
  }
  platod2gl::serve::RequestBatcher b;
  Status st1 = Status::Ok();
  Status st2 = Status::Ok();
};

void BatcherCloseScenario(sched::Test& t) {
  auto s = std::make_shared<BatcherState>();
  t.Spawn("submitter-a", [s] { s->st1 = s->b.Enqueue(BatcherState::Pending(0), 0); });
  t.Spawn("submitter-b", [s] { s->st2 = s->b.Enqueue(BatcherState::Pending(1), 0); });
  t.Spawn("closer", [s] { s->b.Close(); });
  t.AfterRun([s] {
    const std::uint64_t accepted = (s->st1.ok() ? 1u : 0u) +
                                   (s->st2.ok() ? 1u : 0u);
    for (const Status* st : {&s->st1, &s->st2}) {
      sched::Check(st->ok() || st->code() == StatusCode::kUnavailable,
                   "enqueue either lands or observes the close");
    }
    const auto stats = s->b.Stats();
    sched::Check(stats.enqueued == accepted, "accepted enqueues counted");
    sched::Check(stats.closed_rejects == 2 - accepted,
                 "every refused enqueue is a counted close-reject");
    // The no-stranding invariant: a drain recovers exactly what was
    // accepted, even though the batcher is closed.
    const auto batch = s->b.FormBatch(/*now_us=*/0, /*force=*/true);
    sched::Check(batch.size() == accepted,
                 "force-formed batch returns every accepted request");
    sched::Check(s->b.Depth() == 0, "queue empty after the drain");
  });
}

TEST(SchedCheckBatcher, CloseVsEnqueueNeverStrandsARequest) {
  const sched::Result r = sched::Explore(Exhaustive(), BatcherCloseScenario);
  ExpectOk(r);
  EXPECT_GT(r.schedules, 1u);
}

TEST(SchedCheckBatcher, CloseVsEnqueueUnderRandomWalk) {
  ExpectOk(sched::Explore(RandomWalk(), BatcherCloseScenario));
}

}  // namespace
