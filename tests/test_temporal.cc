// TemporalEdgeLog tests: the G^(t) dynamic-graph series semantics.
#include "temporal/edge_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <span>
#include <vector>

#include "common/random.h"
#include "gen/generators.h"

namespace platod2gl {
namespace {

TEST(TemporalLogTest, AppendEnforcesMonotoneTime) {
  TemporalEdgeLog log;
  EXPECT_TRUE(log.AppendInsert(5, {1, 2, 1.0, 0}).ok());
  EXPECT_TRUE(log.AppendInsert(5, {1, 3, 1.0, 0}).ok());  // equal time is fine
  EXPECT_TRUE(log.AppendInsert(9, {1, 4, 1.0, 0}).ok());
  const Status rejected = log.AppendInsert(7, {1, 5, 1.0, 0});
  EXPECT_FALSE(rejected.ok());  // regression rejected, not silently dropped
  EXPECT_EQ(rejected.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.MinTimestamp(), 5u);
  EXPECT_EQ(log.MaxTimestamp(), 9u);
}

TEST(TemporalLogTest, RejectedAppendsAreCounted) {
  TemporalEdgeLog log;
  EXPECT_EQ(log.rejected(), 0u);
  ASSERT_TRUE(log.AppendInsert(10, {1, 2, 1.0, 0}).ok());
  EXPECT_FALSE(log.AppendInsert(9, {1, 3, 1.0, 0}).ok());
  EXPECT_FALSE(log.AppendInsert(3, {1, 4, 1.0, 0}).ok());
  EXPECT_EQ(log.rejected(), 2u);
  EXPECT_EQ(log.size(), 1u);  // rejected updates are not stored
  EXPECT_TRUE(log.AppendInsert(10, {1, 5, 1.0, 0}).ok());
  EXPECT_EQ(log.rejected(), 2u);
}

TEST(TemporalLogTest, TruncateThroughDropsCoveredPrefix) {
  TemporalEdgeLog log;
  for (std::uint64_t t = 1; t <= 10; ++t) {
    ASSERT_TRUE(log.AppendInsert(t, {1, 100 + t, 1.0, 0}).ok());
  }
  // A checkpoint at t=6 makes the prefix redundant for recovery.
  EXPECT_EQ(log.TruncateThrough(6), 6u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.MinTimestamp(), 7u);
  // Replay past the checkpoint still works unchanged.
  GraphStore g;
  EXPECT_EQ(log.ReplayInto(&g, 6, 10), 4u);
  EXPECT_EQ(g.NumEdges(), 4u);
  // Truncating everything leaves an empty but usable log.
  EXPECT_EQ(log.TruncateThrough(99), 4u);
  EXPECT_TRUE(log.empty());
  EXPECT_TRUE(log.AppendInsert(50, {2, 3, 1.0, 0}).ok());
}

TEST(TemporalLogTest, TruncationWatermarkSurvivesEmptyTruncates) {
  TemporalEdgeLog log;
  EXPECT_EQ(log.truncated_through(), 0u);
  for (std::uint64_t t = 1; t <= 10; ++t) {
    ASSERT_TRUE(log.AppendInsert(t, {1, 100 + t, 1.0, 0}).ok());
  }
  log.TruncateThrough(6);
  EXPECT_EQ(log.truncated_through(), 6u);
  // Truncating an already-erased prefix drops nothing but must keep the
  // watermark monotone (a second checkpoint at the same sequence).
  log.TruncateThrough(6);
  EXPECT_EQ(log.truncated_through(), 6u);
  log.TruncateThrough(3);  // older checkpoint replayed late: no regression
  EXPECT_EQ(log.truncated_through(), 6u);
  log.TruncateThrough(8);
  EXPECT_EQ(log.truncated_through(), 8u);
}

TEST(TemporalLogTest, CheckedReplayRefusesWindowBelowTruncation) {
  // Regression for the checkpoint/TruncateThrough off-by-one: a bootstrap
  // covering sequences <= 6 may replay (6, head] — but a caller whose
  // coverage ends at 5 must be refused when the prefix through 6 is gone,
  // or entry 6 would be silently skipped (a watermark gap).
  TemporalEdgeLog log;
  for (std::uint64_t t = 1; t <= 10; ++t) {
    ASSERT_TRUE(log.AppendInsert(t, {1, 100 + t, 1.0, 0}).ok());
  }
  log.TruncateThrough(6);

  GraphStore ok_store;
  std::size_t applied = 0;
  // Boundary-legal: from == truncated_through() — nothing missing.
  ASSERT_TRUE(log.CheckedReplayInto(&ok_store, 6, 10, &applied).ok());
  EXPECT_EQ(applied, 4u);
  EXPECT_EQ(ok_store.NumEdges(), 4u);

  // The off-by-one: from == truncated_through() - 1 needs entry 6, which
  // the truncation erased. This must surface as data loss, not a replay
  // of 4 entries that quietly lost one.
  GraphStore gap_store;
  applied = 1234;
  const Status s = log.CheckedReplayInto(&gap_store, 5, 10, &applied);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(gap_store.NumEdges(), 0u) << "no partial replay on refusal";

  // Far below the watermark: refused just the same.
  EXPECT_EQ(log.CheckedReplayInto(&gap_store, 0, 10, nullptr).code(),
            StatusCode::kDataLoss);
}

TEST(TemporalLogTest, SnapshotReconstructsGraphAtT) {
  TemporalEdgeLog log;
  log.AppendInsert(1, {1, 2, 1.0, 0});
  log.AppendInsert(2, {1, 3, 1.0, 0});
  log.Append(3, {UpdateKind::kInPlaceUpdate, Edge{1, 2, 9.0, 0}});
  log.Append(4, {UpdateKind::kDelete, Edge{1, 3, 0.0, 0}});

  // G^(2): both edges, original weights.
  GraphStore g2;
  EXPECT_EQ(log.SnapshotInto(&g2, 2), 2u);
  EXPECT_NEAR(*g2.EdgeWeight(1, 2), 1.0, 1e-12);
  EXPECT_TRUE(g2.HasEdge(1, 3));

  // G^(3): weight updated.
  GraphStore g3;
  EXPECT_EQ(log.SnapshotInto(&g3, 3), 3u);
  EXPECT_NEAR(*g3.EdgeWeight(1, 2), 9.0, 1e-12);

  // G^(4): edge 1->3 gone.
  GraphStore g4;
  EXPECT_EQ(log.SnapshotInto(&g4, 4), 4u);
  EXPECT_FALSE(g4.HasEdge(1, 3));
  EXPECT_EQ(g4.NumEdges(), 1u);
}

TEST(TemporalLogTest, ReplayRollsForwardIncrementally) {
  // Snapshot at t then replay (t, t'] must equal a snapshot at t'.
  TemporalEdgeLog log;
  Xoshiro256 rng(3);
  UniformParams p;
  p.num_vertices = 50;
  p.num_edges = 400;
  auto base = GenerateUniform(p);
  DedupEdges(&base);
  std::uint64_t t = 0;
  for (const Edge& e : base) log.AppendInsert(++t, e);
  UpdateStreamParams sp;
  sp.num_ops = 300;
  for (const EdgeUpdate& u : MakeUpdateStream(base, sp)) {
    log.Append(++t, u);
  }

  const std::uint64_t mid = t / 2;
  GraphStore rolled;
  log.SnapshotInto(&rolled, mid);
  log.ReplayInto(&rolled, mid, t);

  GraphStore direct;
  log.SnapshotInto(&direct, t);

  EXPECT_EQ(rolled.NumEdges(), direct.NumEdges());
  std::map<VertexId, std::map<VertexId, Weight>> a, b;
  rolled.topology(0).ForEachSource([&](VertexId s, const Samtree& tr) {
    for (const auto& [d, w] : tr.Neighbors()) a[s][d] = w;
  });
  direct.topology(0).ForEachSource([&](VertexId s, const Samtree& tr) {
    for (const auto& [d, w] : tr.Neighbors()) b[s][d] = w;
  });
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [s, nbrs] : a) {
    for (const auto& [d, w] : nbrs) {
      ASSERT_NEAR(b.at(s).at(d), w, 1e-9) << s << "->" << d;
    }
  }
}

TEST(TemporalLogTest, WindowReturnsHalfOpenRange) {
  TemporalEdgeLog log;
  for (std::uint64_t ts : {1u, 2u, 2u, 5u, 7u}) {
    log.AppendInsert(ts, {ts, ts + 1, 1.0, 0});
  }
  const auto window = log.Window(2, 5);  // (2, 5] -> only ts=5
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0].timestamp, 5u);
  const auto all = log.Window(0, 100);
  EXPECT_EQ(all.size(), 5u);
  EXPECT_TRUE(log.Window(7, 100).empty());
}

TEST(TemporalLogTest, EmptyLogBehaviour) {
  TemporalEdgeLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.MinTimestamp(), 0u);
  GraphStore g;
  EXPECT_EQ(log.SnapshotInto(&g, 100), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(TemporalLogTest, AppendBatchMatchesPerEntryAppend) {
  // AppendBatch must be entry-for-entry equivalent to Append in a loop:
  // same accepted entries, same rejected count, in one scan.
  Xoshiro256 rng(21);
  std::vector<TimedUpdate> batch;
  std::uint64_t ts = 5;
  for (int i = 0; i < 500; ++i) {
    // Mostly monotone, with occasional regressions to exercise rejects.
    ts = rng.NextUint64(20) == 0 ? ts - std::min<std::uint64_t>(ts, 3)
                                 : ts + rng.NextUint64(3);
    batch.push_back(TimedUpdate{
        ts, EdgeUpdate{UpdateKind::kInsert,
                       {rng.NextUint64(50), rng.NextUint64(50), 1.0, 0}}});
  }

  TemporalEdgeLog batched, looped;
  ASSERT_TRUE(batched.AppendInsert(4, {1, 2, 1.0, 0}).ok());
  ASSERT_TRUE(looped.AppendInsert(4, {1, 2, 1.0, 0}).ok());
  const std::size_t accepted =
      batched.AppendBatch(std::span<const TimedUpdate>(batch));
  std::size_t accepted_loop = 0;
  for (const TimedUpdate& e : batch) {
    if (looped.Append(e.timestamp, e.update).ok()) ++accepted_loop;
  }

  EXPECT_EQ(accepted, accepted_loop);
  ASSERT_EQ(batched.size(), looped.size());
  EXPECT_EQ(batched.rejected(), looped.rejected());
  EXPECT_GT(batched.rejected(), 0u);  // the trace did regress somewhere
  const auto wa = batched.Window(0, ts + 10);
  const auto wb = looped.Window(0, ts + 10);
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].timestamp, wb[i].timestamp);
    EXPECT_EQ(wa[i].update.edge.src, wb[i].update.edge.src);
    EXPECT_EQ(wa[i].update.edge.dst, wb[i].update.edge.dst);
  }
}

TEST(TemporalLogTest, AppendBatchOnEmptyLogAndEmptyBatch) {
  TemporalEdgeLog log;
  EXPECT_EQ(log.AppendBatch({}), 0u);
  EXPECT_TRUE(log.empty());

  const std::vector<TimedUpdate> batch{
      {7, EdgeUpdate{UpdateKind::kInsert, {1, 2, 1.0, 0}}},
      {7, EdgeUpdate{UpdateKind::kInsert, {1, 3, 1.0, 0}}},
      {9, EdgeUpdate{UpdateKind::kDelete, {1, 2, 0.0, 0}}}};
  EXPECT_EQ(log.AppendBatch(std::span<const TimedUpdate>(batch)), 3u);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.MinTimestamp(), 7u);
  EXPECT_EQ(log.MaxTimestamp(), 9u);
  EXPECT_EQ(log.rejected(), 0u);

  // A later batch starting below the tail loses its stale prefix only.
  const std::vector<TimedUpdate> late{
      {8, EdgeUpdate{UpdateKind::kInsert, {2, 1, 1.0, 0}}},
      {9, EdgeUpdate{UpdateKind::kInsert, {2, 2, 1.0, 0}}},
      {12, EdgeUpdate{UpdateKind::kInsert, {2, 3, 1.0, 0}}}};
  EXPECT_EQ(log.AppendBatch(std::span<const TimedUpdate>(late)), 2u);
  EXPECT_EQ(log.rejected(), 1u);
  EXPECT_EQ(log.MaxTimestamp(), 12u);
}

TEST(TemporalLogTest, AppendBatchGrowsGeometrically) {
  // The MicroBatcher appends many small batches. Reserving exactly
  // size() + batch.size() would reallocate, copying the whole log, on
  // every one of them; geometric growth reallocates O(log n) times.
  constexpr std::size_t kBatches = 1000;
  constexpr std::size_t kBatchSize = 4;
  TemporalEdgeLog log;
  std::vector<TimedUpdate> batch(kBatchSize);
  std::uint64_t ts = 0;
  std::size_t growths = 0;
  std::size_t memory = log.MemoryUsage();
  for (std::size_t b = 0; b < kBatches; ++b) {
    for (TimedUpdate& e : batch) {
      e = TimedUpdate{++ts, EdgeUpdate{UpdateKind::kInsert, {b, ts, 1.0, 0}}};
    }
    ASSERT_EQ(log.AppendBatch(std::span<const TimedUpdate>(batch)),
              kBatchSize);
    if (log.MemoryUsage() != memory) {
      ++growths;
      memory = log.MemoryUsage();
    }
  }
  EXPECT_EQ(log.size(), kBatches * kBatchSize);
  // Doubling from the first batch: 4, 8, ..., 4096 entries.
  EXPECT_LE(growths, 1 + std::bit_width(kBatches * kBatchSize));
  EXPECT_GE(log.MemoryUsage(), log.size() * sizeof(TimedUpdate));
}

}  // namespace
}  // namespace platod2gl
