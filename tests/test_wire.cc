// Wire-format codec tests: round-trips, format pinning and corruption
// rejection, plus the cluster's byte accounting matching the codec.
#include "dist/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dist/cluster.h"
#include "temporal/edge_log.h"

namespace platod2gl {
namespace {

TEST(WireTest, SampleRequestRoundTrip) {
  wire::SampleRequest req;
  req.edge_type = 3;
  req.fanout = 25;
  req.weighted = false;
  req.seeds = {1, 0xFFFFFFFFFFFFFFFEULL, 42};

  const std::string bytes = wire::EncodeSampleRequest(req);
  // Pinned layout: 1 tag + 4 type + 4 fanout + 1 weighted + 4 count +
  // 3 * 8 seeds.
  EXPECT_EQ(bytes.size(), 14u + 3 * 8u);
  EXPECT_EQ(bytes[0], 'S');

  wire::SampleRequest decoded;
  ASSERT_TRUE(wire::DecodeSampleRequest(bytes, &decoded));
  EXPECT_EQ(decoded, req);
}

TEST(WireTest, SampleResponseRoundTrip) {
  NeighborBatch batch;
  batch.neighbors = {10, 20, 30, 40};
  batch.offsets = {0, 2, 2, 4};  // middle seed empty

  const std::string bytes = wire::EncodeSampleResponse(batch);
  EXPECT_EQ(bytes[0], 'R');
  NeighborBatch decoded;
  ASSERT_TRUE(wire::DecodeSampleResponse(bytes, &decoded));
  EXPECT_EQ(decoded.neighbors, batch.neighbors);
  EXPECT_EQ(decoded.offsets, batch.offsets);

  wire::FeatureBatch rows;
  rows.values = {0.5f, -2.0f, 7.25f};
  rows.offsets = {0, 0, 3};  // first row empty
  const std::string row_bytes = wire::EncodeSampleResponse(rows);
  EXPECT_EQ(row_bytes[0], 'F');
  wire::FeatureBatch rows_decoded;
  ASSERT_TRUE(wire::DecodeSampleResponse(row_bytes, &rows_decoded));
  EXPECT_EQ(rows_decoded.values, rows.values);
  EXPECT_EQ(rows_decoded.offsets, rows.offsets);
}

TEST(WireTest, SampleResponseBytesMatchesEncoder) {
  // The cluster sizes delivered responses with SampleResponseBytes instead
  // of encoding them; it must agree with the encoder byte for byte.
  std::vector<NeighborBatch> cases(4);
  cases[1].offsets = {0};        // zero seeds
  cases[2].offsets = {0, 0, 0};  // only empty ranges
  cases[3].neighbors = {10, 20, 30, 40, 50};
  cases[3].offsets = {0, 2, 2, 5, 5};  // empty ranges between and after
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(wire::SampleResponseBytes(cases[i]),
              wire::EncodeSampleResponse(cases[i]).size())
        << "case " << i;
  }
  // A gather reply: the same layout over 4-byte feature values.
  wire::FeatureBatch rows;
  rows.values = {1.0f, 2.0f, 3.0f};
  rows.offsets = {0, 2, 2, 3};
  EXPECT_EQ(wire::SampleResponseBytes(rows),
            wire::EncodeSampleResponse(rows).size());
  EXPECT_EQ(wire::SampleResponseBytes(rows), 5u + 3 * 4u + 3 * 4u);
}

TEST(WireTest, RequestSizeHelpersMatchEncoders) {
  // The cluster sizes the requests it sends with these helpers instead of
  // encoding them; they must agree with the encoders byte for byte.
  for (std::size_t n : {0, 1, 7}) {
    wire::SampleRequest req;
    req.seeds.assign(n, 42);
    EXPECT_EQ(wire::SampleRequestBytes(n),
              wire::EncodeSampleRequest(req).size())
        << n << " seeds";
    const std::vector<EdgeUpdate> batch(
        n, {UpdateKind::kInsert, Edge{1, 2, 1.0, 0}});
    EXPECT_EQ(wire::UpdateBatchBytes(n), wire::EncodeUpdateBatch(batch).size())
        << n << " updates";
  }
}

TEST(WireTest, UpdateBatchRoundTrip) {
  std::vector<EdgeUpdate> batch = {
      {UpdateKind::kInsert, Edge{1, 2, 0.5, 0}},
      {UpdateKind::kInPlaceUpdate, Edge{3, 4, 2.5, 1}},
      {UpdateKind::kDelete, Edge{5, 6, 0.0, 2}},
  };
  const std::string bytes = wire::EncodeUpdateBatch(batch);
  EXPECT_EQ(bytes.size(), 5u + 3 * 29u) << "pinned 29-byte update records";

  std::vector<EdgeUpdate> decoded;
  ASSERT_TRUE(wire::DecodeUpdateBatch(bytes, &decoded));
  ASSERT_EQ(decoded.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded[i].kind, batch[i].kind) << i;
    EXPECT_EQ(decoded[i].edge, batch[i].edge) << i;
  }
}

// The shipping path encodes straight from a WAL window; tests, fuzzers and
// the decoder's round trips use the struct encoder. Both must write the
// same bytes for the same entries, whatever version they stamp.
TEST(WireTest, RepLogAppendWindowMatchesStructEncoder) {
  std::vector<TimedUpdate> window;
  for (std::uint64_t i = 0; i < 5; ++i) {
    window.push_back(
        {100 + i, {static_cast<UpdateKind>(i % 3),
                   Edge{i, 7 * i + 1, 0.25 * static_cast<double>(i + 1),
                        static_cast<EdgeType>(i % 2)}}});
  }
  for (const std::uint8_t version : {wire::kReplicationWireVersion,
                                     std::uint8_t{99}}) {
    for (const std::uint64_t first_seq :
         {std::uint64_t{1}, std::uint64_t{42}, std::uint64_t{1} << 40}) {
      for (std::size_t count = 0; count <= window.size(); ++count) {
        wire::RepLogAppend msg;
        msg.shard = 3;
        for (std::size_t i = 0; i < count; ++i) {
          msg.entries.push_back({first_seq + i, window[i].update});
        }
        EXPECT_EQ(wire::EncodeRepLogAppendWindow(3, first_seq, window.data(),
                                                 count, version),
                  wire::EncodeRepLogAppend(msg, version))
            << "version " << int{version} << ", first seq " << first_seq
            << ", " << count << " entries";
      }
    }
  }
}

TEST(WireTest, EmptyMessages) {
  wire::SampleRequest req;
  wire::SampleRequest decoded;
  ASSERT_TRUE(
      wire::DecodeSampleRequest(wire::EncodeSampleRequest(req), &decoded));
  EXPECT_TRUE(decoded.seeds.empty());

  std::vector<EdgeUpdate> batch, out;
  ASSERT_TRUE(
      wire::DecodeUpdateBatch(wire::EncodeUpdateBatch(batch), &out));
  EXPECT_TRUE(out.empty());
}

TEST(WireTest, CorruptionRejected) {
  wire::SampleRequest req;
  req.seeds = {1, 2, 3};
  std::string bytes = wire::EncodeSampleRequest(req);

  wire::SampleRequest sink;
  // Wrong tag.
  std::string wrong = bytes;
  wrong[0] = 'U';
  EXPECT_FALSE(wire::DecodeSampleRequest(wrong, &sink));
  // Truncated.
  EXPECT_FALSE(
      wire::DecodeSampleRequest(bytes.substr(0, bytes.size() - 3), &sink));
  // Trailing garbage.
  EXPECT_FALSE(wire::DecodeSampleRequest(bytes + "x", &sink));
  // Empty.
  EXPECT_FALSE(wire::DecodeSampleRequest("", &sink));

  std::vector<EdgeUpdate> batch_sink;
  std::string upd = wire::EncodeUpdateBatch(
      {{UpdateKind::kInsert, Edge{1, 2, 1.0, 0}}});
  upd[5] = 9;  // invalid UpdateKind
  EXPECT_FALSE(wire::DecodeUpdateBatch(upd, &batch_sink));
}

TEST(WireTest, ClusterByteAccountingMatchesCodec) {
  GraphCluster cluster(ClusterConfig{.num_shards = 2});
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 100; ++s) {
    batch.push_back({UpdateKind::kInsert, Edge{s, s + 1000, 1.0, 0}});
  }
  cluster.ApplyBatch(batch);

  // Reconstruct what the codec would have shipped per shard.
  std::uint64_t expect_sent = 0;
  std::vector<std::vector<EdgeUpdate>> groups(2);
  for (const EdgeUpdate& u : batch) {
    groups[cluster.partitioner().ShardOf(u.edge.src)].push_back(u);
  }
  for (const auto& g : groups) {
    if (!g.empty()) expect_sent += wire::EncodeUpdateBatch(g).size();
  }
  EXPECT_EQ(cluster.stats().bytes_sent, expect_sent);

  // Sampling responses ship the neighbour payload back.
  const auto before = cluster.stats().bytes_received;
  cluster.SampleNeighbors({1, 2, 3}, 4, true, 9);
  EXPECT_GT(cluster.stats().bytes_received, before + 3 * 4u);
}

TEST(WireTest, BatchedRoundReceivesOneResponsePerShard) {
  // A cross-request round answers each shard's RPC with ONE flat
  // SampleResponse holding every item's ranges: one header per shard,
  // then 4 B length + 8 B per draw for each seed.
  GraphCluster cluster(ClusterConfig{.num_shards = 2});
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 100; ++s) {
    batch.push_back({UpdateKind::kInsert, Edge{s, s + 1000, 1.0, 0}});
  }
  ASSERT_TRUE(cluster.ApplyBatch(batch).ok());

  const std::vector<std::vector<VertexId>> seeds = {
      {1, 2, 3, 4, 5}, {6, 7, 8, 9}, {10, 1, 1}};
  const std::size_t fanouts[] = {4, 2, 3};
  std::vector<SampleWorkItem> work(seeds.size());
  std::vector<std::uint64_t> expect(cluster.num_shards(), 0);
  for (std::size_t i = 0; i < work.size(); ++i) {
    work[i].seeds = &seeds[i];
    work[i].fanout = fanouts[i];
    work[i].rng_seed = i;
    for (VertexId v : seeds[i]) {
      expect[cluster.partitioner().ShardOf(v)] += 4 + 8 * fanouts[i];
    }
  }
  std::uint64_t expect_received = 0;
  for (std::uint64_t per_shard : expect) {
    if (per_shard > 0) expect_received += 1 + 4 + per_shard;
  }
  ASSERT_EQ(std::count(expect.begin(), expect.end(), 0u), 0)
      << "both shards take part";

  const auto before = cluster.stats().bytes_received;
  const MultiSampleReport multi = cluster.SampleMany(work);
  ASSERT_EQ(multi.reports.size(), work.size());
  EXPECT_EQ(cluster.stats().bytes_received - before, expect_received);
}

TEST(WireTest, BatchedGatherRoundReceivesOneResponsePerShard) {
  // A gather round answers each shard's RPC with ONE flat reply in the
  // SampleResponse layout: one header per shard, then 4 B length + 4 B
  // per feature value for each row (ids without features: empty rows).
  GraphCluster cluster(ClusterConfig{.num_shards = 2});
  const auto width = [](VertexId v) -> std::size_t {
    return v <= 10 ? v % 3 + 1 : 0;
  };
  for (VertexId v = 1; v <= 10; ++v) {
    cluster.shard(cluster.partitioner().ShardOf(v))
        .store()
        .attributes()
        .SetFeatures(v, std::vector<float>(width(v), 0.5f));
  }

  const std::vector<std::vector<VertexId>> ids = {
      {1, 2, 3, 4, 5}, {6, 7, 8, 99}, {10, 1, 1}};
  std::vector<GatherWorkItem> work(ids.size());
  std::vector<std::uint64_t> expect(cluster.num_shards(), 0);
  for (std::size_t i = 0; i < work.size(); ++i) {
    work[i].ids = &ids[i];
    for (VertexId v : ids[i]) {
      expect[cluster.partitioner().ShardOf(v)] += 4 + 4 * width(v);
    }
  }
  ASSERT_EQ(std::count(expect.begin(), expect.end(), 0u), 0)
      << "both shards take part";
  std::uint64_t expect_received = 0;
  for (std::uint64_t per_shard : expect) expect_received += 1 + 4 + per_shard;

  const auto before = cluster.stats().bytes_received;
  const MultiGatherReport multi = cluster.GatherMany(work);
  ASSERT_EQ(multi.reports.size(), work.size());
  EXPECT_EQ(multi.dim, 3u);
  EXPECT_EQ(cluster.stats().bytes_received - before, expect_received);
}

}  // namespace
}  // namespace platod2gl
