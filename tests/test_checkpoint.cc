// Checkpoint save/load tests, including failure injection (missing,
// corrupted and truncated files).
#include "io/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "common/random.h"
#include "gen/generators.h"

namespace platod2gl {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("pd2g_ckpt_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

std::map<VertexId, std::map<VertexId, Weight>> TopoSnapshot(
    const GraphStore& g, EdgeType type) {
  std::map<VertexId, std::map<VertexId, Weight>> snap;
  g.topology(type).ForEachSource([&](VertexId s, const Samtree& t) {
    for (const auto& [d, w] : t.Neighbors()) snap[s][d] = w;
  });
  return snap;
}

TEST_F(CheckpointTest, RoundTripTopologyAndAttributes) {
  GraphStore original(GraphStoreConfig{.num_relations = 2});
  UniformParams p;
  p.num_vertices = 500;
  p.num_edges = 5000;
  auto edges = GenerateUniform(p);
  DedupEdges(&edges);
  for (const Edge& e : edges) original.AddEdge(e);
  original.AddEdge({7, 8, 0.25, 1});  // second relation

  original.attributes().SetFeatures(1, {1.0f, 2.0f, 3.0f});
  original.attributes().SetLabel(1, 42);
  original.attributes().SetLabel(2, -3);  // label without features

  ASSERT_TRUE(SaveGraph(original, path_.string()).ok());

  GraphStore restored(GraphStoreConfig{.num_relations = 2});
  ASSERT_TRUE(LoadGraph(path_.string(), &restored).ok());

  EXPECT_EQ(restored.NumEdges(), original.NumEdges());
  for (EdgeType t : {0u, 1u}) {
    const auto a = TopoSnapshot(original, t);
    const auto b = TopoSnapshot(restored, t);
    ASSERT_EQ(a.size(), b.size()) << "relation " << t;
    for (const auto& [s, nbrs] : a) {
      ASSERT_TRUE(b.count(s));
      ASSERT_EQ(nbrs.size(), b.at(s).size());
      for (const auto& [d, w] : nbrs) {
        ASSERT_NEAR(b.at(s).at(d), w, 1e-9) << s << "->" << d;
      }
    }
  }
  ASSERT_NE(restored.attributes().GetFeatures(1), nullptr);
  EXPECT_EQ(*restored.attributes().GetFeatures(1),
            (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(restored.attributes().GetLabel(1), std::optional<int64_t>(42));
  EXPECT_EQ(restored.attributes().GetLabel(2), std::optional<int64_t>(-3));
}

TEST_F(CheckpointTest, EmptyGraphRoundTrip) {
  GraphStore original;
  ASSERT_TRUE(SaveGraph(original, path_.string()).ok());
  GraphStore restored;
  ASSERT_TRUE(LoadGraph(path_.string(), &restored).ok());
  EXPECT_EQ(restored.NumEdges(), 0u);
}

TEST_F(CheckpointTest, RestoredStoreIsFullyFunctional) {
  GraphStore original;
  for (VertexId d = 0; d < 600; ++d) original.AddEdge({1, d + 10, 1.0, 0});
  ASSERT_TRUE(SaveGraph(original, path_.string()).ok());

  GraphStore restored;
  ASSERT_TRUE(LoadGraph(path_.string(), &restored).ok());
  // Samtree invariants hold after a bulk restore.
  std::string err;
  ASSERT_TRUE(restored.topology(0).FindTree(1)->CheckInvariants(&err)) << err;
  // And it keeps accepting dynamic updates.
  restored.AddEdge({1, 5000, 2.0, 0});
  restored.topology(0).RemoveEdge(1, 10);
  EXPECT_EQ(restored.Degree(1), 600u);
  Xoshiro256 rng(1);
  std::vector<VertexId> out;
  EXPECT_TRUE(restored.SampleNeighbors(1, 5, true, rng, &out));
}

TEST_F(CheckpointTest, MissingFileIsNotFound) {
  GraphStore g;
  const Status s = LoadGraph("/nonexistent/dir/nope.ckpt", &g);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, GarbageFileIsRejected) {
  std::ofstream(path_) << "this is not a checkpoint at all";
  GraphStore g;
  const Status s = LoadGraph(path_.string(), &g);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST_F(CheckpointTest, TruncatedFileIsRejected) {
  GraphStore original;
  for (VertexId d = 0; d < 100; ++d) original.AddEdge({1, d + 10, 1.0, 0});
  ASSERT_TRUE(SaveGraph(original, path_.string()).ok());

  // Chop the file roughly in half: the CRC-32 footer pre-pass rejects it
  // before a single record is applied.
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full / 2);

  GraphStore g;
  const Status s = LoadGraph(path_.string(), &g);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_EQ(g.NumEdges(), 0u) << "no records may be applied from a bad file";
}

TEST_F(CheckpointTest, BitRotIsRejectedByCrcFooter) {
  GraphStore original;
  for (VertexId d = 0; d < 100; ++d) original.AddEdge({1, d + 10, 1.0, 0});
  ASSERT_TRUE(SaveGraph(original, path_.string()).ok());

  // Flip one bit deep inside the edge payload — v1 would have built a
  // silently wrong store from this; v2 must refuse.
  std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  const std::streamoff target = size / 2;
  file.seekg(target);
  char byte;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  file.seekp(target);
  file.write(&byte, 1);
  file.close();

  GraphStore g;
  const Status s = LoadGraph(path_.string(), &g);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST_F(CheckpointTest, LoadsLegacyV1FilesWithoutFooter) {
  // Hand-write a v1 checkpoint (magic, version 1, no CRC footer):
  // 1 relation with 2 edges of source 7, and no attributes.
  std::ofstream file(path_, std::ios::binary);
  auto put = [&](const void* p, std::size_t n) {
    file.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  };
  put("PD2G", 4);
  const std::uint32_t version = 1, relations = 1;
  put(&version, 4);
  put(&relations, 4);
  const std::uint64_t edges = 2;
  put(&edges, 8);
  const VertexId src = 7;
  for (VertexId dst : {11, 12}) {
    const Weight w = 2.5;
    put(&src, 8);
    put(&dst, 8);
    put(&w, 8);
  }
  const std::uint64_t attrs = 0;
  put(&attrs, 8);
  file.close();

  GraphStore g;
  ASSERT_TRUE(LoadGraph(path_.string(), &g).ok());
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(7, 11));
  EXPECT_NEAR(*g.EdgeWeight(7, 12), 2.5, 1e-12);
}

TEST_F(CheckpointTest, RefusesNonEmptyTarget) {
  GraphStore original;
  original.AddEdge({1, 2, 1.0, 0});
  ASSERT_TRUE(SaveGraph(original, path_.string()).ok());

  GraphStore busy;
  busy.AddEdge({9, 9, 1.0, 0});
  EXPECT_EQ(LoadGraph(path_.string(), &busy).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, RefusesRelationMismatch) {
  GraphStore original(GraphStoreConfig{.num_relations = 3});
  original.AddEdge({1, 2, 1.0, 2});
  ASSERT_TRUE(SaveGraph(original, path_.string()).ok());

  GraphStore narrow(GraphStoreConfig{.num_relations = 1});
  EXPECT_EQ(LoadGraph(path_.string(), &narrow).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace platod2gl
