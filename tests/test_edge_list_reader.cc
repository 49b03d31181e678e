// Text edge-list loader tests: line parsing, junk-line skipping, loading
// into a GraphStore and the missing-file error.
#include "io/edge_list_reader.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "storage/graph_store.h"

namespace platod2gl {
namespace {

class EdgeListTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("pd2g_edges_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(EdgeListTest, ParseLineVariants) {
  Edge e;
  ASSERT_TRUE(ParseEdgeLine("1 2", &e));
  EXPECT_EQ(e.src, 1u);
  EXPECT_EQ(e.dst, 2u);
  EXPECT_DOUBLE_EQ(e.weight, 1.0);
  EXPECT_EQ(e.type, 0u);

  ASSERT_TRUE(ParseEdgeLine("3\t4\t0.5", &e));
  EXPECT_DOUBLE_EQ(e.weight, 0.5);

  ASSERT_TRUE(ParseEdgeLine("5 6 2.5 3", &e));
  EXPECT_EQ(e.type, 3u);

  EXPECT_FALSE(ParseEdgeLine("", &e));
  EXPECT_FALSE(ParseEdgeLine("   ", &e));
  EXPECT_FALSE(ParseEdgeLine("# comment", &e));
  EXPECT_FALSE(ParseEdgeLine("% konect header", &e));
  EXPECT_FALSE(ParseEdgeLine("7", &e)) << "missing destination";
  EXPECT_FALSE(ParseEdgeLine("x y", &e));
  EXPECT_FALSE(ParseEdgeLine("1 2 -3.0", &e)) << "weights must be positive";
}

TEST_F(EdgeListTest, ReadFileWithCommentsAndJunk) {
  std::ofstream(path_) << "# SNAP-style header\n"
                       << "1 2 0.5\n"
                       << "\n"
                       << "2 3\n"
                       << "garbage line\n"
                       << "3 1 2.0\n";
  EdgeListStats stats;
  auto result = ReadEdgeList(path_.string(), &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 3u);
  EXPECT_EQ(stats.edges_loaded, 3u);
  EXPECT_EQ(stats.lines_skipped, 3u);
  EXPECT_DOUBLE_EQ(result.value()[0].weight, 0.5);
}

TEST_F(EdgeListTest, LoadIntoGraphStore) {
  std::ofstream(path_) << "1 2 0.5\n2 3 1.5\n1 2 9.0\n";  // dup refreshes
  GraphStore g;
  EdgeListStats stats;
  ASSERT_TRUE(LoadEdgeList(path_.string(), &g, &stats).ok());
  EXPECT_EQ(stats.edges_loaded, 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_NEAR(*g.EdgeWeight(1, 2), 9.0, 1e-12);
}

TEST_F(EdgeListTest, OutOfRangeRelationSkipped) {
  std::ofstream(path_) << "1 2 1.0 0\n3 4 1.0 7\n";
  GraphStore g;  // single relation
  EdgeListStats stats;
  ASSERT_TRUE(LoadEdgeList(path_.string(), &g, &stats).ok());
  EXPECT_EQ(stats.edges_loaded, 1u);
  EXPECT_EQ(stats.lines_skipped, 1u);
}

TEST_F(EdgeListTest, MissingFile) {
  GraphStore g;
  EXPECT_EQ(LoadEdgeList("/no/such/file.txt", &g).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(ReadEdgeList("/no/such/file.txt").ok());
}

}  // namespace
}  // namespace platod2gl
