// CP-IDs compression tests (paper Section VI-A and Figure 7).
#include "core/compressed_ids.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"

namespace platod2gl {
namespace {

TEST(CompressedIdsTest, EmptyList) {
  CompressedIdList l;
  EXPECT_TRUE(l.empty());
  EXPECT_EQ(l.size(), 0u);
  EXPECT_EQ(l.Find(42), CompressedIdList::npos);
}

TEST(CompressedIdsTest, AppendAndGetRoundTrip) {
  CompressedIdList l;
  const std::vector<VertexId> ids = {16, 129, 43, 90};  // Figure 7's IDs
  for (VertexId v : ids) l.Append(v);
  ASSERT_EQ(l.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(l.Get(i), ids[i]);
  }
}

TEST(CompressedIdsTest, PaperFigure7PrefixSevenBytes) {
  // IDs 0x10, 0x81, 0x2b, 0x5a share their first 7 bytes (all zero):
  // the paper's example compresses with z = 7.
  CompressedIdList l;
  for (VertexId v : {0x10ULL, 0x81ULL, 0x2bULL, 0x5aULL}) l.Append(v);
  EXPECT_EQ(l.prefix_bytes(), 7);
  // 4 one-byte suffixes instead of 32 bytes of raw IDs.
  EXPECT_LT(l.MemoryUsage(), 4 * sizeof(VertexId));
}

TEST(CompressedIdsTest, PrefixShrinksWhenNeeded) {
  CompressedIdList l;
  l.Append(0x0000000000000001ULL);
  EXPECT_EQ(l.prefix_bytes(), 7);
  l.Append(0x0000000000000101ULL);  // differs in byte 6 -> z snaps to 6
  EXPECT_EQ(l.prefix_bytes(), 6);
  l.Append(0x0000000001000003ULL);  // differs in byte 4 -> z snaps to 4
  EXPECT_EQ(l.prefix_bytes(), 4);
  l.Append(0x0100000000000004ULL);  // differs in byte 0 -> z snaps to 0
  EXPECT_EQ(l.prefix_bytes(), 0);
  EXPECT_EQ(l.Get(0), 0x0000000000000001ULL);
  EXPECT_EQ(l.Get(1), 0x0000000000000101ULL);
  EXPECT_EQ(l.Get(2), 0x0000000001000003ULL);
  EXPECT_EQ(l.Get(3), 0x0100000000000004ULL);
}

TEST(CompressedIdsTest, AllowedPrefixLengthsOnly) {
  // z must come from {0, 4, 6, 7} (paper: "m is chosen from {0,4,6,7}").
  CompressedIdList l;
  l.Append(0x0000000000AA0001ULL);
  l.Append(0x0000000000BB0002ULL);  // shares 5 leading bytes -> snap to 4
  EXPECT_EQ(l.prefix_bytes(), 4);
}

TEST(CompressedIdsTest, DisabledCompressionStoresFullWidth) {
  CompressedIdList l(/*enable_compression=*/false);
  for (VertexId v : {1ULL, 2ULL, 3ULL}) l.Append(v);
  EXPECT_EQ(l.prefix_bytes(), 0);
  EXPECT_GE(l.MemoryUsage(), 3 * sizeof(VertexId));
  EXPECT_EQ(l.Get(2), 3ULL);
}

TEST(CompressedIdsTest, FindLocatesAndRejects) {
  CompressedIdList l;
  for (VertexId v : {100ULL, 200ULL, 300ULL}) l.Append(v);
  EXPECT_EQ(l.Find(100), 0u);
  EXPECT_EQ(l.Find(300), 2u);
  EXPECT_EQ(l.Find(150), CompressedIdList::npos);
  // Prefix fast-reject path: far-away ID.
  EXPECT_EQ(l.Find(0xFFFFFFFFFFFFFFFEULL), CompressedIdList::npos);
}

TEST(CompressedIdsTest, InsertKeepsOrder) {
  CompressedIdList l;
  l.Append(10);
  l.Append(30);
  l.Insert(1, 20);
  ASSERT_EQ(l.size(), 3u);
  EXPECT_EQ(l.Get(0), 10u);
  EXPECT_EQ(l.Get(1), 20u);
  EXPECT_EQ(l.Get(2), 30u);
}

TEST(CompressedIdsTest, InsertAtFrontAndBack) {
  CompressedIdList l;
  l.Append(20);
  l.Insert(0, 10);
  l.Insert(2, 30);
  EXPECT_EQ(l.Decode(), (std::vector<VertexId>{10, 20, 30}));
}

TEST(CompressedIdsTest, InsertTriggeringRecompression) {
  CompressedIdList l;
  l.Append(0x0000000000000010ULL);
  l.Insert(0, 0x00000000010000FFULL);  // shares 4 bytes -> z snaps to 4
  EXPECT_EQ(l.prefix_bytes(), 4);
  EXPECT_EQ(l.Get(0), 0x00000000010000FFULL);
  EXPECT_EQ(l.Get(1), 0x0000000000000010ULL);
}

TEST(CompressedIdsTest, RemoveAtShifts) {
  CompressedIdList l;
  for (VertexId v : {1ULL, 2ULL, 3ULL, 4ULL}) l.Append(v);
  l.RemoveAt(1);
  EXPECT_EQ(l.Decode(), (std::vector<VertexId>{1, 3, 4}));
}

TEST(CompressedIdsTest, RemoveSwapLastMirrorsFSTable) {
  CompressedIdList l;
  for (VertexId v : {1ULL, 2ULL, 3ULL, 4ULL}) l.Append(v);
  l.RemoveSwapLast(0);
  EXPECT_EQ(l.Decode(), (std::vector<VertexId>{4, 2, 3}));
  l.RemoveSwapLast(2);  // remove the (current) last element
  EXPECT_EQ(l.Decode(), (std::vector<VertexId>{4, 2}));
}

TEST(CompressedIdsTest, SetOverwrites) {
  CompressedIdList l;
  for (VertexId v : {5ULL, 6ULL}) l.Append(v);
  l.Set(0, 7);
  EXPECT_EQ(l.Get(0), 7u);
  EXPECT_EQ(l.Get(1), 6u);
}

TEST(CompressedIdsTest, ReencodeKeepsTheRoomInIds) {
  // Room for 16 one-byte suffixes; an ID that shares only 4 bytes widens
  // every suffix to 4 bytes, and the list still holds room for 16 IDs.
  CompressedIdList l(std::vector<VertexId>{0x10, 0x11, 0x12}, true, 16);
  EXPECT_EQ(l.prefix_bytes(), 7);
  EXPECT_EQ(l.capacity(), 16u);
  l.Append(0x01000013ULL);
  EXPECT_EQ(l.prefix_bytes(), 4);
  EXPECT_EQ(l.capacity(), 16u);
  EXPECT_EQ(l.MemoryUsage(), 16u * 4 + 1 + 4);  // suffixes, z, prefix
  EXPECT_EQ(l.Get(0), 0x10u);
  EXPECT_EQ(l.Get(3), 0x01000013ULL);
}

TEST(CompressedIdsTest, CompressionSavesMemoryOnClusteredIds) {
  CompressedIdList compressed(true);
  CompressedIdList raw(false);
  constexpr VertexId kBase = 0x0001000200000000ULL;
  for (VertexId i = 0; i < 256; ++i) {
    // IDs differ only in the last byte: the full 7-byte prefix is shared.
    compressed.Append(kBase + i);
    raw.Append(kBase + i);
  }
  EXPECT_EQ(compressed.prefix_bytes(), 7);
  EXPECT_LT(compressed.MemoryUsage(), raw.MemoryUsage() * 6 / 10)
      << "1-byte suffixes should save ~85%";
  for (VertexId i = 0; i < 256; ++i) {
    ASSERT_EQ(compressed.Get(i), kBase + i);
  }
}

// Property sweep: compressed list behaves exactly like a vector<VertexId>
// under a random edit script, for several ID-locality regimes.
struct IdRegime {
  const char* name;
  VertexId base;
  VertexId spread;
};

class CompressedIdsRandomized
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(CompressedIdsRandomized, MatchesShadowVector) {
  static constexpr IdRegime kRegimes[] = {
      {"tiny", 0, 1 << 8},
      {"clustered", 0x00AA00BB00000000ULL, 1 << 20},
      {"wild", 0, ~0ULL >> 1},
  };
  const auto [seed, regime_idx] = GetParam();
  const IdRegime& regime = kRegimes[regime_idx];
  Xoshiro256 rng(seed);
  CompressedIdList l;
  std::vector<VertexId> shadow;
  for (int step = 0; step < 600; ++step) {
    const double r = rng.NextDouble();
    const VertexId fresh = regime.base + rng.NextUint64(regime.spread);
    if (shadow.empty() || r < 0.5) {
      l.Append(fresh);
      shadow.push_back(fresh);
    } else if (r < 0.7) {
      const std::size_t pos = rng.NextUint64(shadow.size() + 1);
      l.Insert(pos, fresh);
      shadow.insert(shadow.begin() + static_cast<std::ptrdiff_t>(pos), fresh);
    } else if (r < 0.85) {
      const std::size_t pos = rng.NextUint64(shadow.size());
      l.RemoveSwapLast(pos);
      shadow[pos] = shadow.back();
      shadow.pop_back();
    } else {
      const std::size_t pos = rng.NextUint64(shadow.size());
      l.Set(pos, fresh);
      shadow[pos] = fresh;
    }
    ASSERT_EQ(l.Decode(), shadow) << regime.name << " step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompressedIdsRandomized,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace platod2gl
