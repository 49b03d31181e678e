// LatencyHistogram tests: bucketing, percentiles, thread safety.
#include "common/histogram.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace platod2gl {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.PercentileNanos(50), 0u);
}

TEST(HistogramTest, SingleSample) {
  LatencyHistogram h;
  h.Record(1000);  // bucket upper edge 1023
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.PercentileNanos(50), 1023u);
  EXPECT_EQ(h.PercentileNanos(100), 1023u);
}

TEST(HistogramTest, PercentilesSeparateModes) {
  LatencyHistogram h;
  // 90 fast samples (~1 us) and 10 slow ones (~1 ms).
  for (int i = 0; i < 90; ++i) h.Record(1000);
  for (int i = 0; i < 10; ++i) h.Record(1000000);
  EXPECT_LT(h.PercentileNanos(50), 5000u);
  EXPECT_GT(h.PercentileNanos(99), 500000u);
}

TEST(HistogramTest, PercentileMonotone) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 100000; v *= 3) h.Record(v);
  std::uint64_t prev = 0;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const std::uint64_t cur = h.PercentileNanos(p);
    EXPECT_GE(cur, prev) << "p" << p;
    prev = cur;
  }
}

TEST(HistogramTest, ZeroSampleGoesToBucketZero) {
  LatencyHistogram h;
  h.Record(0);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.PercentileNanos(100), 0u);
}

TEST(HistogramTest, LargestSampleLandsInTopBucket) {
  LatencyHistogram h;
  h.Record(~0ULL);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Snapshot().buckets[LatencyHistogram::kBuckets - 1], 1u);
}

TEST(HistogramTest, ResetClears) {
  LatencyHistogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
}

TEST(HistogramTest, ConcurrentRecording) {
  LatencyHistogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 10000; ++i) h.Record(100 + i % 7);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.Count(), 80000u);  // relaxed atomics lose nothing
}

TEST(HistogramTest, MicrosConversion) {
  LatencyHistogram h;
  h.RecordMicros(1.0);  // 1000 ns
  EXPECT_GE(h.PercentileMicros(100), 1.0);
  EXPECT_LT(h.PercentileMicros(100), 2.1);  // bucket edge 2047 ns
}

TEST(HistogramTest, SnapshotIsConsistentPointInTime) {
  LatencyHistogram h;
  h.Record(100);
  h.Record(100000);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.Count(), 2u);
  // Mutating the live histogram after the snapshot leaves it untouched.
  for (int i = 0; i < 50; ++i) h.Record(1);
  EXPECT_EQ(snap.Count(), 2u);
  EXPECT_EQ(h.Count(), 52u);
}

TEST(HistogramTest, SnapshotPercentileMatchesLive) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 100000; v *= 3) h.Record(v);
  const HistogramSnapshot snap = h.Snapshot();
  for (double p : {10.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(snap.PercentileNanos(p), h.PercentileNanos(p)) << "p" << p;
  }
}

TEST(HistogramTest, DeltaSinceIsolatesWindow) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(1000);  // window 1: ~1 us
  const HistogramSnapshot base = h.Snapshot();
  for (int i = 0; i < 100; ++i) h.Record(1000000);  // window 2: ~1 ms
  const HistogramSnapshot now = h.Snapshot();
  const HistogramSnapshot delta = now.DeltaSince(base);
  EXPECT_EQ(delta.Count(), 100u);
  // The delta must only see window 2's slow samples — the cumulative
  // histogram's p50 would still be fast.
  EXPECT_GT(delta.PercentileNanos(50), 500000u);
  EXPECT_LT(h.PercentileNanos(50), 5000u);
}

TEST(HistogramTest, DeltaSinceEmptyWindow) {
  LatencyHistogram h;
  h.Record(42);
  const HistogramSnapshot snap = h.Snapshot();
  const HistogramSnapshot delta = snap.DeltaSince(snap);
  EXPECT_EQ(delta.Count(), 0u);
  EXPECT_EQ(delta.PercentileNanos(99), 0u);
}

TEST(HistogramTest, InterpolationWithinBucket) {
  // 1024 samples all landing in bucket [1024, 2047]: percentiles should
  // interpolate linearly across the bucket instead of pinning to the
  // upper edge.
  LatencyHistogram h;
  for (int i = 0; i < 1024; ++i) h.Record(1500);
  const std::uint64_t p10 = h.PercentileNanos(10);
  const std::uint64_t p50 = h.PercentileNanos(50);
  const std::uint64_t p100 = h.PercentileNanos(100);
  EXPECT_GE(p10, 1024u);
  EXPECT_LT(p10, p50);
  EXPECT_LT(p50, p100);
  EXPECT_EQ(p100, 2047u);
  // p50 lands near the middle of the bucket.
  EXPECT_GT(p50, 1300u);
  EXPECT_LT(p50, 1800u);
}

TEST(HistogramTest, InterpolationPreservesSingleSampleEdge) {
  // With one sample, every percentile is that sample's bucket upper
  // edge — the interpolation's frac = 1 endpoint (SingleSample above
  // depends on this).
  LatencyHistogram h;
  h.Record(1000);
  EXPECT_EQ(h.PercentileNanos(1), 1023u);
  EXPECT_EQ(h.PercentileNanos(99), 1023u);
}

}  // namespace
}  // namespace platod2gl
