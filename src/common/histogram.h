// LatencyHistogram: lock-free log-bucketed latency tracking.
//
// Production graph servers report per-request latency percentiles; the
// cluster simulation records its per-RPC service times here and the
// serving layer records per-request latencies. Buckets are powers of two
// in nanoseconds, so Record() is one CLZ plus one relaxed atomic
// increment, safe from any thread.
//
// SLO windows want interval percentiles ("p99 over the last window"),
// which the racy advisory Reset() cannot provide: a Reset() concurrent
// with Record() silently drops or double-counts samples. Snapshot()
// instead copies the monotone counters into a plain HistogramSnapshot
// value; DeltaSince() of two snapshots is exact per-bucket subtraction,
// so windowed percentiles never clear the live histogram at all.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace platod2gl {

/// A plain (non-atomic) copy of histogram counters. Cheap to copy,
/// supports the same percentile queries as the live histogram, and can
/// be subtracted to get an interval view.
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 64;

  std::array<std::uint64_t, kBuckets> buckets{};

  std::uint64_t Count() const {
    std::uint64_t n = 0;
    for (std::uint64_t b : buckets) n += b;
    return n;
  }

  /// Percentile (pct in (0, 100]) in nanoseconds with linear
  /// interpolation inside the containing power-of-two bucket. 0 when
  /// empty.
  std::uint64_t PercentileNanos(double pct) const;
  /// Same, but distinguishes "p50 is genuinely 0ns" from "no samples":
  /// *valid is false (and 0 returned) iff the snapshot is empty. Callers
  /// aggregating across shards must check it before averaging — an empty
  /// shard's 0 is not a latency.
  std::uint64_t PercentileNanos(double pct, bool* valid) const;
  double PercentileMicros(double pct) const {
    return static_cast<double>(PercentileNanos(pct)) / 1e3;
  }

  /// Cross-shard aggregation: fold another snapshot's buckets in. Exact —
  /// the merged percentile is the percentile of the combined sample set
  /// (up to the shared bucket resolution).
  void Merge(const HistogramSnapshot& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  }

  /// Per-bucket difference against an earlier snapshot of the same
  /// histogram. Counters are monotone, so subtraction is exact; clamps
  /// at zero defensively if given snapshots from different histograms.
  HistogramSnapshot DeltaSince(const HistogramSnapshot& earlier) const {
    HistogramSnapshot d;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      d.buckets[i] =
          buckets[i] < earlier.buckets[i] ? 0 : buckets[i] - earlier.buckets[i];
    }
    return d;
  }
};

class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  LatencyHistogram() = default;

  /// Record one sample. Thread-safe.
  void Record(std::uint64_t nanos) {
    // order: stat tally, read for reporting only
    buckets_[BucketOf(nanos)].fetch_add(1, std::memory_order_relaxed);
  }
  void RecordMicros(double micros) {
    Record(static_cast<std::uint64_t>(micros * 1e3));
  }

  std::uint64_t Count() const {
    std::uint64_t n = 0;
    // order: stat tally, read for reporting only
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }

  /// Race-free interval basis: copy the current counters. Each bucket
  /// read is individually atomic; the snapshot as a whole is a
  /// consistent-enough basis for windowed stats because counters only
  /// grow.
  HistogramSnapshot Snapshot() const {
    HistogramSnapshot s;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      // order: stat tally, read for reporting only
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

  /// Approximate percentile (pct in (0, 100]) in nanoseconds, linearly
  /// interpolated within the containing bucket. 0 when empty.
  std::uint64_t PercentileNanos(double pct) const {
    return Snapshot().PercentileNanos(pct);
  }
  double PercentileMicros(double pct) const {
    return static_cast<double>(PercentileNanos(pct)) / 1e3;
  }

  void Reset() {
    // order: racy reset is advisory; buckets are stats only
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  /// Bucket i >= 1 holds [2^(i-1), 2^i - 1]; the top bucket also takes
  /// every sample >= 2^63, which would otherwise index one past the end.
  static std::size_t BucketOf(std::uint64_t nanos) {
    if (nanos == 0) return 0;
    const std::size_t bucket =
        64 - static_cast<std::size_t>(__builtin_clzll(nanos));
    return bucket < kBuckets ? bucket : kBuckets - 1;
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

}  // namespace platod2gl
