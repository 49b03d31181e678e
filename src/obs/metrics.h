// MetricRegistry: one canonical, exportable home for every number in the
// system (DESIGN.md §15, docs/observability.md).
//
// Before this layer each subsystem grew its own ad-hoc stats struct
// (ClusterStats, ReplicationStats, IngestorStats, the serve tallies...)
// with a hand-rolled load loop per struct and no common export path. The
// registry replaces those with named, labelled series:
//
//  * Counter — a monotone relaxed atomic tally, the histogram.h recording
//    discipline generalised: Add() is one relaxed fetch_add from any
//    thread, Value() a relaxed load. Lock-cheap by construction.
//  * Histogram — the existing LatencyHistogram, registered so its
//    Snapshot/DeltaSince windows ride the same export path.
//
// Series are registered ONCE (startup / subsystem construction; the only
// mutex in this file guards the series table, never the hot increments)
// and snapshotted race-free: counters are monotone, so a point-in-time
// copy is a valid basis for deltas exactly like HistogramSnapshot.
// Registration is idempotent — the same (name, labels, kind) returns the
// same instance — and storage is deque-backed so handed-out pointers stay
// stable for the registry's lifetime.
//
// The registry is an instance, not a global: tests and tools construct
// many clusters/servers side by side, and determinism demands their
// numbers never bleed into each other. Subsystems own (or borrow) a
// registry and export through it.
//
// Each subsystem declares its counters once, as a list macro
// PD2GL_<SUBSYSTEM>_COUNTERS(X) with one row per counter:
//
//   X(hits)    /* served from a valid entry */
//   X(misses)  /* no entry for the key */
//
// The two expansions at the end of this header turn the rows into the
// fields of the subsystem's plain snapshot struct and into the live
// handles it bumps; its .cc expands the list twice more, to register each
// counter as `pd2gl_<subsystem>_<name>` and to fill the snapshot.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace platod2gl::obs {

/// Monotone tally. The ONLY sanctioned way to grow a statistic outside
/// src/obs/ (tools/pd2gl_lint.py `atomic-tally` rejects new raw atomic
/// tally members elsewhere).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(std::uint64_t delta = 1) {
    // order: stat tally, read for reporting only
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    // order: stat tally, read for reporting only
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// One label dimension. Cardinality rules in docs/observability.md: label
/// values must come from a SMALL, BOUNDED set (shard index, tenant id,
/// policy name) — never request ids or vertex ids.
struct Label {
  std::string key;
  std::string value;

  friend bool operator==(const Label&, const Label&) = default;
};
using Labels = std::vector<Label>;

enum class MetricKind : std::uint8_t { kCounter = 0, kHistogram = 1 };

/// One series in a snapshot: plain values, safe to copy and export.
struct MetricPoint {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;      ///< counters only
  HistogramSnapshot hist;       ///< histograms only
};

/// A race-free point-in-time copy of every registered series, sorted by
/// (name, labels) so exports and test expectations are deterministic.
struct RegistrySnapshot {
  std::vector<MetricPoint> points;

  const MetricPoint* Find(const std::string& name,
                          const Labels& labels = {}) const;
  /// Counter value; 0 when the series is absent.
  std::uint64_t Value(const std::string& name, const Labels& labels = {}) const;
  /// Histogram buckets; empty snapshot when the series is absent.
  HistogramSnapshot Hist(const std::string& name,
                         const Labels& labels = {}) const;
  /// Sum of `name` across every label combination (per-shard totals).
  std::uint64_t SumAcrossLabels(const std::string& name) const;

  /// Fold another snapshot in: matching (name, labels) series sum their
  /// counters and merge their histogram buckets; unmatched series are
  /// appended. Used to export several subsystem registries as one page.
  void MergeFrom(const RegistrySnapshot& other);
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Register (or find) an owned counter. The pointer stays valid for the
  /// registry's lifetime. Re-registering the same (name, labels) with a
  /// different kind is a programming error.
  Counter* RegisterCounter(std::string name, Labels labels = {});

  /// Borrowed series: the metric object lives inside a subsystem (e.g.
  /// SampleCache's tallies, the latency histograms) and must outlive the
  /// registry entry. Registering an existing series again re-points it.
  void RegisterExternalCounter(std::string name, Labels labels,
                               const Counter* counter);
  void RegisterExternalHistogram(std::string name, Labels labels,
                                 const LatencyHistogram* hist);

  RegistrySnapshot Snapshot() const;

  std::size_t NumSeries() const;

 private:
  struct Series {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    const Counter* counter = nullptr;
    const LatencyHistogram* hist = nullptr;
  };

  Series* FindLocked(const std::string& name, const Labels& labels)
      REQUIRES(mu_);

  mutable Mutex mu_;
  // A deque: stable addresses for handed-out counter pointers.
  std::deque<Counter> counters_ GUARDED_BY(mu_);
  std::vector<Series> series_ GUARDED_BY(mu_);
};

/// The two shared expansions of a PD2GL_<SUBSYSTEM>_COUNTERS(X) list: a
/// field of the subsystem's snapshot struct, and the registry-owned handle
/// the subsystem bumps.
#define PD2GL_STATS_FIELD(name) std::uint64_t name = 0;
#define PD2GL_COUNTER_HANDLE(name) obs::Counter* name = nullptr;

/// Canonical label sort (by key, then value) applied at registration so
/// lookups and exports are order-independent.
void NormalizeLabels(Labels* labels);

}  // namespace platod2gl::obs
