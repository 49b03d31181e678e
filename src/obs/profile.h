// Hot-path profiling hooks: sampled scoped timers, in every build.
//
// The three hot paths the roadmap's perf work keeps returning to —
// samtree batch descent, store batch apply, WAL ship — get a
// PD2GL_PROFILE_SCOPE(site) at BATCH granularity (never per draw: a
// ~20ns timer read against the ~58ns/draw descent budget would be the
// profiler observing itself). A timed scope records wall-clock
// nanoseconds into a process-global LatencyHistogram per site, exported
// through ProfileSnapshot() into any RegistrySnapshot (pd2gl metrics).
//
// Cost discipline: each thread counts its scopes, and only 1 scope in
// kProfileSampleEvery reads the clock (two steady_clock reads and one
// relaxed fetch_add). Every other scope costs a thread-local increment
// and a branch. A site's histogram count is therefore its sampled scopes,
// about 1/kProfileSampleEvery of the scopes that ran.
//
// These histograms are intentionally global (unlike MetricRegistry):
// profiling cuts across every store/cluster instance in the process, and
// the sites are a fixed enum, so there is no registration story to get
// wrong in a hot loop.
#pragma once

#include <chrono>
#include <cstdint>

#include "common/histogram.h"
#include "obs/metrics.h"

namespace platod2gl::obs {

enum class ProfileSite : std::uint8_t {
  kSamtreeDescent = 0,  ///< one batched k-draw SampleWeighted
  kBatchApply = 1,      ///< one TopologyStore::ApplyBatch call: every shard,
                        ///< replica and micro-batcher write
  kWalShip = 2,         ///< one ReplicationManager shipping pass
  kNumSites = 3,
};

/// Per thread, one profiled scope in this many is timed.
inline constexpr std::uint32_t kProfileSampleEvery = 64;

const char* ProfileSiteName(ProfileSite site);

/// The live per-site histogram (process-global, thread-safe).
LatencyHistogram& ProfileHistogram(ProfileSite site);

/// Per-site points (pd2gl_profile_<site>_nanos) for export alongside a
/// registry snapshot.
RegistrySnapshot ProfileSnapshot();

class ProfileScope {
 public:
  explicit ProfileScope(ProfileSite site) : site_(site) {
    thread_local std::uint32_t tick = 0;
    if (tick++ % kProfileSampleEvery == 0) {
      timed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ProfileScope() {
    if (!timed_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    ProfileHistogram(site_).Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  ProfileSite site_;
  bool timed_ = false;
  std::chrono::steady_clock::time_point start_{};
};

#define PD2GL_PROFILE_CONCAT_INNER(a, b) a##b
#define PD2GL_PROFILE_CONCAT(a, b) PD2GL_PROFILE_CONCAT_INNER(a, b)
#define PD2GL_PROFILE_SCOPE(site)                        \
  ::platod2gl::obs::ProfileScope PD2GL_PROFILE_CONCAT(   \
      pd2gl_profile_scope_, __LINE__)(site)

}  // namespace platod2gl::obs
