// Hot-path profiling hooks: compile-away-by-default scoped timers.
//
// The three hot paths the roadmap's perf work keeps returning to —
// samtree batch descent, store batch apply, WAL ship — get a
// PD2GL_PROFILE_SCOPE(site) at BATCH granularity (never per draw: a
// ~20ns timer read against the ~58ns/draw descent budget would be the
// profiler observing itself). Each scope records wall-clock nanoseconds
// into a process-global LatencyHistogram per site, exported through
// ProfileSnapshot() into any RegistrySnapshot (pd2gl metrics).
//
// Cost discipline:
//  * PD2GL_OBS_PROFILE undefined (the default): the macro expands to
//    nothing — zero code, zero data references, bit-identical hot loops.
//  * defined: two steady_clock reads per scope, one relaxed fetch_add.
//    The `asan` preset builds this way and runs the full suite; the
//    overhead is not measured or gated by any bench.
//
// These histograms are intentionally global (unlike MetricRegistry):
// profiling cuts across every store/cluster instance in the process, and
// the sites are a fixed enum, so there is no registration story to get
// wrong in a hot loop.
#pragma once

#include <cstdint>

#include "common/histogram.h"
#include "obs/metrics.h"

#if defined(PD2GL_OBS_PROFILE)
#include <chrono>
#endif

namespace platod2gl::obs {

enum class ProfileSite : std::uint8_t {
  kSamtreeDescent = 0,  ///< one batched k-draw SampleWeighted
  kBatchApply = 1,      ///< one TopologyStore::ApplyBatch call: every shard,
                        ///< replica and micro-batcher write
  kWalShip = 2,         ///< one ReplicationManager shipping pass
  kNumSites = 3,
};

const char* ProfileSiteName(ProfileSite site);

/// The live per-site histogram (process-global, thread-safe).
LatencyHistogram& ProfileHistogram(ProfileSite site);

/// True when the timers are compiled in.
constexpr bool ProfilingEnabled() {
#if defined(PD2GL_OBS_PROFILE)
  return true;
#else
  return false;
#endif
}

/// Per-site points (pd2gl_profile_<site>_nanos) for export alongside a
/// registry snapshot. Empty histograms when profiling is compiled out.
RegistrySnapshot ProfileSnapshot();

#if defined(PD2GL_OBS_PROFILE)

class ProfileScope {
 public:
  explicit ProfileScope(ProfileSite site)
      : site_(site), start_(std::chrono::steady_clock::now()) {}
  ~ProfileScope() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    ProfileHistogram(site_).Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  ProfileSite site_;
  std::chrono::steady_clock::time_point start_;
};

#define PD2GL_PROFILE_CONCAT_INNER(a, b) a##b
#define PD2GL_PROFILE_CONCAT(a, b) PD2GL_PROFILE_CONCAT_INNER(a, b)
#define PD2GL_PROFILE_SCOPE(site)                        \
  ::platod2gl::obs::ProfileScope PD2GL_PROFILE_CONCAT(   \
      pd2gl_profile_scope_, __LINE__)(site)

#else

#define PD2GL_PROFILE_SCOPE(site) \
  do {                            \
  } while (false)

#endif  // PD2GL_OBS_PROFILE

}  // namespace platod2gl::obs
