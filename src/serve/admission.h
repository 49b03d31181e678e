// AdmissionController: the serving layer's bounded in-flight window.
//
// A serving front end must bound the work it holds — queued plus
// executing — or a burst converts into unbounded memory and collapsed
// tail latency for everyone. This controller enforces two limits with
// counted outcomes, mirroring UpdateIngestor's backpressure design
// (src/pipeline/update_ingestor.h):
//
//  * a global window: at most `max_in_flight` requests admitted and not
//    yet released, and
//  * a per-tenant quota: at most `tenant_quota` of those per tenant, so
//    one hot tenant cannot starve the rest of the window.
//
// What a submitter experiences at a full window is the policy matrix the
// GraphServer drives (serve/server.h): kReject fails fast via TryAdmit();
// kShedOldest lets the server evict the oldest queued request and retry
// the probe.
// Every outcome is a counter, and shed decisions are made by the
// single-threaded server pump from arrival order alone, so admission
// outcomes are a pure function of (seed, arrival order) — pinned in
// tests/test_serve.cc.
//
// Synchronisation uses the instrumented Mutex/sched::Atomic so the
// deterministic schedule checker can interleave submitters against
// Release()/Close() (tests/test_schedcheck_scenarios.cc: the books
// balance and a close is sticky).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/sched_hooks.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace platod2gl::serve {

/// What a submitter experiences when the window (or its quota) is full.
enum class AdmissionPolicy : std::uint8_t {
  kReject,     ///< fail fast (caller sheds/retries)
  kShedOldest  ///< evict the oldest queued request, admit the new one
};

struct AdmissionConfig {
  std::size_t max_in_flight = 256;  ///< global window bound
  std::size_t tenant_quota = 64;    ///< per-tenant share of the window
  AdmissionPolicy policy = AdmissionPolicy::kReject;
};

/// Admission counters, one row each: exported as pd2gl_admission_<name>
/// and snapshotted into AdmissionStats by AdmissionController::Stats().
#define PD2GL_ADMISSION_COUNTERS(X)                                            \
  X(admitted)                                                                  \
  X(window_rejects) /* probes refused: window full */                          \
  X(quota_rejects)  /* probes refused: tenant over quota */                    \
  X(closed_rejects) /* probes after Close() */

/// The counters plus a point-in-time window snapshot.
struct AdmissionStats {
  PD2GL_ADMISSION_COUNTERS(PD2GL_STATS_FIELD)
  std::size_t in_flight = 0;  ///< admitted - released right now
};

class AdmissionController {
 public:
  enum class Verdict : std::uint8_t {
    kAdmitted = 0,
    kWindowFull = 1,
    kQuotaFull = 2,
    kClosed = 3,
  };

  /// `metrics` hosts the pd2gl_admission_* series; the GraphServer passes
  /// its own registry so one snapshot covers the whole serving stack. A
  /// standalone controller (tests) owns a private registry instead.
  explicit AdmissionController(AdmissionConfig config = {},
                               obs::MetricRegistry* metrics = nullptr);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Non-blocking probe: admit `tenant` if both the window and its quota
  /// have room. `count_reject` suppresses the reject counters when the
  /// caller is probing inside its own shed loop (the shed itself is the
  /// counted outcome there).
  Verdict TryAdmit(std::uint32_t tenant, bool count_reject = true);

  /// Return one admitted slot (request completed, shed, or failed).
  void Release(std::uint32_t tenant);

  /// Stop admitting: every subsequent TryAdmit returns kClosed. Released
  /// slots still drain normally.
  void Close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  std::size_t in_flight() const {
    return in_flight_snapshot_.load(std::memory_order_acquire);
  }

  AdmissionStats Stats() const;

  const AdmissionConfig& config() const { return config_; }

 private:
  void AdmitLocked(std::uint32_t tenant) REQUIRES(mu_);

  AdmissionConfig config_;
  std::unique_ptr<obs::MetricRegistry> owned_metrics_;
  obs::MetricRegistry* metrics_ = nullptr;
  // The pd2gl_admission_* handles, one per list row.
  struct {
    PD2GL_ADMISSION_COUNTERS(PD2GL_COUNTER_HANDLE)
  } counters_;
  mutable Mutex mu_;
  std::size_t in_flight_ GUARDED_BY(mu_) = 0;
  std::vector<std::size_t> tenant_in_flight_ GUARDED_BY(mu_);

  // STATE atomics stay sched::Atomic (== std::atomic in production;
  // schedule points under PD2GL_SCHEDCHECK so the checker can interleave
  // submitters, the pump's releases, and shutdown around them). Pure
  // tallies live in the registry counters above.
  sched::Atomic<bool> closed_{false};
  sched::Atomic<std::size_t> in_flight_snapshot_{0};
};

}  // namespace platod2gl::serve
