#include "serve/admission.h"

#include <algorithm>

namespace platod2gl::serve {

AdmissionController::AdmissionController(AdmissionConfig config,
                                         obs::MetricRegistry* metrics)
    : config_(config) {
  config_.max_in_flight = std::max<std::size_t>(1, config_.max_in_flight);
  config_.tenant_quota =
      std::min(std::max<std::size_t>(1, config_.tenant_quota),
               config_.max_in_flight);
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
#define PD2GL_REGISTER(name) \
  counters_.name = metrics_->RegisterCounter("pd2gl_admission_" #name);
  PD2GL_ADMISSION_COUNTERS(PD2GL_REGISTER)
#undef PD2GL_REGISTER
}

void AdmissionController::AdmitLocked(std::uint32_t tenant) {
  ++in_flight_;
  if (tenant >= tenant_in_flight_.size()) {
    tenant_in_flight_.resize(static_cast<std::size_t>(tenant) + 1, 0);
  }
  ++tenant_in_flight_[tenant];
  in_flight_snapshot_.store(in_flight_, std::memory_order_release);
  counters_.admitted->Add(1);
}

AdmissionController::Verdict AdmissionController::TryAdmit(
    std::uint32_t tenant, bool count_reject) {
  if (closed()) {
    counters_.closed_rejects->Add(1);
    return Verdict::kClosed;
  }
  MutexLock lock(mu_);
  if (in_flight_ >= config_.max_in_flight) {
    if (count_reject) {
      counters_.window_rejects->Add(1);
    }
    return Verdict::kWindowFull;
  }
  if (tenant < tenant_in_flight_.size() &&
      tenant_in_flight_[tenant] >= config_.tenant_quota) {
    if (count_reject) {
      counters_.quota_rejects->Add(1);
    }
    return Verdict::kQuotaFull;
  }
  AdmitLocked(tenant);
  return Verdict::kAdmitted;
}

void AdmissionController::Release(std::uint32_t tenant) {
  MutexLock lock(mu_);
  if (in_flight_ > 0) --in_flight_;
  if (tenant < tenant_in_flight_.size() && tenant_in_flight_[tenant] > 0) {
    --tenant_in_flight_[tenant];
  }
  in_flight_snapshot_.store(in_flight_, std::memory_order_release);
}

void AdmissionController::Close() {
  closed_.store(true, std::memory_order_release);
}

AdmissionStats AdmissionController::Stats() const {
  AdmissionStats s;
#define PD2GL_FILL(name) s.name = counters_.name->Value();
  PD2GL_ADMISSION_COUNTERS(PD2GL_FILL)
#undef PD2GL_FILL
  s.in_flight = in_flight();
  return s;
}

}  // namespace platod2gl::serve
