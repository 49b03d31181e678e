// Exporters: Prometheus text format and JSON for RegistrySnapshots.
//
// Both formats render a *snapshot*, never the live registry, so an export
// is internally consistent in the Snapshot/DeltaSince sense and costs the
// hot paths nothing. Histograms render as cumulative power-of-two buckets
// (le="<upper bound in seconds>") plus _count; there is no _sum series —
// the log-bucketed histogram does not track one, and percentiles from
// buckets are what the SLO machinery actually consumes.
#pragma once

#include <string>

#include "obs/metrics.h"

namespace platod2gl::obs {

/// Prometheus text exposition format (one # TYPE line per family, sorted
/// series, labels escaped).
std::string ToPrometheusText(const RegistrySnapshot& snapshot);

/// JSON array of points: {"name":..., "labels":{...}, "kind":...,
/// "value":N} for counters; histograms carry "count" and the
/// percentile summary the benches consume.
std::string ToJson(const RegistrySnapshot& snapshot);

}  // namespace platod2gl::obs
