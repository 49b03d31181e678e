#include "obs/export.h"

#include <cstdio>

namespace platod2gl::obs {

namespace {

void AppendEscaped(const std::string& in, std::string* out) {
  for (char c : in) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '"':
        *out += "\\\"";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
}

void AppendLabelSet(const Labels& labels, std::string* out) {
  if (labels.empty()) return;
  *out += '{';
  bool first = true;
  for (const Label& l : labels) {
    if (!first) *out += ',';
    first = false;
    *out += l.key;
    *out += "=\"";
    AppendEscaped(l.value, out);
    *out += '"';
  }
  *out += '}';
}

/// Labels plus one extra (the histogram `le` bound) for bucket lines.
void AppendBucketLabels(const Labels& labels, const std::string& le,
                        std::string* out) {
  *out += '{';
  for (const Label& l : labels) {
    *out += l.key;
    *out += "=\"";
    AppendEscaped(l.value, out);
    *out += "\",";
  }
  *out += "le=\"";
  *out += le;
  *out += "\"}";
}

const char* KindName(MetricKind kind) {
  return kind == MetricKind::kHistogram ? "histogram" : "counter";
}

/// Upper bound of log bucket i in seconds, formatted compactly. Bucket 0
/// holds the zeros; bucket i >= 1 spans [2^(i-1), 2^i - 1] nanoseconds.
std::string BucketBoundSeconds(std::size_t i) {
  const double nanos =
      i == 0 ? 0.0 : static_cast<double>((1ULL << i) - 1) + 0.5;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", nanos / 1e9);
  return buf;
}

}  // namespace

std::string ToPrometheusText(const RegistrySnapshot& snapshot) {
  std::string out;
  std::string last_family;
  for (const MetricPoint& p : snapshot.points) {
    if (p.name != last_family) {
      out += "# TYPE ";
      out += p.name;
      out += ' ';
      out += KindName(p.kind);
      out += '\n';
      last_family = p.name;
    }
    if (p.kind == MetricKind::kHistogram) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
        cumulative += p.hist.buckets[i];
        if (p.hist.buckets[i] == 0 && i + 1 != HistogramSnapshot::kBuckets) {
          continue;  // keep the page one screen: skip empty interior buckets
        }
        out += p.name;
        out += "_bucket";
        AppendBucketLabels(
            p.labels,
            i + 1 == HistogramSnapshot::kBuckets ? "+Inf"
                                                 : BucketBoundSeconds(i),
            &out);
        out += ' ';
        out += std::to_string(cumulative);
        out += '\n';
      }
      out += p.name;
      out += "_count";
      AppendLabelSet(p.labels, &out);
      out += ' ';
      out += std::to_string(cumulative);
      out += '\n';
    } else {
      out += p.name;
      AppendLabelSet(p.labels, &out);
      out += ' ';
      out += std::to_string(p.value);
      out += '\n';
    }
  }
  return out;
}

std::string ToJson(const RegistrySnapshot& snapshot) {
  std::string out = "[";
  bool first_point = true;
  for (const MetricPoint& p : snapshot.points) {
    if (!first_point) out += ",";
    first_point = false;
    out += "\n  {\"name\":\"";
    AppendEscaped(p.name, &out);
    out += "\",\"labels\":{";
    bool first_label = true;
    for (const Label& l : p.labels) {
      if (!first_label) out += ',';
      first_label = false;
      out += '"';
      AppendEscaped(l.key, &out);
      out += "\":\"";
      AppendEscaped(l.value, &out);
      out += '"';
    }
    out += "},\"kind\":\"";
    out += KindName(p.kind);
    out += "\"";
    if (p.kind == MetricKind::kHistogram) {
      char buf[64];
      std::snprintf(buf, sizeof(buf),
                    ",\"count\":%llu,\"p50_us\":%.3f,\"p99_us\":%.3f",
                    static_cast<unsigned long long>(p.hist.Count()),
                    p.hist.PercentileMicros(50.0),
                    p.hist.PercentileMicros(99.0));
      out += buf;
    } else {
      out += ",\"value\":";
      out += std::to_string(p.value);
    }
    out += "}";
  }
  out += "\n]\n";
  return out;
}

}  // namespace platod2gl::obs
