#include "obs/metrics.h"

#include <algorithm>
#include <utility>

namespace platod2gl::obs {

namespace {

bool LabelLess(const Label& a, const Label& b) {
  if (a.key != b.key) return a.key < b.key;
  return a.value < b.value;
}

bool PointLess(const MetricPoint& a, const MetricPoint& b) {
  if (a.name != b.name) return a.name < b.name;
  return std::lexicographical_compare(a.labels.begin(), a.labels.end(),
                                      b.labels.begin(), b.labels.end(),
                                      LabelLess);
}

}  // namespace

void NormalizeLabels(Labels* labels) {
  std::sort(labels->begin(), labels->end(), LabelLess);
}

const MetricPoint* RegistrySnapshot::Find(const std::string& name,
                                          const Labels& labels) const {
  Labels key = labels;
  NormalizeLabels(&key);
  for (const MetricPoint& p : points) {
    if (p.name == name && p.labels == key) return &p;
  }
  return nullptr;
}

std::uint64_t RegistrySnapshot::Value(const std::string& name,
                                      const Labels& labels) const {
  const MetricPoint* p = Find(name, labels);
  return p == nullptr ? 0 : p->value;
}

HistogramSnapshot RegistrySnapshot::Hist(const std::string& name,
                                         const Labels& labels) const {
  const MetricPoint* p = Find(name, labels);
  return p == nullptr ? HistogramSnapshot{} : p->hist;
}

std::uint64_t RegistrySnapshot::SumAcrossLabels(const std::string& name) const {
  std::uint64_t sum = 0;
  for (const MetricPoint& p : points) {
    if (p.name == name) sum += p.value;
  }
  return sum;
}

void RegistrySnapshot::MergeFrom(const RegistrySnapshot& other) {
  for (const MetricPoint& theirs : other.points) {
    MetricPoint* mine = nullptr;
    for (MetricPoint& p : points) {
      if (p.name == theirs.name && p.labels == theirs.labels &&
          p.kind == theirs.kind) {
        mine = &p;
        break;
      }
    }
    if (mine == nullptr) {
      points.push_back(theirs);
      continue;
    }
    if (theirs.kind == MetricKind::kCounter) {
      mine->value += theirs.value;
      continue;
    }
    for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
      mine->hist.buckets[i] += theirs.hist.buckets[i];
    }
  }
  std::sort(points.begin(), points.end(), PointLess);
}

MetricRegistry::Series* MetricRegistry::FindLocked(const std::string& name,
                                                   const Labels& labels) {
  for (Series& s : series_) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

Counter* MetricRegistry::RegisterCounter(std::string name, Labels labels) {
  NormalizeLabels(&labels);
  MutexLock lock(mu_);
  if (Series* s = FindLocked(name, labels)) {
    assert(s->kind == MetricKind::kCounter && s->counter != nullptr);
    return const_cast<Counter*>(s->counter);
  }
  Counter* c = &counters_.emplace_back();
  series_.push_back(
      Series{std::move(name), std::move(labels), MetricKind::kCounter, c,
             nullptr});
  return c;
}

void MetricRegistry::RegisterExternalCounter(std::string name, Labels labels,
                                             const Counter* counter) {
  NormalizeLabels(&labels);
  MutexLock lock(mu_);
  if (Series* s = FindLocked(name, labels)) {
    assert(s->kind == MetricKind::kCounter);
    s->counter = counter;
    return;
  }
  series_.push_back(Series{std::move(name), std::move(labels),
                           MetricKind::kCounter, counter, nullptr});
}

void MetricRegistry::RegisterExternalHistogram(std::string name, Labels labels,
                                               const LatencyHistogram* hist) {
  NormalizeLabels(&labels);
  MutexLock lock(mu_);
  if (Series* s = FindLocked(name, labels)) {
    assert(s->kind == MetricKind::kHistogram);
    s->hist = hist;
    return;
  }
  series_.push_back(Series{std::move(name), std::move(labels),
                           MetricKind::kHistogram, nullptr, hist});
}

RegistrySnapshot MetricRegistry::Snapshot() const {
  RegistrySnapshot snap;
  MutexLock lock(mu_);
  snap.points.reserve(series_.size());
  for (const Series& s : series_) {
    MetricPoint p;
    p.name = s.name;
    p.labels = s.labels;
    p.kind = s.kind;
    if (s.kind == MetricKind::kCounter) {
      p.value = s.counter->Value();
    } else {
      p.hist = s.hist->Snapshot();
    }
    snap.points.push_back(std::move(p));
  }
  std::sort(snap.points.begin(), snap.points.end(), PointLess);
  return snap;
}

std::size_t MetricRegistry::NumSeries() const {
  MutexLock lock(mu_);
  return series_.size();
}

}  // namespace platod2gl::obs
