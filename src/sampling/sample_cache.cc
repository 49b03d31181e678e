#include "sampling/sample_cache.h"

#include <algorithm>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>

#include "common/spinlock.h"
#include "common/thread_annotations.h"
#include "index/alias_table.h"

namespace platod2gl {

namespace {

struct Key {
  VertexId v = kInvalidVertex;
  EdgeType t = 0;

  friend bool operator==(const Key&, const Key&) = default;
};

std::uint64_t MixKey(VertexId v, EdgeType t) {
  // SplitMix64 finalizer over the combined 64+32 bits.
  return Mix64(v ^ (static_cast<std::uint64_t>(t) << 56) ^
               (static_cast<std::uint64_t>(t) * 0x9E3779B97F4A7C15ULL));
}

struct KeyHasher {
  std::size_t operator()(const Key& k) const {
    return static_cast<std::size_t>(MixKey(k.v, k.t));
  }
};

}  // namespace

/// Immutable once published; draws need no lock.
struct SampleCache::Entry {
  std::uint64_t version = 0;
  std::vector<VertexId> ids;  ///< flat neighbour array (uniform draws)
  AliasTable alias;           ///< O(1) weighted draws into `ids`

  void Draw(bool weighted, std::size_t k, Xoshiro256& rng,
            std::vector<VertexId>* out) const {
    out->reserve(out->size() + k);
    if (weighted) {
      // A batch request is served by ONE alias call: the whole fanout
      // resolves inside AliasTable::SampleBatch (same draw sequence as
      // k single Sample() calls), instead of paying per-draw call and
      // size-load overhead k times on the hottest path in the system.
      std::uint32_t stack_idx[64];
      std::vector<std::uint32_t> heap_idx;
      std::uint32_t* idx = stack_idx;
      if (k > std::size(stack_idx)) {
        heap_idx.resize(k);
        idx = heap_idx.data();
      }
      alias.SampleBatch(k, rng, idx);
      for (std::size_t i = 0; i < k; ++i) out->push_back(ids[idx[i]]);
    } else {
      const std::uint64_t n = ids.size();
      for (std::size_t i = 0; i < k; ++i) {
        out->push_back(ids[rng.NextUint64(n)]);
      }
    }
  }

  std::size_t MemoryUsage() const {
    return sizeof(Entry) + ids.capacity() * sizeof(VertexId) +
           alias.MemoryUsage();
  }
};

struct SampleCache::Shard {
  using EntryPtr = std::shared_ptr<const Entry>;
  using LruList = std::list<std::pair<Key, EntryPtr>>;

  mutable Spinlock mu;
  LruList order GUARDED_BY(mu);  // front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHasher> index GUARDED_BY(mu);
  std::unordered_map<Key, std::uint32_t, KeyHasher> warm
      GUARDED_BY(mu);  // miss counts

  /// Lookup, refreshing recency.
  EntryPtr Get(const Key& key) REQUIRES(mu) {
    auto it = index.find(key);
    if (it == index.end()) return nullptr;
    order.splice(order.begin(), order, it->second);
    return it->second->second;
  }

  /// Insert or overwrite; returns the number of evictions performed.
  std::size_t Put(const Key& key, EntryPtr entry, std::size_t capacity)
      REQUIRES(mu) {
    auto it = index.find(key);
    if (it != index.end()) {
      it->second->second = std::move(entry);
      order.splice(order.begin(), order, it->second);
      return 0;
    }
    std::size_t evicted = 0;
    while (index.size() >= capacity && !order.empty()) {
      index.erase(order.back().first);
      order.pop_back();
      ++evicted;
    }
    order.emplace_front(key, std::move(entry));
    index.emplace(key, order.begin());
    return evicted;
  }
};

SampleCache::SampleCache(SampleCacheConfig config) : config_(config) {
  config_.num_shards = std::max<std::size_t>(1, config_.num_shards);
  config_.capacity = std::max(config_.num_shards, config_.capacity);
  shard_capacity_ = config_.capacity / config_.num_shards;
  shards_.reserve(config_.num_shards);
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SampleCache::~SampleCache() = default;

SampleCache::Shard& SampleCache::ShardFor(VertexId v, EdgeType type) {
  return *shards_[MixKey(v, type) % shards_.size()];
}

std::shared_ptr<const SampleCache::Entry> SampleCache::BuildEntry(
    const Samtree& tree) const {
  auto entry = std::make_shared<Entry>();
  // Stamp *before* snapshotting: a mutation racing the snapshot leaves the
  // entry tagged with a superseded version, which only costs a rebuild on
  // the next hit — never a stale entry that validates.
  entry->version = tree.version();
  entry->ids.reserve(tree.size());
  std::vector<Weight> weights;
  weights.reserve(tree.size());
  tree.ForEachNeighbor([&](VertexId id, Weight w) {
    entry->ids.push_back(id);
    weights.push_back(w);
  });
  entry->alias = AliasTable(weights);
  return entry;
}

bool SampleCache::Sample(VertexId v, EdgeType type, const Samtree& tree,
                         bool weighted, std::size_t k, Xoshiro256& rng,
                         std::vector<VertexId>* out) {
  if (tree.empty()) return false;
  const std::uint64_t now = tree.version();
  Shard& shard = ShardFor(v, type);
  const Key key{v, type};

  std::shared_ptr<const Entry> entry;
  {
    SpinlockGuard lock(shard.mu);
    entry = shard.Get(key);
  }

  if (entry && entry->version == now) {
    tallies_.hits.Add();
    entry->Draw(weighted, k, rng, out);
    return true;
  }

  if (entry) {
    // Invalidation path: the tree changed since the entry was built.
    tallies_.stale_hits.Add();
    entry = BuildEntry(tree);
    std::size_t evicted;
    {
      SpinlockGuard lock(shard.mu);
      evicted = shard.Put(key, entry, shard_capacity_);
    }
    tallies_.rebuilds.Add();
    if (evicted) tallies_.evictions.Add(evicted);
    entry->Draw(weighted, k, rng, out);
    return true;
  }

  tallies_.misses.Add();
  if (tree.size() < config_.min_degree) {
    tallies_.cold_rejects.Add();
    return false;
  }

  bool admit;
  {
    SpinlockGuard lock(shard.mu);
    admit = ++shard.warm[key] >= config_.admit_after_misses;
    if (admit) {
      shard.warm.erase(key);
    } else if (shard.warm.size() > 8 * shard_capacity_) {
      // Bound the admission side-table: forgetting warm-up progress only
      // delays admission, it never corrupts anything.
      shard.warm.clear();
    }
  }
  if (!admit) {
    tallies_.cold_rejects.Add();
    return false;
  }

  entry = BuildEntry(tree);
  std::size_t evicted;
  {
    SpinlockGuard lock(shard.mu);
    evicted = shard.Put(key, entry, shard_capacity_);
  }
  tallies_.admissions.Add();
  if (evicted) tallies_.evictions.Add(evicted);
  entry->Draw(weighted, k, rng, out);
  return true;
}

void SampleCache::Clear() {
  for (auto& shard : shards_) {
    SpinlockGuard lock(shard->mu);
    shard->order.clear();
    shard->index.clear();
    shard->warm.clear();
  }
}

std::size_t SampleCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    SpinlockGuard lock(shard->mu);
    n += shard->index.size();
  }
  return n;
}

std::size_t SampleCache::MemoryUsage() const {
  std::size_t bytes = sizeof(SampleCache);
  for (const auto& shard : shards_) {
    SpinlockGuard lock(shard->mu);
    bytes += sizeof(Shard);
    for (const auto& [key, entry] : shard->order) {
      (void)key;
      bytes += entry->MemoryUsage();
    }
  }
  return bytes;
}

SampleCacheStats SampleCache::Stats() const {
  SampleCacheStats s;
#define PD2GL_FILL(name) s.name = tallies_.name.Value() - baseline_.name;
  PD2GL_SAMPLE_CACHE_COUNTERS(PD2GL_FILL)
#undef PD2GL_FILL
  return s;
}

void SampleCache::ResetStats() {
  // DeltaSince-style window restart: the monotone totals (Stats() over a
  // zero baseline) become the new baseline instead of zeroing the
  // counters, so registry exports never see a counter go backwards.
  baseline_ = SampleCacheStats{};
  baseline_ = Stats();
}

void SampleCache::RegisterWith(obs::MetricRegistry* registry,
                               const obs::Labels& labels) const {
#define PD2GL_REGISTER(name)                                              \
  registry->RegisterExternalCounter("pd2gl_sample_cache_" #name, labels, \
                                    &tallies_.name);
  PD2GL_SAMPLE_CACHE_COUNTERS(PD2GL_REGISTER)
#undef PD2GL_REGISTER
}

}  // namespace platod2gl
