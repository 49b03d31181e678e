// Concurrent cuckoo hash map: VertexId -> V.
//
// The paper's topology storage keeps a concurrent hashmap from each source
// vertex to <degree, samtree>, "by exploiting Cuckoo hash" (Section IV-B,
// citing MemC3 / libcuckoo). This implementation combines
//
//   * sharding for concurrency — the key space is split across
//     `num_shards` independent tables, each guarded by one spinlock, so
//     writers on different shards never contend; and
//   * bucketized cuckoo hashing within a shard — 4-way set-associative
//     buckets, two hash functions, random-walk eviction, and table doubling
//     when an eviction walk fails.
//
// Values are heap-allocated so their addresses stay stable across rehashes:
// TopologyStore::ApplyBatch mutates samtrees through raw pointers while other
// threads may be inserting new vertices.
//
// Locking discipline (checked by clang -Wthread-safety): every bucket
// array is GUARDED_BY its shard's spinlock, and the *Locked helpers
// REQUIRE it. The two deliberate escape hatches — FindUnsafe and ForEach —
// are marked NO_THREAD_SAFETY_ANALYSIS and carry their synchronisation
// contract in the doc comment; everything else must go through the guard.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/memory.h"
#include "common/random.h"
#include "common/sched_hooks.h"
#include "common/spinlock.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace platod2gl {

/// 64-bit mix (SplitMix64 finaliser) used for bucket selection.
std::uint64_t HashVertexId(VertexId key, std::uint64_t seed);

template <typename V>
class CuckooMap {
 public:
  static constexpr std::size_t kSlotsPerBucket = 4;

  explicit CuckooMap(std::size_t num_shards = 64,
                     std::size_t initial_buckets_per_shard = 8)
      : shards_(RoundPow2(num_shards)) {
    for (auto& s : shards_) {
      SpinlockGuard lock(s.mu);
      s.buckets.resize(RoundPow2(initial_buckets_per_shard));
    }
  }

  CuckooMap(const CuckooMap&) = delete;
  CuckooMap& operator=(const CuckooMap&) = delete;

  /// Run `fn(V&)` under the shard lock, default-constructing the value if
  /// the key is absent. This is the write path: thread-safe.
  template <typename Fn>
  void With(VertexId key, Fn&& fn) {
    assert(key != kInvalidVertex);
    Shard& shard = ShardFor(key);
    SpinlockGuard lock(shard.mu);
    fn(*FindOrCreateLocked(shard, key));
  }

  /// Find-or-create under the shard lock and return the value's address.
  /// Values are heap-pinned, so the pointer stays valid across rehashes;
  /// the caller may use it after the lock is released as long as it
  /// guarantees no other thread mutates the same value. Thread-safe.
  V* GetOrCreate(VertexId key) {
    assert(key != kInvalidVertex);
    Shard& shard = ShardFor(key);
    SpinlockGuard lock(shard.mu);
    return FindOrCreateLocked(shard, key);
  }

  /// Run `fn(V&)` under the shard lock only if the key exists.
  /// Returns whether it did. Thread-safe.
  template <typename Fn>
  bool WithExisting(VertexId key, Fn&& fn) {
    Shard& shard = ShardFor(key);
    SpinlockGuard lock(shard.mu);
    V* v = FindLocked(shard, key);
    if (!v) return false;
    fn(*v);
    return true;
  }

  /// Pointer to the value, or nullptr. NOT synchronised with concurrent
  /// inserts — safe during read-only phases, or when an external
  /// partitioning scheme guarantees no rehash races (the value object
  /// itself is heap-pinned, so only *map growth during lookup* races).
  /// That contract is exactly why this bypasses the analysis.
  V* FindUnsafe(VertexId key) NO_THREAD_SAFETY_ANALYSIS {
    Shard& shard = ShardFor(key);
    return FindLocked(shard, key);
  }
  const V* FindUnsafe(VertexId key) const {
    return const_cast<CuckooMap*>(this)->FindUnsafe(key);
  }

  bool Contains(VertexId key) const { return FindUnsafe(key) != nullptr; }

  /// Number of stored keys. The per-shard counters are atomics, so this
  /// is race-free against concurrent writers (TSan-clean), but the sum is
  /// only a snapshot: exact when quiescent.
  std::size_t Size() const {
    std::size_t n = 0;
    for (const auto& s : shards_) {
#if defined(PD2GL_SCHEDCHECK)
      if (sched::CuckooShardSizeRace()) {  // pre-PR2 racy read, tests only
        n += s.racy_size.load();
        continue;
      }
#endif
      // order: pure counter snapshot; carries no ordering with bucket
      // state, which Size() deliberately does not observe.
      n += s.size.load(std::memory_order_relaxed);
    }
    return n;
  }

  /// Visit every (key, value). NOT thread-safe against writers — callers
  /// run during read-only phases (memory accounting, stats aggregation,
  /// invariant sweeps), which is why this bypasses the analysis.
  template <typename Fn>
  void ForEach(Fn&& fn) const NO_THREAD_SAFETY_ANALYSIS {
    for (const auto& shard : shards_) {
      for (const auto& bucket : shard.buckets) {
        for (const auto& slot : bucket.slots) {
          if (slot.value) fn(slot.key, *slot.value);
        }
      }
    }
  }

  /// Bytes of the map layer itself: bucket arrays (the "indexing" overhead
  /// the paper attributes to key-value stores) — the values' own memory is
  /// accounted by the caller via ForEach. Quiescent-phase only, like
  /// ForEach.
  std::size_t MemoryUsage() const NO_THREAD_SAFETY_ANALYSIS {
    std::size_t bytes = shards_.capacity() * sizeof(Shard);
    for (const auto& s : shards_) {
      bytes += s.buckets.capacity() * sizeof(Bucket);
    }
    return bytes;
  }

 private:
  struct Slot {
    VertexId key = kInvalidVertex;
    std::unique_ptr<V> value;  // null == empty slot
  };
  struct Bucket {
    std::array<Slot, kSlotsPerBucket> slots;
  };
  // Cache-line aligned: adjacent shards' spinlocks must not share a line,
  // or contended writers false-share and concurrent scaling inverts.
  struct alignas(128) Shard {
    Spinlock mu;
    std::vector<Bucket> buckets GUARDED_BY(mu);  // power-of-two size
    // Written under mu, read lock-free by Size(): relaxed atomic instead
    // of GUARDED_BY so the unlocked aggregate read stays race-free.
    // (sched::Atomic == std::atomic in production builds.)
    sched::Atomic<std::size_t> size{0};
#if defined(PD2GL_SCHEDCHECK)
    // The pre-PR2 bug: a plain counter written under mu but read lock-free
    // by Size(). Kept compilable (checker builds only) behind the runtime
    // toggle sched::SetCuckooShardSizeRace so the schedule checker can
    // prove it rediscovers the race deterministically.
    sched::NonAtomic<std::size_t> racy_size{0};
#endif
    Xoshiro256 rng GUARDED_BY(mu){0xC0C0C0C0DEADBEEFULL};
  };

  // Count one new key with the shard lock held. Routed through the racy
  // plain counter when the reintroduce-race test toggle is on.
  static void BumpSizeLocked(Shard& shard) REQUIRES(shard.mu) {
#if defined(PD2GL_SCHEDCHECK)
    if (sched::CuckooShardSizeRace()) {
      shard.racy_size.store(shard.racy_size.load() + 1);
      return;
    }
#endif
    // order: counter only; Size() sums a snapshot and never infers
    // bucket state from it.
    shard.size.fetch_add(1, std::memory_order_relaxed);
  }

  static std::size_t RoundPow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  Shard& ShardFor(VertexId key) {
    const std::uint64_t h = HashVertexId(key, /*seed=*/0x517CC1B727220A95ULL);
    return shards_[h & (shards_.size() - 1)];
  }
  const Shard& ShardFor(VertexId key) const {
    return const_cast<CuckooMap*>(this)->ShardFor(key);
  }

  static std::size_t BucketIndex(const Shard& shard, VertexId key,
                                 std::size_t which) REQUIRES(shard.mu) {
    static constexpr std::uint64_t kSeeds[2] = {0x9E3779B97F4A7C15ULL,
                                                0xD1B54A32D192ED03ULL};
    return HashVertexId(key, kSeeds[which]) & (shard.buckets.size() - 1);
  }

  V* FindLocked(Shard& shard, VertexId key) REQUIRES(shard.mu) {
    for (std::size_t h = 0; h < 2; ++h) {
      Bucket& b = shard.buckets[BucketIndex(shard, key, h)];
      for (auto& slot : b.slots) {
        if (slot.value && slot.key == key) return slot.value.get();
      }
    }
    return nullptr;
  }

  V* FindOrCreateLocked(Shard& shard, VertexId key) REQUIRES(shard.mu) {
    if (V* v = FindLocked(shard, key)) return v;
    auto value = std::make_unique<V>();
    V* raw = value.get();
    InsertLocked(shard, key, std::move(value));
    BumpSizeLocked(shard);
    return raw;
  }

  void InsertLocked(Shard& shard, VertexId key, std::unique_ptr<V> value)
      REQUIRES(shard.mu) {
    static constexpr std::size_t kMaxEvictions = 512;
    for (std::size_t attempt = 0; attempt < kMaxEvictions; ++attempt) {
      // Try both candidate buckets for a free slot.
      for (std::size_t h = 0; h < 2; ++h) {
        Bucket& b = shard.buckets[BucketIndex(shard, key, h)];
        for (auto& slot : b.slots) {
          if (!slot.value) {
            slot.key = key;
            slot.value = std::move(value);
            return;
          }
        }
      }
      // Random-walk eviction: displace a random occupant of one candidate
      // bucket to its alternate location and retry with the evictee.
      const std::size_t h = shard.rng.NextUint64(2);
      Bucket& b = shard.buckets[BucketIndex(shard, key, h)];
      Slot& victim = b.slots[shard.rng.NextUint64(kSlotsPerBucket)];
      std::swap(key, victim.key);
      std::swap(value, victim.value);
    }
    // Eviction walk failed: double the table and retry (rare).
    GrowLocked(shard);
    InsertLocked(shard, key, std::move(value));
  }

  void GrowLocked(Shard& shard) REQUIRES(shard.mu) {
    std::vector<Bucket> old = std::move(shard.buckets);
    shard.buckets = std::vector<Bucket>(old.size() * 2);
    for (auto& bucket : old) {
      for (auto& slot : bucket.slots) {
        if (slot.value) InsertLocked(shard, slot.key, std::move(slot.value));
      }
    }
  }

  std::vector<Shard> shards_;
};

}  // namespace platod2gl
