// Explicit, deterministic memory accounting.
//
// Table IV of the paper compares the memory footprint of the topology
// stores after graph building. Rather than relying on allocator hooks
// (which are noisy and platform-dependent), every storage structure in
// this library implements `MemoryUsage()` which walks the structure and
// sums the bytes of payload plus container overhead. The helpers here
// keep that accounting uniform.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace platod2gl {

/// Bytes held by a std::vector's heap buffer (capacity, not size —
/// capacity is what the process actually pays for).
template <typename T>
std::size_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// Capacity, in entries, that a full array of n entries grows to on its
/// next append: a bounded step of max(4, n/4) entries instead of
/// std::vector's doubling, so a grown array holds at most 4 entries or a
/// fifth of slack. Growth stays geometric (ratio 1.25), so appends stay
/// amortised O(1). FSTable and CP-ID arrays grow this way; a samtree leaf
/// below half the node capacity too (Samtree::LeafGrownCapacity). An n/8
/// step saved 1% more bytes but reallocated half again as often, which
/// slowed the bench_fig8_build builds (DESIGN §5, "Memory accounting").
inline std::size_t GrownCapacity(std::size_t n) {
  return n + (n / 4 > 4 ? n / 4 : 4);
}

/// Bytes held by a std::string, accounting for the small-string
/// optimisation (no heap allocation below the SSO threshold).
std::size_t StringBytes(const std::string& s);

/// Pretty-print a byte count, e.g. "1.23 GB".
std::string HumanBytes(std::size_t bytes);

/// Aggregated memory report for a storage system.
struct MemoryBreakdown {
  std::size_t topology_bytes = 0;  ///< adjacency payloads (IDs + weights)
  std::size_t index_bytes = 0;     ///< sampling indexes (CSTable/FSTable/alias)
  std::size_t key_bytes = 0;       ///< key/indexing overhead of the map layer
  std::size_t other_bytes = 0;     ///< everything else (node headers, ...)

  std::size_t Total() const {
    return topology_bytes + index_bytes + key_bytes + other_bytes;
  }
};

}  // namespace platod2gl
