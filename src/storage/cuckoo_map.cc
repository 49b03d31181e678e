#include "storage/cuckoo_map.h"

#include "common/random.h"

namespace platod2gl {

std::uint64_t HashVertexId(VertexId key, std::uint64_t seed) {
  // SplitMix64 finaliser over key ^ seed: cheap, well mixed, and distinct
  // seeds give effectively independent hash functions.
  return Mix64(key ^ seed);
}

}  // namespace platod2gl
