// Ablation: the sharded cuckoo hash map (paper Section IV-B, citing
// MemC3/libcuckoo) vs std::unordered_map as the topology-store map layer.
//
// Expected shape: comparable single-thread throughput, multi-thread
// insert scaling for the sharded cuckoo map (unordered_map cannot be
// written concurrently at all), and a denser memory layout (open
// addressing, 4-way buckets) than the node-based unordered_map. Measured
// on a 4-vCPU host with OS-placed threads (EXPERIMENTS.md, 5 runs): equal
// single-thread insert rates, find ~27% slower than unordered_map, and
// insert speedups of 1.4x / 2.3x / 2.1x at 2 / 4 / 8 threads.
#include <cstdio>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/memory.h"
#include "common/random.h"
#include "common/timer.h"
#include "storage/cuckoo_map.h"

using namespace platod2gl;

int main() {
  constexpr std::size_t kKeys = 1u << 20;
  std::printf("=== Ablation: sharded cuckoo map vs std::unordered_map "
              "(%zu keys) ===\n\n",
              kKeys);

  std::vector<VertexId> keys;
  keys.reserve(kKeys);
  Xoshiro256 rng(3);
  for (std::size_t i = 0; i < kKeys; ++i) keys.push_back(rng.Next() | 1);

  // Single-threaded insert + find.
  {
    CuckooMap<std::uint64_t> cuckoo(64, 1024);
    Timer t;
    for (VertexId k : keys) cuckoo.With(k, [](std::uint64_t& v) { v = 1; });
    const double ins = t.ElapsedSeconds();
    t.Reset();
    std::uint64_t hits = 0;
    for (VertexId k : keys) hits += (cuckoo.FindUnsafe(k) != nullptr);
    const double fnd = t.ElapsedSeconds();
    std::printf("cuckoo        insert %6.1f Mops/s   find %6.1f Mops/s   "
                "(hits %llu)\n",
                kKeys / ins / 1e6, kKeys / fnd / 1e6,
                static_cast<unsigned long long>(hits));
  }
  {
    std::unordered_map<VertexId, std::uint64_t> um;
    Timer t;
    for (VertexId k : keys) um[k] = 1;
    const double ins = t.ElapsedSeconds();
    t.Reset();
    std::uint64_t hits = 0;
    for (VertexId k : keys) hits += um.count(k);
    const double fnd = t.ElapsedSeconds();
    std::printf("unordered_map insert %6.1f Mops/s   find %6.1f Mops/s   "
                "(hits %llu)\n\n",
                kKeys / ins / 1e6, kKeys / fnd / 1e6,
                static_cast<unsigned long long>(hits));
  }

  // Concurrent insert scaling (cuckoo only: unordered_map is unsafe).
  std::printf("concurrent insert scaling (sharded cuckoo) on %u hardware "
              "thread(s):\n",
              std::thread::hardware_concurrency());
  std::printf("(threads placed by the OS, unpinned)\n");
  double base_secs = 0.0;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    CuckooMap<std::uint64_t> cuckoo(64, 1024);
    Timer t;
    std::vector<std::thread> workers;
    const std::size_t chunk = kKeys / threads;
    for (std::size_t w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        const std::size_t begin = w * chunk;
        const std::size_t end = (w + 1 == threads) ? kKeys : begin + chunk;
        for (std::size_t i = begin; i < end; ++i) {
          cuckoo.With(keys[i], [](std::uint64_t& v) { v = 1; });
        }
      });
    }
    for (auto& th : workers) th.join();
    const double secs = t.ElapsedSeconds();
    if (threads == 1) base_secs = secs;
    std::printf("  %2zu threads: %6.1f Mops/s  (speedup %.2fx)\n", threads,
                kKeys / secs / 1e6, base_secs / secs);
  }
  return 0;
}
