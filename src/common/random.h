// Deterministic, fast pseudo-random number generation.
//
// All randomness in the library flows through Xoshiro256** instances seeded
// with SplitMix64 so that experiments are reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <limits>

namespace platod2gl {

/// The SplitMix64 finalizer: a bijective 64-bit mix. The library's hashes
/// of ids and keys are this function over a key-specific input.
constexpr std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// SplitMix64: used to expand a single seed into a full generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() { return Mix64(state_ += 0x9E3779B97F4A7C15ULL); }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: a small, fast, high-quality PRNG (Blackman & Vigna).
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x5EEDDEADBEEF1234ULL) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.Next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return Next(); }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [0, bound).
  double NextDouble(double bound) { return NextDouble() * bound; }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t NextUint64(std::uint64_t bound) {
    // Lemire's nearly-divisionless method.
    __uint128_t m = static_cast<__uint128_t>(Next()) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      std::uint64_t t = -bound % bound;
      while (l < t) {
        m = static_cast<__uint128_t>(Next()) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace platod2gl
