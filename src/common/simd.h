// Runtime-dispatched SIMD kernels for the sampling hot path.
//
// The batched samtree descent (see docs/sampling_simd.md) leans on two
// primitive loops over node-resident prefix-sum spans:
//
//   FindFirstGreater — the ITS child search: smallest prefix sum
//       strictly above the residual draw (AVX2: compare + movemask,
//       4 doubles per step; bit-equal to std::upper_bound, which shares
//       the predicate);
//   AddToRange       — shift a contiguous span by a constant (the
//       CSTable's O(n) suffix rewrite on weight deltas).
//
// (The third hot kernel — the lane-parallel Fenwick descent — needs the
// FSTable's layout and lives with it in index/fstable.cc, dispatched
// through the same Avx2Enabled() switch.)
//
// Both kernels exist in a scalar and an AVX2 flavour. Dispatch is decided
// once per process from CPUID, overridable two ways so the fallback stays
// honest:
//
//   * environment: PD2GL_FORCE_SCALAR=1 (read once, before first use) —
//     what the no-AVX2 CI job sets;
//   * programmatic: SetAvx2EnabledForTest(bool) — what the bit-exactness
//     tests use to run both flavours in one process.
//
// The AVX2 flavours are *bit-exact* replicas of the scalar ones: the same
// IEEE comparisons against the same stored doubles (ordered predicates, so
// NaN behaves identically) and the same elementwise additions — no FMA, no
// reassociation. A forced-scalar run therefore produces byte-identical
// samples, which the `sampling`-labelled tests assert.
#pragma once

#include <cstddef>

#include "common/types.h"

namespace platod2gl {
namespace simd {

/// True when the CPU reports AVX2 (CPUID, cached after the first call).
bool Avx2Supported();

/// True when the AVX2 kernels are actually dispatched: supported by the
/// CPU, not vetoed by PD2GL_FORCE_SCALAR, not overridden by a test hook.
bool Avx2Enabled();

/// Test/bench hook: force kernel dispatch scalar (false) or AVX2 (true —
/// silently clamped to scalar when the CPU lacks AVX2). Not thread-safe
/// against concurrent kernel calls; flip only around quiescent points.
void SetAvx2EnabledForTest(bool enabled);

/// Smallest i in [start, n) with a[i] > r; n when no such element. On a
/// non-decreasing span this is exactly std::upper_bound — the ITS child
/// search — as a branch-free left-to-right scan; `a` need not be sorted.
std::size_t FindFirstGreater(const Weight* a, std::size_t n,
                             std::size_t start, Weight r);

/// a[i] += delta for every i in [begin, end). Elementwise, so the result
/// is bit-identical across dispatch flavours.
void AddToRange(Weight* a, std::size_t begin, std::size_t end, Weight delta);

/// Hint the prefetcher at the next descent level (read, high locality).
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace simd
}  // namespace platod2gl
