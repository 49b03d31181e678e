#include "common/simd.h"

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#define PD2GL_X86 1
#include <immintrin.h>
#endif

namespace platod2gl {
namespace simd {
namespace {

bool DetectAvx2() {
#if defined(PD2GL_X86) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool EnvForcesScalar() {
  const char* v = std::getenv("PD2GL_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

// -1 = undecided (resolve from CPUID + environment on first use),
//  0 = scalar, 1 = AVX2.
std::atomic<int> g_avx2_mode{-1};

std::size_t FindFirstGreaterScalar(const Weight* a, std::size_t n,
                                   std::size_t start, Weight r) {
  for (std::size_t i = start; i < n; ++i) {
    if (a[i] > r) return i;
  }
  return n;
}

void AddToRangeScalar(Weight* a, std::size_t begin, std::size_t end,
                      Weight delta) {
  for (std::size_t i = begin; i < end; ++i) a[i] += delta;
}

#if defined(PD2GL_X86)

// _CMP_GT_OQ is the ordered >: exactly the scalar `a[i] > r`, including
// the all-false answer on NaN. movemask gives one bit per lane; the first
// set bit is the first qualifying element.
__attribute__((target("avx2"))) std::size_t FindFirstGreaterAvx2(
    const Weight* a, std::size_t n, std::size_t start, Weight r) {
  std::size_t i = start;
  const __m256d rv = _mm256_set1_pd(r);
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(a + i);
    const int mask = _mm256_movemask_pd(_mm256_cmp_pd(v, rv, _CMP_GT_OQ));
    if (mask != 0) {
      return i + static_cast<std::size_t>(__builtin_ctz(
                     static_cast<unsigned>(mask)));
    }
  }
  for (; i < n; ++i) {
    if (a[i] > r) return i;
  }
  return n;
}

// Elementwise vaddpd == the scalar `a[i] += delta` bit for bit (same IEEE
// operation per element, no reassociation, no FMA contraction).
__attribute__((target("avx2"))) void AddToRangeAvx2(Weight* a,
                                                    std::size_t begin,
                                                    std::size_t end,
                                                    Weight delta) {
  std::size_t i = begin;
  const __m256d dv = _mm256_set1_pd(delta);
  for (; i + 4 <= end; i += 4) {
    _mm256_storeu_pd(a + i, _mm256_add_pd(_mm256_loadu_pd(a + i), dv));
  }
  for (; i < end; ++i) a[i] += delta;
}

#endif  // PD2GL_X86

int ResolveMode() {
  int mode = g_avx2_mode.load(std::memory_order_acquire);
  if (mode < 0) {
    mode = (Avx2Supported() && !EnvForcesScalar()) ? 1 : 0;
    g_avx2_mode.store(mode, std::memory_order_release);
  }
  return mode;
}

}  // namespace

bool Avx2Supported() {
  static const bool supported = DetectAvx2();
  return supported;
}

bool Avx2Enabled() { return ResolveMode() == 1; }

void SetAvx2EnabledForTest(bool enabled) {
  g_avx2_mode.store(enabled && Avx2Supported() ? 1 : 0,
                    std::memory_order_release);
}

std::size_t FindFirstGreater(const Weight* a, std::size_t n,
                             std::size_t start, Weight r) {
#if defined(PD2GL_X86)
  if (ResolveMode() == 1) return FindFirstGreaterAvx2(a, n, start, r);
#endif
  return FindFirstGreaterScalar(a, n, start, r);
}

void AddToRange(Weight* a, std::size_t begin, std::size_t end, Weight delta) {
#if defined(PD2GL_X86)
  if (ResolveMode() == 1) {
    AddToRangeAvx2(a, begin, end, delta);
    return;
  }
#endif
  AddToRangeScalar(a, begin, end, delta);
}

}  // namespace simd
}  // namespace platod2gl
