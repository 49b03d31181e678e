#include "index/fstable.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/memory.h"
#include "common/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace platod2gl {
namespace {

/// Lowest set bit of x (x > 0).
inline std::size_t Lsb(std::size_t x) { return x & (~x + 1); }

/// The scalar Fenwick descent (Algorithm 5) over a borrowed array of n > 0
/// entries: FSTable::FindIndex, and the per-draw flavour of the batched
/// descent the AVX2 lanes below must land on exactly.
inline std::size_t FenwickFindOne(const Weight* tree, std::size_t n,
                                  Weight r) {
  // Smallest power of two >= n.
  std::size_t span = 1;
  while (span < n) span <<= 1;

  // Descend over power-of-two-aligned ranges. For an aligned range
  // [left, left + 2^t - 1], the Fenwick entry at mid = left + 2^{t-1} - 1
  // is exactly the sum of the left half, so one comparison halves the
  // range.
  std::size_t left = 0;
  std::size_t right = span - 1;
  while (left < right) {
    const std::size_t mid = left + (right - left) / 2;
    if (mid >= n) {  // indices beyond n carry zero weight: go left
      right = mid;
      continue;
    }
    if (tree[mid] > r) {
      right = mid;
    } else {
      r -= tree[mid];
      left = mid + 1;
    }
  }
  // Floating-point guard: r slightly >= total can push past the end.
  return std::min(left, n - 1);
}

}  // namespace

FSTable::FSTable(const std::vector<Weight>& weights, std::size_t capacity) {
  tree_.reserve(std::max(capacity, weights.size()));
  tree_.assign(weights.begin(), weights.end());
  // Linear-time Fenwick build: push each entry into its parent.
  for (std::size_t i = 0; i < tree_.size(); ++i) {
    const std::size_t parent = i + Lsb(i + 1);
    if (parent < tree_.size()) tree_[parent] += tree_[i];
  }
}

Weight FSTable::Prefix(std::size_t i) const {
  assert(i < tree_.size());
  Weight s = 0.0;
  // Walk i+1 (1-indexed) down by stripping the lowest set bit.
  for (std::size_t j = i + 1; j > 0; j -= Lsb(j)) s += tree_[j - 1];
  return s;
}

void FSTable::AddDelta(std::size_t i, Weight delta) {
  assert(i < tree_.size());
  // Algorithm 3: climb to each covering entry via i <- i + LSB(i+1).
  while (i < tree_.size()) {
    tree_[i] += delta;
    i += Lsb(i + 1);
  }
}

void FSTable::UpdateWeight(std::size_t i, Weight w) {
  AddDelta(i, w - WeightAt(i));
}

void FSTable::Append(Weight w) {
  // Algorithm 4: the new entry at index n covers [g(n)+1, n]; accumulate
  // the already-stored children F[n - 2^k] whose covered range abuts ours.
  const std::size_t n = tree_.size();
  Weight s = w;
  for (std::size_t two_k = 1; two_k < n + 1; two_k <<= 1) {
    if (two_k > n) break;
    const std::size_t x = n - two_k;
    if (Lsb(x + 1) == two_k) s += tree_[x];
  }
  if (n == tree_.capacity()) tree_.reserve(GrownCapacity(n));
  tree_.push_back(s);
}

void FSTable::RemoveSwapLast(std::size_t i) {
  assert(i < tree_.size());
  const std::size_t last = tree_.size() - 1;
  if (i != last) {
    UpdateWeight(i, WeightAt(last));
  }
  // Truncation is safe: F[j] for j < last never aggregates index `last`
  // (its covered range [g(j)+1, j] ends at j).
  tree_.pop_back();
}

std::vector<Weight> FSTable::DecodeWeights() const {
  std::vector<Weight> weights;
  DecodeWeightsInto(&weights);
  return weights;
}

void FSTable::DecodeWeightsInto(std::vector<Weight>* out) const {
  std::vector<Weight>& weights = *out;
  weights.assign(tree_.begin(), tree_.end());
  // Undo the linear build back-to-front: strip each entry out of its parent.
  for (std::size_t i = weights.size(); i-- > 0;) {
    const std::size_t parent = i + Lsb(i + 1);
    if (parent < weights.size()) weights[parent] -= weights[i];
  }
}

std::size_t FSTable::FindIndex(Weight r) const {
  assert(!tree_.empty());
  return FenwickFindOne(tree_.data(), tree_.size(), r);
}

std::size_t FSTable::Sample(Xoshiro256& rng) const {
  return FindIndex(rng.NextDouble(TotalWeight()));
}

namespace {

#if defined(__x86_64__) || defined(__i386__)

/// Four Fenwick descents in parallel AVX2 lanes, one per draw, each
/// against its own table. State (left, right, residual) lives in vector
/// registers; each step gathers the four tree[mid] values and resolves
/// the scalar loop's branch as a blend:
///
///   * `mid >= n` and already-converged lanes are masked out of the
///     gather and read +inf, which drives the `tree[mid] > r` compare
///     down the same "go left" path the scalar loop takes (for converged
///     lanes, right = mid is a no-op since mid == left == right);
///   * the compare is _CMP_GT_OQ — the scalar `>` exactly — and the
///     residual update subtracts the gathered double itself, so every
///     lane performs the identical IEEE operation sequence and the
///     result is bit-identical to FenwickFindOne.
///
/// Ranges start at (possibly different) per-lane spans and halve every
/// step, so all four lanes converge within max log2(span) + 1 steps; the
/// loop runs until the movemask of still-open ranges clears.
__attribute__((target("avx2"))) void FenwickFind4Avx2(
    const FenwickView* views, const Weight* rs, std::uint32_t* out) {
  alignas(32) long long base[4];
  alignas(32) long long n64[4];
  alignas(32) long long span1[4];
  for (int l = 0; l < 4; ++l) {
    base[l] = reinterpret_cast<long long>(views[l].tree);
    n64[l] = static_cast<long long>(views[l].n);
    std::size_t span = 1;
    while (span < views[l].n) span <<= 1;
    span1[l] = static_cast<long long>(span - 1);
  }
  const __m256i vbase = _mm256_load_si256(reinterpret_cast<__m256i*>(base));
  const __m256i vn = _mm256_load_si256(reinterpret_cast<__m256i*>(n64));
  __m256i vleft = _mm256_setzero_si256();
  __m256i vright = _mm256_load_si256(reinterpret_cast<__m256i*>(span1));
  __m256d vr = _mm256_loadu_pd(rs);
  const __m256d inf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256i one = _mm256_set1_epi64x(1);

  while (true) {
    const __m256i active = _mm256_cmpgt_epi64(vright, vleft);  // left < right
    if (_mm256_movemask_epi8(active) == 0) break;
    const __m256i vmid = _mm256_add_epi64(
        vleft, _mm256_srli_epi64(_mm256_sub_epi64(vright, vleft), 1));
    const __m256i in_tree =
        _mm256_and_si256(active, _mm256_cmpgt_epi64(vn, vmid));  // mid < n
    const __m256i addr = _mm256_add_epi64(vbase, _mm256_slli_epi64(vmid, 3));
    const __m256d vals = _mm256_mask_i64gather_pd(
        inf, static_cast<const double*>(nullptr), addr,
        _mm256_castsi256_pd(in_tree), 1);
    const __m256d go_left = _mm256_cmp_pd(vals, vr, _CMP_GT_OQ);
    const __m256i go_left_i = _mm256_castpd_si256(go_left);
    // Lanes going right consume the left-half sum and move past mid.
    vr = _mm256_blendv_pd(_mm256_sub_pd(vr, vals), vr, go_left);
    vleft = _mm256_blendv_epi8(_mm256_add_epi64(vmid, one), vleft, go_left_i);
    vright = _mm256_blendv_epi8(vright, vmid, go_left_i);
  }

  // Same floating-point end clamp as FindIndex: min(left, n - 1).
  const __m256i vn1 = _mm256_sub_epi64(vn, one);
  const __m256i vidx = _mm256_blendv_epi8(
      vn1, vleft, _mm256_cmpgt_epi64(vn, vleft));
  alignas(32) long long idx[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(idx), vidx);
  for (int l = 0; l < 4; ++l) out[l] = static_cast<std::uint32_t>(idx[l]);
}

/// Two independent 4-lane descents interleaved in one loop. One 4-lane
/// descent is latency-bound: every gather waits on the previous step's
/// blends, so the core idles through the gather latency. Interleaving a
/// second, data-independent lane set gives the out-of-order engine two
/// gather chains to overlap, nearly doubling throughput without changing
/// any per-lane operation (each half is FenwickFind4Avx2 verbatim, so
/// bit-exactness is untouched). Converged halves keep looping as no-ops
/// — same masked-gather safety argument as above — until both clear.
__attribute__((target("avx2"))) void FenwickFind8Avx2(
    const FenwickView* views, const Weight* rs, std::uint32_t* out) {
  alignas(32) long long base[8];
  alignas(32) long long n64[8];
  alignas(32) long long span1[8];
  for (int l = 0; l < 8; ++l) {
    base[l] = reinterpret_cast<long long>(views[l].tree);
    n64[l] = static_cast<long long>(views[l].n);
    std::size_t span = 1;
    while (span < views[l].n) span <<= 1;
    span1[l] = static_cast<long long>(span - 1);
  }
  const __m256i vbase0 = _mm256_load_si256(reinterpret_cast<__m256i*>(base));
  const __m256i vbase1 =
      _mm256_load_si256(reinterpret_cast<__m256i*>(base + 4));
  const __m256i vn0 = _mm256_load_si256(reinterpret_cast<__m256i*>(n64));
  const __m256i vn1 = _mm256_load_si256(reinterpret_cast<__m256i*>(n64 + 4));
  __m256i vleft0 = _mm256_setzero_si256();
  __m256i vleft1 = _mm256_setzero_si256();
  __m256i vright0 = _mm256_load_si256(reinterpret_cast<__m256i*>(span1));
  __m256i vright1 =
      _mm256_load_si256(reinterpret_cast<__m256i*>(span1 + 4));
  __m256d vr0 = _mm256_loadu_pd(rs);
  __m256d vr1 = _mm256_loadu_pd(rs + 4);
  const __m256d inf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256i one = _mm256_set1_epi64x(1);

  while (true) {
    const __m256i active0 = _mm256_cmpgt_epi64(vright0, vleft0);
    const __m256i active1 = _mm256_cmpgt_epi64(vright1, vleft1);
    if ((_mm256_movemask_epi8(active0) | _mm256_movemask_epi8(active1)) == 0) {
      break;
    }
    const __m256i vmid0 = _mm256_add_epi64(
        vleft0, _mm256_srli_epi64(_mm256_sub_epi64(vright0, vleft0), 1));
    const __m256i vmid1 = _mm256_add_epi64(
        vleft1, _mm256_srli_epi64(_mm256_sub_epi64(vright1, vleft1), 1));
    const __m256i in_tree0 =
        _mm256_and_si256(active0, _mm256_cmpgt_epi64(vn0, vmid0));
    const __m256i in_tree1 =
        _mm256_and_si256(active1, _mm256_cmpgt_epi64(vn1, vmid1));
    const __m256i addr0 =
        _mm256_add_epi64(vbase0, _mm256_slli_epi64(vmid0, 3));
    const __m256i addr1 =
        _mm256_add_epi64(vbase1, _mm256_slli_epi64(vmid1, 3));
    const __m256d vals0 = _mm256_mask_i64gather_pd(
        inf, static_cast<const double*>(nullptr), addr0,
        _mm256_castsi256_pd(in_tree0), 1);
    const __m256d vals1 = _mm256_mask_i64gather_pd(
        inf, static_cast<const double*>(nullptr), addr1,
        _mm256_castsi256_pd(in_tree1), 1);
    const __m256d go_left0 = _mm256_cmp_pd(vals0, vr0, _CMP_GT_OQ);
    const __m256d go_left1 = _mm256_cmp_pd(vals1, vr1, _CMP_GT_OQ);
    const __m256i go_left_i0 = _mm256_castpd_si256(go_left0);
    const __m256i go_left_i1 = _mm256_castpd_si256(go_left1);
    vr0 = _mm256_blendv_pd(_mm256_sub_pd(vr0, vals0), vr0, go_left0);
    vr1 = _mm256_blendv_pd(_mm256_sub_pd(vr1, vals1), vr1, go_left1);
    vleft0 = _mm256_blendv_epi8(_mm256_add_epi64(vmid0, one), vleft0,
                                go_left_i0);
    vleft1 = _mm256_blendv_epi8(_mm256_add_epi64(vmid1, one), vleft1,
                                go_left_i1);
    vright0 = _mm256_blendv_epi8(vright0, vmid0, go_left_i0);
    vright1 = _mm256_blendv_epi8(vright1, vmid1, go_left_i1);
  }

  const __m256i vidx0 = _mm256_blendv_epi8(
      _mm256_sub_epi64(vn0, one), vleft0, _mm256_cmpgt_epi64(vn0, vleft0));
  const __m256i vidx1 = _mm256_blendv_epi8(
      _mm256_sub_epi64(vn1, one), vleft1, _mm256_cmpgt_epi64(vn1, vleft1));
  alignas(32) long long idx[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(idx), vidx0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(idx + 4), vidx1);
  for (int l = 0; l < 8; ++l) out[l] = static_cast<std::uint32_t>(idx[l]);
}

#endif  // x86

}  // namespace

void FenwickFindIndices(const FenwickView* views, const Weight* rs,
                        std::uint32_t* out, std::size_t m) {
  std::size_t d = 0;
#if defined(__x86_64__) || defined(__i386__)
  if (simd::Avx2Enabled()) {
    for (; d + 8 <= m; d += 8) {
      FenwickFind8Avx2(views + d, rs + d, out + d);
    }
    for (; d + 4 <= m; d += 4) {
      FenwickFind4Avx2(views + d, rs + d, out + d);
    }
  }
#endif
  for (; d < m; ++d) {
    out[d] = static_cast<std::uint32_t>(
        FenwickFindOne(views[d].tree, views[d].n, rs[d]));
  }
}

void FSTable::FindIndices(const Weight* rs, std::uint32_t* out,
                          std::size_t m) const {
  assert(!tree_.empty());
  // Eight copies of one view feed the lane kernels without a per-call
  // views allocation.
  const FenwickView v = View();
  const FenwickView views8[8] = {v, v, v, v, v, v, v, v};
  std::size_t d = 0;
#if defined(__x86_64__) || defined(__i386__)
  if (simd::Avx2Enabled()) {
    for (; d + 8 <= m; d += 8) {
      FenwickFind8Avx2(views8, rs + d, out + d);
    }
    for (; d + 4 <= m; d += 4) {
      FenwickFind4Avx2(views8, rs + d, out + d);
    }
  }
#endif
  for (; d < m; ++d) {
    out[d] = static_cast<std::uint32_t>(FenwickFindOne(v.tree, v.n, rs[d]));
  }
}

bool FSTable::CheckConsistent(std::string* error) const {
  const std::vector<Weight> weights = DecodeWeights();
  Weight total = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (!std::isfinite(weights[i])) {
      if (error) {
        *error = "non-finite weight at entry " + std::to_string(i);
      }
      return false;
    }
    // SampleWeightedDistinct zeroes weights via +/- deltas, so allow the
    // floating-point dust that restoring can leave behind.
    if (weights[i] < -1e-9 * std::max<Weight>(1.0, std::fabs(total))) {
      if (error) {
        *error = "negative weight " + std::to_string(weights[i]) +
                 " at entry " + std::to_string(i);
      }
      return false;
    }
    total += weights[i];
  }
  if (!std::isfinite(TotalWeight())) {
    if (error) *error = "non-finite total weight";
    return false;
  }
  return true;
}

}  // namespace platod2gl
