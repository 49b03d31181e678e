// FSTable: the Fenwick-tree Sum Table of PlatoD2GL (paper Section V).
//
// A CSTable (see cstable.h) supports O(log n) weighted sampling but pays
// O(n) for in-place weight updates and deletions. The FSTable keeps the
// Fenwick-tree layout instead:
//
//   F[i] = sum_{j = g(i)+1}^{i} w_j,   g(i) = i - LSB(i+1)       (0-indexed)
//
// where LSB(x) is the lowest set bit of x. Every mutation — appending a new
// weight (Algorithm 4), an in-place weight change (Algorithm 3) and a
// swap-with-last deletion — costs O(log n), and the FTS sampling method
// (Algorithm 5) draws a weighted index in O(log n) by a range-narrowing
// descent over power-of-two-aligned ranges, exploiting the sub-tree-sum
// property F[2^k - 1] = sum_{j<=2^k-1} w_j (paper Theorem 4).
//
// The table stores only the Fenwick array: the raw weight of entry i is
// recovered as Prefix(i) - Prefix(i-1) in O(log n), so the memory cost
// equals that of storing the weights themselves, like ITS/CSTable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/types.h"

namespace platod2gl {

/// Borrowed view of one Fenwick array, for the cross-leaf batched
/// descent: the samtree hands the kernel one view per draw, so draws that
/// landed in *different* leaves still resolve in one lane-parallel sweep.
struct FenwickView {
  const Weight* tree = nullptr;
  std::uint32_t n = 0;
};

/// Resolve m independent FTS draws, each against its own Fenwick array:
/// out[d] is exactly what FSTable::FindIndex(rs[d]) would return on the
/// table views[d] points at. The AVX2 flavour runs four descents in
/// parallel lanes (gather + compare + blend — every lane performs the
/// same IEEE comparisons and subtractions the scalar loop would, so the
/// result is bit-identical across dispatch); the scalar flavour is the
/// FindIndex loop verbatim. Every view must be non-empty.
void FenwickFindIndices(const FenwickView* views, const Weight* rs,
                        std::uint32_t* out, std::size_t m);

class FSTable {
 public:
  FSTable() = default;

  /// Build from a weight array in O(n) (each append is amortised O(log n),
  /// but the bulk constructor uses the linear-time Fenwick build), with
  /// room for max(capacity, weights.size()) entries: sized exactly unless
  /// the caller asks for room.
  explicit FSTable(const std::vector<Weight>& weights,
                   std::size_t capacity = 0);

  std::size_t size() const { return tree_.size(); }
  bool empty() const { return tree_.empty(); }
  /// Entries the table holds room for (what MemoryUsage charges).
  std::size_t capacity() const { return tree_.capacity(); }
  /// Make room for n entries (no-op when there is room).
  void Reserve(std::size_t n) { tree_.reserve(n); }

  /// Raw Fenwick entry — exposed for tests reproducing the paper's examples.
  Weight RawEntry(std::size_t i) const { return tree_[i]; }

  /// Prefix sum of weights through index i (inclusive) — O(log n).
  /// This is GETALLSUM of Algorithm 5 generalised to any prefix.
  Weight Prefix(std::size_t i) const;

  /// Sum of all weights — O(log n).
  Weight TotalWeight() const {
    return tree_.empty() ? 0.0 : Prefix(tree_.size() - 1);
  }

  /// Raw weight of entry i — O(log n).
  Weight WeightAt(std::size_t i) const {
    return i == 0 ? Prefix(0) : Prefix(i) - Prefix(i - 1);
  }

  /// Add a delta to entry i — Algorithm 3, O(log n).
  void AddDelta(std::size_t i, Weight delta);

  /// Overwrite the weight of entry i — O(log n).
  void UpdateWeight(std::size_t i, Weight w);

  /// Append a new weight at index n — Algorithm 4, O(log n). A full
  /// table grows by a bounded step (GrownCapacity), not by doubling.
  void Append(Weight w);

  /// Delete entry i by swapping with the last entry and truncating —
  /// O(log n) (paper Section V-A2, "Deletion"). After the call the weight
  /// previously at index size()-1 lives at index i; callers must apply the
  /// same swap to their parallel ID arrays.
  void RemoveSwapLast(std::size_t i);

  /// FTS sampling (Algorithm 5): draw index i with probability w_i / W,
  /// using the random number r in [0, TotalWeight()) — O(log n).
  std::size_t FindIndex(Weight r) const;

  /// Batched FTS: resolve m residuals rs[0..m) to entry indices
  /// out[0..m), in order, bit-identical to calling FindIndex(rs[d]) for
  /// each d. No ordering requirement on rs — the batch runs four
  /// independent descents per step in AVX2 lanes (see FenwickFindIndices),
  /// trading the scalar loop's ~log n unpredictable branches per draw for
  /// branch-free gathers and blends.
  void FindIndices(const Weight* rs, std::uint32_t* out,
                   std::size_t m) const;

  /// This table as a kernel view (see FenwickFindIndices).
  FenwickView View() const {
    return {tree_.data(), static_cast<std::uint32_t>(tree_.size())};
  }

  /// Draw one index with probability w_i / W.
  std::size_t Sample(Xoshiro256& rng) const;

  /// Recover the raw weight array in O(n) — the inverse of the linear-time
  /// Fenwick build. Used when a leaf is split so the whole split stays
  /// O(n_L) as Theorem 2 requires.
  std::vector<Weight> DecodeWeights() const;
  /// DecodeWeights into *out, reusing its buffer.
  void DecodeWeightsInto(std::vector<Weight>* out) const;

  /// Bytes held by this table.
  std::size_t MemoryUsage() const { return tree_.capacity() * sizeof(Weight); }

  /// Structural self-check for the samtree invariant sweep: every decoded
  /// weight must be finite and non-negative (FTS descends on cumulative
  /// masses; one negative weight silently skews every draw in the leaf).
  /// Cross-node sum agreement is checked by Samtree::CheckInvariants.
  /// Returns true when consistent, otherwise fills *error.
  bool CheckConsistent(std::string* error) const;

  /// Test-only hook for the invariant checker's negative tests: overwrite
  /// a raw Fenwick entry without maintaining the structure.
  void CorruptRawEntryForTest(std::size_t i, Weight w) { tree_[i] = w; }

 private:
  std::vector<Weight> tree_;
};

}  // namespace platod2gl
