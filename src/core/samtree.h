// Samtree: the per-vertex dynamic neighbourhood store of PlatoD2GL
// (paper Section IV).
//
// A samtree with node capacity c is a B-tree-like structure (Definition 1):
// every node has at most c children, internal nodes at least ceil(c/2), the
// root at least two unless it is a leaf, and all leaves sit on one level.
//
//  * Leaves hold the neighbours of the source vertex: an *unordered*
//    CP-ID list plus an FSTable over the edge weights, so in-place weight
//    changes and swap-deletes cost O(log n_L) (Section V).
//  * Internal nodes hold an *ordered* list of each child's minimum ID (for
//    routing) plus a CSTable over per-child subtree weight sums (for the
//    ITS descent during sampling) and per-child element counts (for uniform
//    sampling).
//  * Leaf overflow triggers the α-Split partition (Algorithm 1); leaf
//    underflow merges with the nearest sibling and re-splits if the merge
//    overflows, preserving Definition 1.
//  * Weighted sampling runs ITS over the CSTables down the internal levels
//    and FTS inside the leaf (Section V-C).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/memory.h"
#include "common/random.h"
#include "common/sched_hooks.h"
#include "common/types.h"
#include "core/compressed_ids.h"
#include "index/cstable.h"
#include "index/fstable.h"

namespace platod2gl {

/// Tunables of a samtree (paper defaults: capacity 256, alpha 0,
/// compression on).
struct SamtreeConfig {
  std::uint32_t node_capacity = 256;  ///< c in the paper
  std::uint32_t alpha = 0;            ///< α-Split slackness
  bool compress_ids = true;           ///< CP-IDs compression (Section VI-A)
};

/// Ways Samtree::CorruptForTest can deliberately damage a tree so the
/// invariant checker's negative tests can prove CheckInvariants catches
/// real corruption (not just returns true on healthy trees).
enum class TestCorruption {
  kFSTableEntry,  ///< raw Fenwick entry in the leftmost leaf
  kCSTableEntry,  ///< root CSTable prefix sum (needs an internal root)
  kChildCount,    ///< root per-child count (needs an internal root)
  kMinId,         ///< root routing-ID ordering (needs an internal root)
};

/// Counters for Table V: how many structural node modifications the
/// dynamic updates performed, split by node kind. A tree carries no
/// counters: the mutators bump the calling thread's (see
/// Samtree::ThreadOpStats), so a one-thread build reads its exact totals.
struct SamtreeOpStats {
  std::uint64_t leaf_ops = 0;      ///< leaf appends / removals / splits
  std::uint64_t internal_ops = 0;  ///< internal child-list changes / splits
  std::uint64_t leaf_splits = 0;
  std::uint64_t internal_splits = 0;
  std::uint64_t merges = 0;
};

class Samtree {
 public:
  // Node layout — an implementation detail, exposed so the translation
  // unit's file-local helpers (and white-box tests) can traverse the tree.
  struct Node;
  struct LeafNode;
  struct InternalNode;
  /// Node has no vtable (a leaf is 72 bytes); the deleter frees the node
  /// as the kind its is_leaf flag names.
  struct NodeDeleter {
    void operator()(Node* node) const;
  };
  using NodePtr = std::unique_ptr<Node, NodeDeleter>;

  explicit Samtree(SamtreeConfig config = {});
  ~Samtree();

  /// Construct a samtree from a whole neighbourhood at once: neighbours
  /// are sorted by ID (O(n log n)), packed into evenly-filled leaves and
  /// assembled bottom-up in O(n), skipping the per-insert descent/split
  /// work entirely. Duplicate IDs keep their last weight. This is what
  /// checkpoint restore and re-partitioning use.
  static Samtree BulkBuild(std::vector<std::pair<VertexId, Weight>> neighbors,
                           SamtreeConfig config = {});

  Samtree(Samtree&&) noexcept;
  Samtree& operator=(Samtree&&) noexcept;
  Samtree(const Samtree&) = delete;
  Samtree& operator=(const Samtree&) = delete;

  /// Insert neighbour v with weight w; if v is already present its weight
  /// is overwritten (paper Algorithm 2).
  void Insert(VertexId v, Weight w);

  /// Bulk-load insert: the caller guarantees v is not present, so the
  /// O(n_L) duplicate scan in the leaf is skipped. Inserting a duplicate
  /// through this path corrupts the tree — use only on deduplicated
  /// streams (see NeighborStore::AddEdgeFast).
  void InsertUnchecked(VertexId v, Weight w);

  /// In-place weight update; returns false if v is absent.
  bool Update(VertexId v, Weight w);

  /// Delete neighbour v; returns false if v is absent.
  bool Remove(VertexId v);

  bool Contains(VertexId v) const;

  /// Edge weight to v, or nullopt if absent.
  std::optional<Weight> GetWeight(VertexId v) const;

  /// Number of neighbours stored.
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Sum of all edge weights.
  Weight TotalWeight() const;

  /// Height of the tree (number of levels; 0 when empty, 1 for a lone
  /// leaf).
  std::size_t Height() const;

  /// Draw one neighbour with probability w / W (ITS over internal
  /// CSTables + FTS in the leaf). Tree must be non-empty.
  VertexId SampleWeighted(Xoshiro256& rng) const;

  /// Draw one neighbour uniformly at random. Tree must be non-empty.
  VertexId SampleUniform(Xoshiro256& rng) const;

  /// Draw k neighbours with replacement, appended to *out, by the
  /// batched multi-draw descent (docs/sampling_simd.md): draw all k
  /// variates up front — consuming the RNG in exactly the order the
  /// k-iteration loop over SampleWeighted(rng) would — then route them
  /// down the tree level-synchronously (every leaf sits on one level, so
  /// all draws cross the same number of internal levels): each routing
  /// step is the scalar ITS step, but the next node is prefetched a full
  /// pass before it is touched, and at the bottom the k leaf Fenwick
  /// descents resolve four at a time in AVX2 lanes (FenwickFindIndices).
  /// Draws never leave their original slots, so out[i] is bit-identical
  /// to the i-th draw of the one-at-a-time loop under the same seed, with
  /// or without SIMD dispatch. A k too small to amortise the set-up runs
  /// the plain per-draw loop instead, with the same output. Tree must be
  /// non-empty.
  void SampleWeighted(std::size_t k, Xoshiro256& rng,
                      std::vector<VertexId>* out) const;

  /// Draw k neighbours uniformly with replacement, appended to *out: the
  /// loop over SampleUniform(rng). The leaf draw is O(1), and batching
  /// the routing measured no faster (docs/sampling_simd.md). Tree must be
  /// non-empty.
  void SampleUniform(std::size_t k, Xoshiro256& rng,
                     std::vector<VertexId>* out) const;

  /// Draw up to k *distinct* neighbours, weighted, without replacement:
  /// each draw temporarily zeroes the drawn edge's weight (an O(log n)
  /// FSTable delta — the operation that makes this affordable at all;
  /// a CSTable-based store would pay O(n) per draw) and every weight is
  /// restored before returning. May return fewer than k when the
  /// remaining weight mass is zero. Non-const because of the temporary
  /// mutation; the tree is bit-identical afterwards up to floating-point
  /// rounding.
  std::vector<VertexId> SampleWeightedDistinct(std::size_t k,
                                               Xoshiro256& rng);

  /// Number of neighbours with ID in [lo, hi] — O(H + n_L) thanks to the
  /// ID-partitioned internal nodes and per-child counts.
  std::size_t CountInRange(VertexId lo, VertexId hi) const;

  /// All (neighbour, weight) pairs, in arbitrary order — O(n).
  std::vector<std::pair<VertexId, Weight>> Neighbors() const;

  /// Visit every (neighbour, weight) pair without materialising the
  /// whole neighbourhood — O(n) time, O(n_L) transient space (one leaf's
  /// decoded weights at a time).
  void ForEachNeighbor(
      const std::function<void(VertexId, Weight)>& fn) const;

  /// Bytes used, split into topology / index / other.
  MemoryBreakdown Memory() const;
  std::size_t MemoryUsage() const { return Memory().Total(); }

  /// Modification stamp for external derived structures (the hot-vertex
  /// sampling cache). Every construction and every mutation — Insert,
  /// InsertUnchecked, Update, Remove, SampleWeightedDistinct (which
  /// temporarily zeroes weights) and move-assignment — stores a fresh
  /// value drawn from a process-wide monotonic clock, so a stamp observed
  /// here is never reused by any other tree or any later state of this
  /// tree. A cache entry tagged with version() is valid exactly while the
  /// tree still reports the same value; the update path pays one relaxed
  /// fetch_add.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// The calling thread's Table V counters, summed over every tree it
  /// mutated. Zero them, mutate on this thread, read them back.
  static SamtreeOpStats& ThreadOpStats();

  /// Entries a full leaf array of n entries grows to in a tree of node
  /// capacity c, and the room a split gives each half. Below c/2 it is
  /// GrownCapacity(n), max(4, n/4) more; from c/2 on, where every split
  /// half starts, it steps by a sixth of c, never past c + 1 (the most a
  /// leaf holds before it splits). A split half starts one step up, so it
  /// refills to its next split in two reallocations that copy about what
  /// doubling's two did (DESIGN §5, "Memory accounting").
  static std::size_t LeafGrownCapacity(std::size_t n, std::size_t c);

  const SamtreeConfig& config() const { return config_; }

  /// Verify every Definition-1 / ordering / aggregation invariant:
  /// node-capacity and fill bounds, uniform leaf depth, routing-ID order
  /// and child-range disjointness, per-child counts and CSTable sums
  /// against recomputed subtree aggregates, FSTable weight sanity, and
  /// CP-ID encoding round-trips (see FSTable/CSTable/CompressedIdList
  /// ::CheckConsistent). Returns true when consistent; otherwise fills
  /// *error. Used by the property-test suites, the PD2GL_ENABLE_INVARIANTS
  /// self-check hook and `pd2gl verify-store`.
  bool CheckInvariants(std::string* error) const;

  /// Visit each leaf's CP-ID list and FSTable, left to right (white-box
  /// tests of the leaf layout only).
  void ForEachLeafForTest(
      const std::function<void(const CompressedIdList&, const FSTable&)>& fn)
      const;

  /// Deliberately damage the tree (invariant-checker negative tests only).
  /// Returns false when the tree is too small for the requested damage —
  /// the internal-node kinds need a multi-level tree.
  bool CorruptForTest(TestCorruption kind);

 private:
  struct InsertOutcome;
  struct RemoveOutcome;

  void InsertImpl(VertexId v, Weight w, bool check_existing);
  InsertOutcome InsertRec(Node* node, VertexId v, Weight w,
                          bool check_existing);
  /// Single-descent in-place update; returns the weight delta or nullopt
  /// when v is absent.
  std::optional<Weight> UpdateRec(Node* node, VertexId v, Weight w);
  RemoveOutcome RemoveRec(Node* node, VertexId v);

  NodePtr SplitLeaf(LeafNode* leaf, VertexId* sibling_min);
  NodePtr SplitInternal(InternalNode* node, VertexId* sibling_min);
  void MergeChildInto(InternalNode* parent, std::size_t child_idx);
  void RebuildParentAggregates(InternalNode* node);

  std::size_t MinFill() const;

  static std::uint64_t NextVersion();
  void BumpVersion() {
    version_.store(NextVersion(), std::memory_order_release);
  }

  /// Post-mutation self-check, compiled in by -DPD2GL_ENABLE_INVARIANTS=ON
  /// (a no-op otherwise): re-validates the whole tree after every mutation
  /// while it is small, sampled 1-in-64 above 512 entries (by a hash of
  /// the fresh version stamp) so instrumented builds stay usable, and
  /// aborts with the violation on failure.
  void MaybeSelfCheck();

  // 32 bytes in all: the 12-byte config and the count share 16, then the
  // root pointer and the version stamp.
  SamtreeConfig config_;
  std::uint32_t count_ = 0;
  NodePtr root_;
  // sched::Atomic == std::atomic outside PD2GL_SCHEDCHECK builds.
  sched::Atomic<std::uint64_t> version_{0};  // assigned in the constructor
};

}  // namespace platod2gl
