#include "core/samtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>

#include "common/simd.h"
#include "obs/profile.h"
#include "core/alpha_split.h"

namespace platod2gl {

// ---------------------------------------------------------------------------
// Node layout
// ---------------------------------------------------------------------------

struct Samtree::Node {
  explicit Node(bool leaf) : is_leaf(leaf) {}
  const bool is_leaf;  // NodeDeleter frees the node as this kind
};

struct Samtree::LeafNode : Samtree::Node {
  explicit LeafNode(bool compress) : Node(true), ids(compress) {}

  CompressedIdList ids;  // unordered neighbour IDs (samtree constraint 2)
  FSTable fstable;       // weights index for FTS (samtree constraint 4)

  /// Append one neighbour; full arrays grow to LeafGrownCapacity. Both
  /// arrays always hold the same room (a CP-ID re-encode keeps it), so
  /// the FSTable's says when both are full.
  void Append(VertexId v, Weight w, std::size_t node_capacity) {
    const std::size_t n = fstable.size();
    if (n == fstable.capacity()) {
      const std::size_t room = LeafGrownCapacity(n, node_capacity);
      ids.Reserve(room);
      fstable.Reserve(room);
    }
    ids.Append(v);
    fstable.Append(w);
  }

  /// Replace the contents from parallel (id, weight) arrays, with room for
  /// `room` entries (merges and BulkBuild pass the size: no slack).
  void Assign(const std::vector<VertexId>& new_ids,
              const std::vector<Weight>& new_weights, bool compress,
              std::size_t room) {
    ids = CompressedIdList(new_ids, compress, room);
    fstable = FSTable(new_weights, room);
  }
};

struct Samtree::InternalNode : Samtree::Node {
  explicit InternalNode(bool compress) : Node(false), min_ids(compress) {}

  CompressedIdList min_ids;  // ordered: i-th entry = min ID in child i
  CSTable cstable;           // prefix sums of per-child subtree weights
  std::vector<std::uint64_t> counts;  // per-child subtree neighbour counts
  std::vector<NodePtr> children;
};

#if !defined(PD2GL_SCHEDCHECK)
// The store's fixed per-vertex and per-leaf costs (DESIGN §5, "Memory
// accounting"); a schedcheck build's instrumented atomic is wider.
static_assert(sizeof(Samtree) <= 32, "Samtree grew past 32 bytes");
static_assert(sizeof(Samtree::LeafNode) <= 72, "LeafNode grew past 72 bytes");
#endif

void Samtree::NodeDeleter::operator()(Node* node) const {
  // The one place nodes are freed: Node has no virtual destructor.
  if (node->is_leaf) {
    delete static_cast<LeafNode*>(node);  // pd2gl-lint: allow-naked-new
  } else {
    delete static_cast<InternalNode*>(node);  // pd2gl-lint: allow-naked-new
  }
}

// Per-node helpers ----------------------------------------------------------

namespace {

using LeafNode = Samtree::LeafNode;
using InternalNode = Samtree::InternalNode;

/// make_unique for nodes: owned through NodeDeleter from the start.
template <typename T>
std::unique_ptr<T, Samtree::NodeDeleter> MakeNode(bool compress) {
  return std::unique_ptr<T, Samtree::NodeDeleter>(
      new T(compress));  // pd2gl-lint: allow-naked-new
}

/// Table V counters of the calling thread (Samtree::ThreadOpStats).
thread_local SamtreeOpStats t_op_stats;

/// Per-thread buffers of SplitLeaf, reused so that a split allocates only
/// the arrays of its two halves.
struct SplitScratch {
  std::vector<VertexId> ids, right_ids;
  std::vector<Weight> weights, right_weights;
};
thread_local SplitScratch t_split_scratch;

std::size_t NodeEntryCount(const Samtree::Node* n);
Weight NodeTotalWeight(const Samtree::Node* n);
std::uint64_t NodeNeighborCount(const Samtree::Node* n);
VertexId NodeMinId(const Samtree::Node* n);

std::size_t NodeEntryCount(const Samtree::Node* n) {
  if (n->is_leaf) return static_cast<const LeafNode*>(n)->ids.size();
  return static_cast<const InternalNode*>(n)->children.size();
}

Weight NodeTotalWeight(const Samtree::Node* n) {
  if (n->is_leaf) return static_cast<const LeafNode*>(n)->fstable.TotalWeight();
  return static_cast<const InternalNode*>(n)->cstable.TotalWeight();
}

std::uint64_t NodeNeighborCount(const Samtree::Node* n) {
  if (n->is_leaf) return static_cast<const LeafNode*>(n)->ids.size();
  const auto* in = static_cast<const InternalNode*>(n);
  std::uint64_t total = 0;
  for (std::uint64_t c : in->counts) total += c;
  return total;
}

VertexId NodeMinId(const Samtree::Node* n) {
  if (!n->is_leaf) {
    return static_cast<const InternalNode*>(n)->min_ids.Get(0);
  }
  const auto* leaf = static_cast<const LeafNode*>(n);
  VertexId min = kInvalidVertex;
  for (std::size_t i = 0; i < leaf->ids.size(); ++i) {
    min = std::min(min, leaf->ids.Get(i));
  }
  return min;
}

/// Routing (paper Algorithm 2, DFS step): rightmost child whose minimum ID
/// is <= v; child 0 is the catch-all for v below every key.
std::size_t ChildIndexFor(const InternalNode* node, VertexId v) {
  std::size_t lo = 0;
  std::size_t hi = node->min_ids.size();  // invariant: answer in [lo, hi)
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (node->min_ids.Get(mid) <= v) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

// Outcome structs -----------------------------------------------------------

struct Samtree::InsertOutcome {
  bool inserted = false;  // false when an existing weight was refreshed
  Weight delta = 0.0;     // subtree total-weight change
  NodePtr sibling;        // right sibling when this node split
  VertexId sibling_min = kInvalidVertex;
};

struct Samtree::RemoveOutcome {
  bool removed = false;
  Weight delta = 0.0;
  bool underflow = false;
};

// ---------------------------------------------------------------------------
// Construction / special members
// ---------------------------------------------------------------------------

std::uint64_t Samtree::NextVersion() {
  // Process-wide clock: every value is handed out exactly once, so a
  // version can never collide across trees — a fresh tree landing at a
  // reused heap address cannot revalidate a cache entry of its
  // predecessor.
  static std::atomic<std::uint64_t> clock{0};
  // order: unique-stamp draw; publication happens via the version_ release store
  return clock.fetch_add(1, std::memory_order_relaxed) + 1;
}

SamtreeOpStats& Samtree::ThreadOpStats() { return t_op_stats; }

std::size_t Samtree::LeafGrownCapacity(std::size_t n, std::size_t c) {
  const std::size_t grown = n < c / 2 ? GrownCapacity(n) : n + (c + 5) / 6;
  return std::max(n + 1, std::min(grown, c + 1));
}

Samtree::Samtree(SamtreeConfig config)
    : config_(config), version_(NextVersion()) {
  // Capacities below 4 make the merge/split dance degenerate.
  config_.node_capacity = std::max<std::uint32_t>(4, config_.node_capacity);
}

Samtree::~Samtree() = default;

Samtree::Samtree(Samtree&& other) noexcept
    : config_(other.config_),
      count_(other.count_),
      root_(std::move(other.root_)),
      // order: moves are externally synchronised; no concurrent observer of either tree
      version_(other.version_.load(std::memory_order_relaxed)) {
  other.count_ = 0;
  other.BumpVersion();  // the moved-from shell is a different (empty) tree
}

Samtree& Samtree::operator=(Samtree&& other) noexcept {
  if (this != &other) {
    config_ = other.config_;
    root_ = std::move(other.root_);
    count_ = other.count_;
    // Adopt the source's stamp: it uniquely identifies the moved content,
    // while any entry cached against this tree's old stamp now mismatches.
    // order: moves are externally synchronised; no concurrent observer of either tree
    version_.store(other.version_.load(std::memory_order_relaxed),
                   std::memory_order_release);
    other.count_ = 0;
    other.BumpVersion();
  }
  return *this;
}

Samtree Samtree::BulkBuild(std::vector<std::pair<VertexId, Weight>> neighbors,
                           SamtreeConfig config) {
  Samtree tree(config);
  if (neighbors.empty()) return tree;
  const std::size_t capacity = tree.config_.node_capacity;

  // Stable sort: equal IDs keep their arrival order, so the dedup below
  // keeps the *last* weight (AddEdge semantics).
  std::stable_sort(
      neighbors.begin(), neighbors.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t w = 0;
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    if (w > 0 && neighbors[i].first == neighbors[w - 1].first) {
      neighbors[w - 1].second = neighbors[i].second;
    } else {
      neighbors[w++] = neighbors[i];
    }
  }
  neighbors.resize(w);
  const std::size_t n = neighbors.size();

  // Pack leaves: ceil(n / capacity) even chunks keeps every leaf within
  // [capacity/2, capacity] (Definition 1) while staying one pass.
  std::vector<NodePtr> level;
  std::vector<VertexId> level_mins;
  const std::size_t num_leaves = (n + capacity - 1) / capacity;
  std::size_t cursor = 0;
  for (std::size_t leaf_idx = 0; leaf_idx < num_leaves; ++leaf_idx) {
    const std::size_t remaining_leaves = num_leaves - leaf_idx;
    const std::size_t take =
        (n - cursor + remaining_leaves - 1) / remaining_leaves;
    auto leaf = MakeNode<LeafNode>(tree.config_.compress_ids);
    std::vector<VertexId> ids;
    std::vector<Weight> weights;
    ids.reserve(take);
    weights.reserve(take);
    for (std::size_t i = 0; i < take; ++i, ++cursor) {
      ids.push_back(neighbors[cursor].first);
      weights.push_back(neighbors[cursor].second);
    }
    leaf->Assign(ids, weights, tree.config_.compress_ids, ids.size());
    level_mins.push_back(ids.front());  // sorted: front is the minimum
    level.push_back(std::move(leaf));
  }

  // Assemble internal levels until one root remains.
  while (level.size() > 1) {
    std::vector<NodePtr> parents;
    std::vector<VertexId> parent_mins;
    const std::size_t m = level.size();
    const std::size_t num_parents = (m + capacity - 1) / capacity;
    std::size_t child = 0;
    for (std::size_t p = 0; p < num_parents; ++p) {
      const std::size_t remaining = num_parents - p;
      const std::size_t take = (m - child + remaining - 1) / remaining;
      auto node = MakeNode<InternalNode>(tree.config_.compress_ids);
      parent_mins.push_back(level_mins[child]);
      for (std::size_t i = 0; i < take; ++i, ++child) {
        node->min_ids.Append(level_mins[child]);
        node->children.push_back(std::move(level[child]));
      }
      tree.RebuildParentAggregates(node.get());
      parents.push_back(std::move(node));
    }
    level = std::move(parents);
    level_mins = std::move(parent_mins);
  }

  tree.root_ = std::move(level.front());
  tree.count_ = static_cast<std::uint32_t>(n);
  return tree;
}

std::size_t Samtree::MinFill() const {
  const std::size_t half = config_.node_capacity / 2;
  // α-Split may legally produce nodes of size c/2 - α (paper Remark after
  // Theorem 2), so the underflow threshold relaxes with alpha.
  return half > config_.alpha ? half - config_.alpha : 1;
}

// ---------------------------------------------------------------------------
// Splits
// ---------------------------------------------------------------------------

Samtree::NodePtr Samtree::SplitLeaf(LeafNode* leaf, VertexId* sibling_min) {
  SplitScratch& s = t_split_scratch;
  std::vector<VertexId>& ids = s.ids;
  std::vector<Weight>& weights = s.weights;
  leaf->ids.DecodeInto(&ids);
  leaf->fstable.DecodeWeightsInto(&weights);

  // Best balance = split at the median (Algorithm 2 line 8).
  const std::size_t pivot =
      AlphaSplit(ids, weights, ids.size() / 2, config_.alpha);

  // Left keeps [0, pivot), the sibling takes [pivot, n): the pivot element
  // itself is the sibling's minimum, so no extra scan is needed.
  std::vector<VertexId>& right_ids = s.right_ids;
  std::vector<Weight>& right_weights = s.right_weights;
  right_ids.assign(ids.begin() + static_cast<std::ptrdiff_t>(pivot),
                   ids.end());
  right_weights.assign(weights.begin() + static_cast<std::ptrdiff_t>(pivot),
                       weights.end());
  ids.resize(pivot);
  weights.resize(pivot);

  // Each half starts one growth step up: a split is where appends land.
  const std::size_t c = config_.node_capacity;
  leaf->Assign(ids, weights, config_.compress_ids,
               LeafGrownCapacity(ids.size(), c));
  auto sibling = MakeNode<LeafNode>(config_.compress_ids);
  sibling->Assign(right_ids, right_weights, config_.compress_ids,
                  LeafGrownCapacity(right_ids.size(), c));
  *sibling_min = right_ids.front();

  ++t_op_stats.leaf_splits;
  t_op_stats.leaf_ops += 2;
  return sibling;
}

Samtree::NodePtr Samtree::SplitInternal(InternalNode* node,
                                        VertexId* sibling_min) {
  // Internal entries are ordered, so the split is an exact median cut
  // (Section IV-C, "our method is much simpler").
  const std::size_t mid = node->children.size() / 2;
  auto sibling = MakeNode<InternalNode>(config_.compress_ids);
  *sibling_min = node->min_ids.Get(mid);

  for (std::size_t i = mid; i < node->children.size(); ++i) {
    sibling->children.push_back(std::move(node->children[i]));
    sibling->min_ids.Append(node->min_ids.Get(i));
  }
  node->children.resize(mid);
  while (node->min_ids.size() > mid) {
    node->min_ids.RemoveAt(node->min_ids.size() - 1);
  }

  RebuildParentAggregates(node);
  RebuildParentAggregates(sibling.get());

  ++t_op_stats.internal_splits;
  t_op_stats.internal_ops += 2;
  return sibling;
}

void Samtree::RebuildParentAggregates(InternalNode* node) {
  std::vector<Weight> sums;
  sums.reserve(node->children.size());
  node->counts.clear();
  node->counts.reserve(node->children.size());
  for (const auto& child : node->children) {
    sums.push_back(NodeTotalWeight(child.get()));
    node->counts.push_back(NodeNeighborCount(child.get()));
  }
  node->cstable = CSTable(sums);
}

// ---------------------------------------------------------------------------
// Insertion (paper Algorithm 2)
// ---------------------------------------------------------------------------

Samtree::InsertOutcome Samtree::InsertRec(Node* node, VertexId v, Weight w,
                                          bool check_existing) {
  InsertOutcome out;

  if (node->is_leaf) {
    auto* leaf = static_cast<LeafNode*>(node);
    ++t_op_stats.leaf_ops;
    if (check_existing) {
      const std::size_t pos = leaf->ids.Find(v);
      if (pos != CompressedIdList::npos) {
        // Algorithm 2 line 4: v already present — refresh its weight.
        const Weight old = leaf->fstable.WeightAt(pos);
        leaf->fstable.UpdateWeight(pos, w);
        out.delta = w - old;
        return out;
      }
    }
    // Algorithm 2 line 6: append to the unordered leaf.
    leaf->Append(v, w, config_.node_capacity);
    out.inserted = true;
    out.delta = w;
    if (leaf->ids.size() > config_.node_capacity) {
      out.sibling = SplitLeaf(leaf, &out.sibling_min);
    }
    return out;
  }

  auto* in = static_cast<InternalNode*>(node);
  const std::size_t j = ChildIndexFor(in, v);
  InsertOutcome child_out =
      InsertRec(in->children[j].get(), v, w, check_existing);

  out.inserted = child_out.inserted;
  out.delta = child_out.delta;

  // Keep the routing key tight when v became the new subtree minimum.
  if (child_out.inserted && v < in->min_ids.Get(j)) {
    in->min_ids.Set(j, v);
  }

  if (child_out.sibling) {
    // Adopt the split-off sibling right of child j.
    in->children.insert(
        in->children.begin() + static_cast<std::ptrdiff_t>(j + 1),
        std::move(child_out.sibling));
    in->min_ids.Insert(j + 1, child_out.sibling_min);
    RebuildParentAggregates(in);
    ++t_op_stats.internal_ops;
    if (in->children.size() > config_.node_capacity) {
      out.sibling = SplitInternal(in, &out.sibling_min);
    }
  } else {
    // Aggregation-only maintenance (Algorithm 2 line 9): propagate the
    // weight delta into this level's CSTable and the per-child counts.
    in->cstable.AddDelta(j, child_out.delta);
    if (child_out.inserted) ++in->counts[j];
  }
  return out;
}

void Samtree::Insert(VertexId v, Weight w) {
  InsertImpl(v, w, /*check_existing=*/true);
}

void Samtree::InsertUnchecked(VertexId v, Weight w) {
  InsertImpl(v, w, /*check_existing=*/false);
}

void Samtree::InsertImpl(VertexId v, Weight w, bool check_existing) {
  BumpVersion();
  if (!root_) {
    auto leaf = MakeNode<LeafNode>(config_.compress_ids);
    leaf->Append(v, w, config_.node_capacity);
    root_ = std::move(leaf);
    count_ = 1;
    ++t_op_stats.leaf_ops;
    return;
  }

  InsertOutcome out = InsertRec(root_.get(), v, w, check_existing);
  if (out.inserted) ++count_;
  if (out.sibling) {
    // Grow a new root above the split (the only way a samtree gains height).
    auto new_root = MakeNode<InternalNode>(config_.compress_ids);
    new_root->min_ids.Append(NodeMinId(root_.get()));
    new_root->min_ids.Append(out.sibling_min);
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(out.sibling));
    RebuildParentAggregates(new_root.get());
    root_ = std::move(new_root);
    ++t_op_stats.internal_ops;
  }
  MaybeSelfCheck();
}

std::optional<Weight> Samtree::UpdateRec(Node* node, VertexId v, Weight w) {
  if (node->is_leaf) {
    auto* leaf = static_cast<LeafNode*>(node);
    const std::size_t pos = leaf->ids.Find(v);
    if (pos == CompressedIdList::npos) return std::nullopt;
    const Weight old = leaf->fstable.WeightAt(pos);
    leaf->fstable.UpdateWeight(pos, w);  // Algorithm 3: O(log n_L)
    ++t_op_stats.leaf_ops;
    return w - old;
  }
  auto* in = static_cast<InternalNode*>(node);
  const std::size_t j = ChildIndexFor(in, v);
  const std::optional<Weight> delta = UpdateRec(in->children[j].get(), v, w);
  if (delta) in->cstable.AddDelta(j, *delta);
  return delta;
}

bool Samtree::Update(VertexId v, Weight w) {
  if (!root_) return false;
  BumpVersion();
  const bool updated = UpdateRec(root_.get(), v, w).has_value();
  if (updated) MaybeSelfCheck();
  return updated;
}

// ---------------------------------------------------------------------------
// Deletion (paper Section IV-D)
// ---------------------------------------------------------------------------

void Samtree::MergeChildInto(InternalNode* parent, std::size_t child_idx) {
  // Merge with the nearest sibling: prefer the right one, fall back left.
  const std::size_t right_idx =
      (child_idx + 1 < parent->children.size()) ? child_idx + 1 : child_idx;
  const std::size_t lo = right_idx == child_idx ? child_idx - 1 : child_idx;
  const std::size_t hi = lo + 1;

  Node* left = parent->children[lo].get();
  Node* right = parent->children[hi].get();
  ++t_op_stats.merges;

  if (left->is_leaf) {
    auto* ll = static_cast<LeafNode*>(left);
    auto* rl = static_cast<LeafNode*>(right);
    std::vector<VertexId> ids = ll->ids.Decode();
    std::vector<Weight> weights = ll->fstable.DecodeWeights();
    const std::vector<VertexId> rids = rl->ids.Decode();
    const std::vector<Weight> rweights = rl->fstable.DecodeWeights();
    ids.insert(ids.end(), rids.begin(), rids.end());
    weights.insert(weights.end(), rweights.begin(), rweights.end());
    ll->Assign(ids, weights, config_.compress_ids, ids.size());
    t_op_stats.leaf_ops += 2;
  } else {
    auto* li = static_cast<InternalNode*>(left);
    auto* ri = static_cast<InternalNode*>(right);
    for (std::size_t i = 0; i < ri->children.size(); ++i) {
      li->min_ids.Append(ri->min_ids.Get(i));
      li->children.push_back(std::move(ri->children[i]));
    }
    RebuildParentAggregates(li);
    t_op_stats.internal_ops += 2;
  }

  parent->children.erase(parent->children.begin() +
                         static_cast<std::ptrdiff_t>(hi));
  parent->min_ids.RemoveAt(hi);
  ++t_op_stats.internal_ops;

  // The merge may have been triggered by deleting the left child's minimum
  // out of an (about-to-be-)empty leaf, leaving its routing key stale.
  if (NodeNeighborCount(parent->children[lo].get()) > 0) {
    parent->min_ids.Set(lo, NodeMinId(parent->children[lo].get()));
  }

  // If the merged node overflows, split it back — this is how the samtree
  // "borrows" from a sibling while reusing the α-Split machinery.
  Node* merged = parent->children[lo].get();
  if (NodeEntryCount(merged) > config_.node_capacity) {
    VertexId sibling_min = kInvalidVertex;
    NodePtr sibling;
    if (merged->is_leaf) {
      sibling = SplitLeaf(static_cast<LeafNode*>(merged), &sibling_min);
    } else {
      sibling = SplitInternal(static_cast<InternalNode*>(merged), &sibling_min);
    }
    parent->children.insert(
        parent->children.begin() + static_cast<std::ptrdiff_t>(lo + 1),
        std::move(sibling));
    parent->min_ids.Insert(lo + 1, sibling_min);
  }
  RebuildParentAggregates(parent);
}

Samtree::RemoveOutcome Samtree::RemoveRec(Node* node, VertexId v) {
  RemoveOutcome out;

  if (node->is_leaf) {
    auto* leaf = static_cast<LeafNode*>(node);
    const std::size_t pos = leaf->ids.Find(v);
    if (pos == CompressedIdList::npos) return out;
    const Weight w = leaf->fstable.WeightAt(pos);
    // Unordered leaf: swap in the last element and truncate (Section IV-D).
    leaf->fstable.RemoveSwapLast(pos);
    leaf->ids.RemoveSwapLast(pos);
    ++t_op_stats.leaf_ops;
    out.removed = true;
    out.delta = -w;
    out.underflow = leaf->ids.size() < MinFill();
    return out;
  }

  auto* in = static_cast<InternalNode*>(node);
  const std::size_t j = ChildIndexFor(in, v);
  RemoveOutcome child_out = RemoveRec(in->children[j].get(), v);
  if (!child_out.removed) return child_out;

  out.removed = true;
  out.delta = child_out.delta;

  in->cstable.AddDelta(j, child_out.delta);
  --in->counts[j];

  // Refresh the routing key if we deleted the child's minimum.
  if (in->min_ids.Get(j) == v && in->counts[j] > 0) {
    in->min_ids.Set(j, NodeMinId(in->children[j].get()));
  }

  if (child_out.underflow && in->children.size() > 1) {
    MergeChildInto(in, j);
  }
  out.underflow = in->children.size() < std::max<std::size_t>(2, MinFill());
  return out;
}

bool Samtree::Remove(VertexId v) {
  if (!root_) return false;
  BumpVersion();
  RemoveOutcome out = RemoveRec(root_.get(), v);
  if (!out.removed) return false;
  --count_;

  if (count_ == 0) {
    root_.reset();
    return true;
  }
  // Collapse a root that lost all but one child (height shrink).
  while (root_ && !root_->is_leaf) {
    auto* in = static_cast<InternalNode*>(root_.get());
    if (in->children.size() != 1) break;
    root_ = std::move(in->children[0]);
  }
  MaybeSelfCheck();
  return true;
}

// ---------------------------------------------------------------------------
// Lookups
// ---------------------------------------------------------------------------

bool Samtree::Contains(VertexId v) const { return GetWeight(v).has_value(); }

std::optional<Weight> Samtree::GetWeight(VertexId v) const {
  const Node* n = root_.get();
  if (!n) return std::nullopt;
  while (!n->is_leaf) {
    const auto* in = static_cast<const InternalNode*>(n);
    n = in->children[ChildIndexFor(in, v)].get();
  }
  const auto* leaf = static_cast<const LeafNode*>(n);
  const std::size_t pos = leaf->ids.Find(v);
  if (pos == CompressedIdList::npos) return std::nullopt;
  return leaf->fstable.WeightAt(pos);
}

Weight Samtree::TotalWeight() const {
  return root_ ? NodeTotalWeight(root_.get()) : 0.0;
}

std::size_t Samtree::Height() const {
  std::size_t h = 0;
  const Node* n = root_.get();
  while (n) {
    ++h;
    n = n->is_leaf
            ? nullptr
            : static_cast<const InternalNode*>(n)->children.front().get();
  }
  return h;
}

// ---------------------------------------------------------------------------
// Sampling (paper Section V-C)
// ---------------------------------------------------------------------------

VertexId Samtree::SampleWeighted(Xoshiro256& rng) const {
  assert(root_ && "SampleWeighted on an empty samtree");
  Weight r = rng.NextDouble(TotalWeight());
  const Node* n = root_.get();
  while (!n->is_leaf) {
    // ITS over the internal CSTable: smallest child i with C[i] > r.
    const auto* in = static_cast<const InternalNode*>(n);
    const std::size_t i = in->cstable.FindIndex(r);
    if (i > 0) r -= in->cstable.Prefix(i - 1);
    n = in->children[i].get();
  }
  // FTS inside the leaf.
  const auto* leaf = static_cast<const LeafNode*>(n);
  return leaf->ids.Get(leaf->fstable.FindIndex(r));
}

VertexId Samtree::SampleUniform(Xoshiro256& rng) const {
  assert(root_ && "SampleUniform on an empty samtree");
  std::uint64_t r = rng.NextUint64(count_);
  const Node* n = root_.get();
  while (!n->is_leaf) {
    const auto* in = static_cast<const InternalNode*>(n);
    std::size_t i = 0;
    while (r >= in->counts[i]) {
      r -= in->counts[i];
      ++i;
    }
    n = in->children[i].get();
  }
  return static_cast<const LeafNode*>(n)->ids.Get(r);
}

namespace {

/// Below this many draws, the batch set-up (scratch sizing, the
/// level-synchronous routing pass) costs more than it saves and the
/// plain per-draw loop wins. The cutoff is a pure-perf knob: both sides
/// produce identical samples, so it never affects results.
constexpr std::size_t kBatchMinDraws = 4;

/// Per-thread reusable buffers for the batched descent — sampling is the
/// serving hot path, so steady state must not allocate.
struct BatchScratch {
  std::vector<Weight> r;  // residual of each draw, original order
  std::vector<const Samtree::Node*> nodes;  // current node of each draw
  std::vector<FenwickView> views;           // leaf Fenwick of each draw
  std::vector<std::uint32_t> leaf_idx;
};

BatchScratch& Scratch() {
  static thread_local BatchScratch scratch;
  return scratch;
}

}  // namespace

void Samtree::SampleWeighted(std::size_t k, Xoshiro256& rng,
                             std::vector<VertexId>* out) const {
  out->reserve(out->size() + k);
  if (k < kBatchMinDraws) {
    for (std::size_t i = 0; i < k; ++i) out->push_back(SampleWeighted(rng));
    return;
  }
  assert(root_ && "SampleWeighted on an empty samtree");
  // Batch granularity on purpose: a per-draw timer would cost a
  // comparable order to the descent itself (obs/profile.h).
  PD2GL_PROFILE_SCOPE(obs::ProfileSite::kSamtreeDescent);
  const Weight total = TotalWeight();
  BatchScratch& s = Scratch();
  s.r.resize(k);
  s.leaf_idx.resize(k);
  // Draw everything up front, consuming the RNG in exactly the order the
  // one-draw-at-a-time loop would — the determinism contract callers
  // (and the distributed retry path) rely on. Draws keep their original
  // slots throughout; nothing is reordered.
  for (std::size_t i = 0; i < k; ++i) s.r[i] = rng.NextDouble(total);

  if (root_->is_leaf) {
    const auto* leaf = static_cast<const LeafNode*>(root_.get());
    leaf->fstable.FindIndices(s.r.data(), s.leaf_idx.data(), k);
    for (std::size_t d = 0; d < k; ++d) {
      out->push_back(leaf->ids.Get(s.leaf_idx[d]));
    }
    return;
  }

  // Route all k draws down the internal levels together,
  // level-synchronously (Definition 1 puts every leaf on one level, so
  // all draws cross the same number of levels). Per draw this is the
  // exact scalar ITS step — same CSTable::FindIndex, same Prefix
  // subtraction — but batching it keeps one node's CSTable hot for every
  // draw routed through it and gives each child prefetch a full pass
  // worth of latency to land before the next level touches it.
  s.nodes.assign(k, root_.get());
  const std::size_t height = Height();
  for (std::size_t level = 0; level + 1 < height; ++level) {
    for (std::size_t d = 0; d < k; ++d) {
      const auto* in = static_cast<const InternalNode*>(s.nodes[d]);
      const std::size_t j = in->cstable.FindIndex(s.r[d]);
      if (j > 0) s.r[d] -= in->cstable.Prefix(j - 1);
      const Node* child = in->children[j].get();
      simd::PrefetchRead(child);
      s.nodes[d] = child;
    }
  }

  // All draws sit at their leaves: resolve the k Fenwick descents in
  // parallel lanes — draws in different leaves included — then decode.
  s.views.resize(k);
  for (std::size_t d = 0; d < k; ++d) {
    s.views[d] = static_cast<const LeafNode*>(s.nodes[d])->fstable.View();
  }
  FenwickFindIndices(s.views.data(), s.r.data(), s.leaf_idx.data(), k);
  for (std::size_t d = 0; d < k; ++d) {
    out->push_back(
        static_cast<const LeafNode*>(s.nodes[d])->ids.Get(s.leaf_idx[d]));
  }
}

void Samtree::SampleUniform(std::size_t k, Xoshiro256& rng,
                            std::vector<VertexId>* out) const {
  out->reserve(out->size() + k);
  for (std::size_t i = 0; i < k; ++i) out->push_back(SampleUniform(rng));
}

std::vector<VertexId> Samtree::SampleWeightedDistinct(std::size_t k,
                                                      Xoshiro256& rng) {
  std::vector<VertexId> out;
  if (!root_) return out;
  k = std::min<std::size_t>(k, count_);
  out.reserve(k);

  // Floating-point floor: once the remaining mass drops to rounding
  // noise relative to the original total, further draws would be
  // arbitrary.
  const Weight floor = std::max(1e-12, TotalWeight() * 1e-12);

  std::vector<std::pair<VertexId, Weight>> drawn;
  drawn.reserve(k);
  while (out.size() < k && TotalWeight() > floor) {
    const VertexId v = SampleWeighted(rng);
    const std::optional<Weight> w = GetWeight(v);
    if (!w || *w <= 0.0) break;  // rounding residue selected a spent edge
    Update(v, 0.0);              // take v out of the distribution
    drawn.emplace_back(v, *w);
    out.push_back(v);
  }
  for (const auto& [v, w] : drawn) Update(v, w);  // restore
  return out;
}

namespace {

struct RangeQuery {
  VertexId lo;
  VertexId hi;
  std::size_t count = 0;
};

/// [subtree_lo, subtree_hi] is a conservative bound on the IDs under n.
void RangeVisit(const Samtree::Node* n, VertexId subtree_lo,
                VertexId subtree_hi, RangeQuery* q) {
  if (subtree_lo > q->hi || subtree_hi < q->lo) return;  // disjoint

  if (n->is_leaf) {
    const auto* leaf = static_cast<const LeafNode*>(n);
    if (subtree_lo >= q->lo && subtree_hi <= q->hi) {
      q->count += leaf->ids.size();
      return;
    }
    for (std::size_t i = 0; i < leaf->ids.size(); ++i) {
      const VertexId v = leaf->ids.Get(i);
      if (v >= q->lo && v <= q->hi) ++q->count;
    }
    return;
  }

  const auto* in = static_cast<const InternalNode*>(n);
  for (std::size_t j = 0; j < in->children.size(); ++j) {
    const VertexId child_lo = in->min_ids.Get(j);
    // The next child's minimum bounds this child's maximum from above.
    const VertexId child_hi = (j + 1 < in->children.size())
                                  ? in->min_ids.Get(j + 1) - 1
                                  : subtree_hi;
    if (child_lo > q->hi || child_hi < q->lo) continue;
    if (child_lo >= q->lo && child_hi <= q->hi) {
      q->count += in->counts[j];  // fully covered: O(1)
      continue;
    }
    RangeVisit(in->children[j].get(), child_lo, child_hi, q);
  }
}

}  // namespace

std::size_t Samtree::CountInRange(VertexId lo, VertexId hi) const {
  if (!root_ || lo > hi) return 0;
  RangeQuery q{lo, hi};
  RangeVisit(root_.get(), 0, kInvalidVertex, &q);
  return q.count;
}

// ---------------------------------------------------------------------------
// Enumeration / memory / invariants
// ---------------------------------------------------------------------------

namespace {

void VisitNeighbors(const Samtree::Node* n,
                    const std::function<void(VertexId, Weight)>& fn) {
  if (n->is_leaf) {
    const auto* leaf = static_cast<const LeafNode*>(n);
    const std::vector<Weight> weights = leaf->fstable.DecodeWeights();
    for (std::size_t i = 0; i < leaf->ids.size(); ++i) {
      fn(leaf->ids.Get(i), weights[i]);
    }
    return;
  }
  for (const auto& child : static_cast<const InternalNode*>(n)->children) {
    VisitNeighbors(child.get(), fn);
  }
}

void AccumulateMemory(const Samtree::Node* n, MemoryBreakdown* mem) {
  if (n->is_leaf) {
    const auto* leaf = static_cast<const LeafNode*>(n);
    mem->topology_bytes += leaf->ids.MemoryUsage();
    mem->index_bytes += leaf->fstable.MemoryUsage();
    mem->other_bytes += sizeof(LeafNode);
    return;
  }
  const auto* in = static_cast<const InternalNode*>(n);
  mem->topology_bytes += in->min_ids.MemoryUsage();
  mem->index_bytes += in->cstable.MemoryUsage();
  mem->other_bytes += sizeof(InternalNode) + VectorBytes(in->counts) +
                      in->children.capacity() * sizeof(void*);
  for (const auto& child : in->children) AccumulateMemory(child.get(), mem);
}

}  // namespace

std::vector<std::pair<VertexId, Weight>> Samtree::Neighbors() const {
  std::vector<std::pair<VertexId, Weight>> out;
  out.reserve(count_);
  ForEachNeighbor([&](VertexId v, Weight w) { out.emplace_back(v, w); });
  return out;
}

void Samtree::ForEachNeighbor(
    const std::function<void(VertexId, Weight)>& fn) const {
  if (root_) VisitNeighbors(root_.get(), fn);
}

MemoryBreakdown Samtree::Memory() const {
  MemoryBreakdown mem;
  mem.other_bytes += sizeof(Samtree);
  if (root_) AccumulateMemory(root_.get(), &mem);
  return mem;
}

namespace {

struct SubtreeInfo {
  bool ok = true;
  std::size_t depth = 0;
  VertexId min = kInvalidVertex;
  VertexId max = 0;
  std::uint64_t count = 0;
  Weight weight = 0.0;
};

bool NearlyEqual(Weight a, Weight b) {
  const Weight scale = std::max({std::fabs(a), std::fabs(b), Weight{1.0}});
  return std::fabs(a - b) <= 1e-6 * scale;
}

SubtreeInfo CheckNode(const Samtree::Node* n, const SamtreeConfig& cfg,
                      std::size_t min_fill, bool is_root, std::ostream& err) {
  SubtreeInfo info;
  if (n->is_leaf) {
    const auto* leaf = static_cast<const LeafNode*>(n);
    info.depth = 1;
    info.count = leaf->ids.size();
    info.weight = leaf->fstable.TotalWeight();
    if (leaf->ids.size() != leaf->fstable.size()) {
      err << "leaf ids/fstable size mismatch; ";
      info.ok = false;
    }
    std::string sub;
    if (!leaf->ids.CheckConsistent(&sub)) {
      err << "leaf CP-IDs: " << sub << "; ";
      info.ok = false;
    }
    if (!leaf->fstable.CheckConsistent(&sub)) {
      err << "leaf fstable: " << sub << "; ";
      info.ok = false;
    }
    if (leaf->ids.size() > cfg.node_capacity) {
      err << "leaf overflow; ";
      info.ok = false;
    }
    if (!is_root && leaf->ids.size() < min_fill) {
      err << "leaf underflow (" << leaf->ids.size() << " < " << min_fill
          << "); ";
      info.ok = false;
    }
    std::set<VertexId> seen;
    for (std::size_t i = 0; i < leaf->ids.size(); ++i) {
      const VertexId v = leaf->ids.Get(i);
      if (!seen.insert(v).second) {
        err << "duplicate neighbour " << v << "; ";
        info.ok = false;
      }
      info.min = std::min(info.min, v);
      info.max = std::max(info.max, v);
    }
    return info;
  }

  const auto* in = static_cast<const InternalNode*>(n);
  if (in->children.size() != in->min_ids.size() ||
      in->children.size() != in->counts.size() ||
      in->children.size() != in->cstable.size()) {
    err << "internal parallel-array size mismatch; ";
    info.ok = false;
    return info;
  }
  if (in->children.size() > cfg.node_capacity) {
    err << "internal overflow; ";
    info.ok = false;
  }
  std::string sub;
  if (!in->min_ids.CheckConsistent(&sub)) {
    err << "internal CP-IDs: " << sub << "; ";
    info.ok = false;
  }
  if (!in->cstable.CheckConsistent(&sub)) {
    err << "internal cstable: " << sub << "; ";
    info.ok = false;
  }
  for (std::size_t i = 1; i < in->min_ids.size(); ++i) {
    if (in->min_ids.Get(i) <= in->min_ids.Get(i - 1)) {
      err << "routing IDs not strictly increasing at " << i << "; ";
      info.ok = false;
      break;
    }
  }
  if (is_root && in->children.size() < 2) {
    err << "internal root with <2 children; ";
    info.ok = false;
  }
  if (!is_root && in->children.size() < std::max<std::size_t>(2, min_fill)) {
    err << "internal underflow; ";
    info.ok = false;
  }

  VertexId prev_max = 0;
  bool first = true;
  for (std::size_t i = 0; i < in->children.size(); ++i) {
    const SubtreeInfo child =
        CheckNode(in->children[i].get(), cfg, min_fill, false, err);
    info.ok = info.ok && child.ok;
    if (i == 0) {
      info.depth = child.depth + 1;
    } else if (child.depth + 1 != info.depth) {
      err << "uneven leaf depth; ";
      info.ok = false;
    }
    if (in->min_ids.Get(i) != child.min) {
      err << "min_ids[" << i << "] stale; ";
      info.ok = false;
    }
    if (!first && child.min <= prev_max) {
      err << "child ranges overlap; ";
      info.ok = false;
    }
    if (!NearlyEqual(in->cstable.WeightAt(i), child.weight)) {
      err << "cstable[" << i << "] drifted; ";
      info.ok = false;
    }
    if (in->counts[i] != child.count) {
      err << "counts[" << i << "] stale; ";
      info.ok = false;
    }
    prev_max = child.max;
    first = false;
    info.min = std::min(info.min, child.min);
    info.max = std::max(info.max, child.max);
    info.count += child.count;
    info.weight += child.weight;
  }
  return info;
}

}  // namespace

bool Samtree::CheckInvariants(std::string* error) const {
  std::ostringstream err;
  if (!root_) {
    if (count_ != 0) {
      if (error) *error = "empty tree with non-zero count";
      return false;
    }
    return true;
  }
  const SubtreeInfo info =
      CheckNode(root_.get(), config_, MinFill(), /*is_root=*/true, err);
  bool ok = info.ok;
  if (info.count != count_) {
    err << "count_ mismatch (" << count_ << " vs " << info.count << "); ";
    ok = false;
  }
  if (!ok && error) *error = err.str();
  return ok;
}

void Samtree::MaybeSelfCheck() {
#if defined(PD2GL_ENABLE_INVARIANTS)
  // Hash the stamp before masking: a tree's stamps follow the write
  // interleaving across trees, so their low bits alone can alias (two
  // trees written in turn would get only even or only odd stamps).
  if (count_ >= 512 && ((version() * 0x9E3779B97F4A7C15ULL) >> 58) != 0) {
    return;
  }
  std::string err;
  if (!CheckInvariants(&err)) {
    std::fprintf(stderr, "PD2GL invariant violation after mutation: %s\n",
                 err.c_str());
    std::abort();
  }
#endif
}

void Samtree::ForEachLeafForTest(
    const std::function<void(const CompressedIdList&, const FSTable&)>& fn)
    const {
  std::vector<const Node*> stack;
  if (root_) stack.push_back(root_.get());
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      const auto* leaf = static_cast<const LeafNode*>(n);
      fn(leaf->ids, leaf->fstable);
      continue;
    }
    const auto& children = static_cast<const InternalNode*>(n)->children;
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(it->get());
    }
  }
}

bool Samtree::CorruptForTest(TestCorruption kind) {
  if (!root_) return false;
  switch (kind) {
    case TestCorruption::kFSTableEntry: {
      Node* n = root_.get();
      while (!n->is_leaf) {
        n = static_cast<InternalNode*>(n)->children.front().get();
      }
      auto* leaf = static_cast<LeafNode*>(n);
      if (leaf->fstable.empty()) return false;
      // A positive skew: caught by the parent CSTable cross-check (or, if
      // negated below zero, by FSTable::CheckConsistent directly).
      leaf->fstable.CorruptRawEntryForTest(0,
                                           leaf->fstable.RawEntry(0) + 7.25);
      return true;
    }
    case TestCorruption::kCSTableEntry: {
      if (root_->is_leaf) return false;
      auto* in = static_cast<InternalNode*>(root_.get());
      in->cstable.CorruptEntryForTest(0, in->cstable.Prefix(0) + 3.5);
      return true;
    }
    case TestCorruption::kChildCount: {
      if (root_->is_leaf) return false;
      auto* in = static_cast<InternalNode*>(root_.get());
      in->counts[0] += 1;
      return true;
    }
    case TestCorruption::kMinId: {
      if (root_->is_leaf) return false;
      auto* in = static_cast<InternalNode*>(root_.get());
      // Duplicate child 0's key into slot 1: breaks strict ordering and
      // stales the child-minimum cross-check at once.
      in->min_ids.Set(1, in->min_ids.Get(0));
      return true;
    }
  }
  return false;
}

}  // namespace platod2gl
