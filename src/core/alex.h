// ALEX — the adaptive learned index (paper §3).
//
// An Alex<K, P> is an in-memory, updatable, sorted map from arithmetic keys
// to payloads, implemented as a recursive model index (RMI) of linear
// models above gapped leaf arrays:
//
//   * lookups traverse the RMI with one model inference per level, then
//     exponential-search the leaf from the predicted slot (§3.2),
//   * inserts are model-based — the key goes where the model predicts —
//     which keeps predictions accurate as data grows (§3.2, §5.3),
//   * leaves expand (retraining their model) when they hit their density
//     bound, and contract after deletes (§3.3),
//   * with adaptive RMI, initialization bounds every leaf to
//     `max_data_node_keys` keys (Alg. 4) and, when splitting is enabled,
//     a full leaf is split into children, growing the tree like a B+Tree
//     without rebalancing (§3.4.2).
//
// The class supports bulk load, point lookup, insert, delete, payload
// update, lower-bound iteration and range scans. Duplicate keys are
// rejected (paper §7).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/data_node.h"
#include "core/node.h"
#include "models/linear_model.h"

namespace alex::core {

template <typename K, typename P>
class ConcurrentAlex;

/// The ALEX index. `K` is any arithmetic type; `P` is any copyable
/// payload. Model predictions cast keys to double, so integer keys beyond
/// 2^53 lose precision in the *prediction* only — search and equality
/// always compare exact `K` values, so correctness holds over the full
/// domain (including int64 min/max; see alex_edge_test) and only lookup
/// locality degrades.
template <typename K, typename P>
class Alex {
 public:
  using DataNodeT = DataNode<K, P>;

  /// Forward iterator over (key, payload) pairs in key order, streaming
  /// across leaves through sibling links and skipping gaps via the bitmap
  /// (§5.2.3).
  class Iterator {
   public:
    Iterator() = default;
    Iterator(DataNodeT* leaf, size_t slot) : leaf_(leaf), slot_(slot) {
      SkipToOccupied();
    }

    bool IsEnd() const { return leaf_ == nullptr; }
    K key() const { return leaf_->KeyAt(slot_); }
    const P& payload() const { return leaf_->PayloadAt(slot_); }

    Iterator& operator++() {
      slot_ = leaf_->NextOccupiedSlot(slot_);
      SkipToOccupied();
      return *this;
    }

    /// Steps to the previous key; becomes end() when stepping before the
    /// first key. Walking backwards uses the prev-leaf sibling links.
    Iterator& operator--() {
      if (leaf_ == nullptr) return *this;
      size_t prev = leaf_->PrevOccupiedSlot(slot_);
      while (prev >= leaf_->capacity()) {
        leaf_ = leaf_->prev_leaf();
        if (leaf_ == nullptr) {
          slot_ = 0;
          return *this;
        }
        prev = leaf_->LastOccupiedSlot();
      }
      slot_ = prev;
      return *this;
    }

    bool operator==(const Iterator& other) const {
      return leaf_ == other.leaf_ && (leaf_ == nullptr ||
                                      slot_ == other.slot_);
    }
    bool operator!=(const Iterator& other) const {
      return !(*this == other);
    }

   private:
    // Normalizes (leaf_, slot_) to the first occupied slot at or after the
    // current position, crossing leaves as needed; end() when exhausted.
    void SkipToOccupied() {
      while (leaf_ != nullptr) {
        if (slot_ < leaf_->capacity() && !leaf_->IsOccupied(slot_)) {
          slot_ = slot_ == 0 ? leaf_->FirstOccupiedSlot()
                             : leaf_->NextOccupiedSlot(slot_ - 1);
        }
        if (slot_ < leaf_->capacity()) return;
        leaf_ = leaf_->next_leaf();
        slot_ = 0;
      }
    }

    DataNodeT* leaf_ = nullptr;
    size_t slot_ = 0;
  };

  explicit Alex(const Config& config = Config())
      : config_(std::make_unique<Config>(config)),
        stats_(std::make_unique<Stats>()) {
    SetRoot(NewLeaf());
  }

  ~Alex() { DeleteSubtree(root()); }

  Alex(const Alex&) = delete;
  Alex& operator=(const Alex&) = delete;

  Alex(Alex&& other) noexcept
      : config_(std::move(other.config_)),
        stats_(std::move(other.stats_)),
        root_(other.root()),
        num_keys_(other.num_keys_.load(std::memory_order_relaxed)) {
    other.SetRoot(nullptr);
    other.num_keys_.store(0, std::memory_order_relaxed);
  }

  Alex& operator=(Alex&& other) noexcept {
    if (this != &other) {
      DeleteSubtree(root());
      config_ = std::move(other.config_);
      stats_ = std::move(other.stats_);
      SetRoot(other.root());
      num_keys_.store(other.num_keys_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      other.SetRoot(nullptr);
      other.num_keys_.store(0, std::memory_order_relaxed);
    }
    return *this;
  }

  const Config& config() const { return *config_; }
  const Stats& stats() const { return *stats_; }
  size_t size() const { return num_keys_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  /// Bulk-loads from `n` strictly-increasing keys, replacing any existing
  /// contents. Static RMI builds a two-level root→leaves hierarchy
  /// (§3.2); adaptive RMI runs Algorithm 4.
  void BulkLoad(const K* keys, const P* payloads, size_t n) {
    DeleteSubtree(root());
    SetRoot(BuildDetached(keys, payloads, n));
    num_keys_ = n;
  }

  /// Convenience overload for (key, payload) pair vectors.
  void BulkLoad(const std::vector<std::pair<K, P>>& pairs) {
    std::vector<K> keys;
    std::vector<P> payloads;
    keys.reserve(pairs.size());
    payloads.reserve(pairs.size());
    for (const auto& [k, p] : pairs) {
      keys.push_back(k);
      payloads.push_back(p);
    }
    BulkLoad(keys.data(), payloads.data(), keys.size());
  }

  /// Point lookup; returns a pointer to the payload or nullptr.
  P* Find(K key) {
    ++stats_->num_lookups;
    return TraverseToLeaf(key)->Find(key);
  }

  /// Const lookup. Does not bump the lookup counter, so concurrent
  /// readers holding only shared ownership never write (see
  /// ConcurrentAlex).
  const P* Find(K key) const { return TraverseToLeaf(key)->Find(key); }

  /// True when `key` is present.
  bool Contains(K key) const { return Find(key) != nullptr; }

  /// Inserts (key, payload). Returns false when the key already exists
  /// (ALEX rejects duplicates, §7).
  bool Insert(K key, const P& payload) {
    while (true) {
      InnerNode* parent = nullptr;
      DataNodeT* leaf = TraverseToLeaf(key, &parent);
      const InsertResult result = leaf->Insert(key, payload);
      switch (result) {
        case InsertResult::kOk:
          ++num_keys_;
          return true;
        case InsertResult::kDuplicate:
          return false;
        case InsertResult::kNeedsSplit:
          if (!SplitLeaf(leaf, parent)) {
            // Degenerate key distribution: splitting cannot partition the
            // node. Insert past the bound instead (the node keeps
            // expanding as needed).
            if (leaf->Insert(key, payload,
                             /*allow_split_request=*/false) ==
                InsertResult::kOk) {
              ++num_keys_;
              return true;
            }
            return false;
          }
          break;  // re-traverse into the new children
      }
    }
  }

  /// Removes `key`; returns false when absent.
  bool Erase(K key) {
    DataNodeT* leaf = TraverseToLeaf(key);
    if (!leaf->Erase(key)) return false;
    --num_keys_;
    return true;
  }

  /// Overwrites the payload of an existing key (§3.2: payload-only
  /// updates are find + write). Returns false when absent.
  bool Update(K key, const P& payload) {
    return TraverseToLeaf(key)->UpdatePayload(key, payload);
  }

  /// Replaces the key of an existing entry, preserving its payload (§3.2:
  /// key updates combine a delete and an insert). Fails (false) when
  /// `old_key` is absent or `new_key` already exists.
  bool UpdateKey(K old_key, K new_key) {
    if (old_key == new_key) return Contains(old_key);
    P* payload = Find(old_key);
    if (payload == nullptr || Contains(new_key)) return false;
    const P saved = *payload;
    Erase(old_key);
    return Insert(new_key, saved);
  }

  /// Iterator at the first key, or end when empty.
  Iterator begin() { return Iterator(LeftmostLeaf(), 0); }
  Iterator end() { return Iterator(); }

  /// Iterator at the last (largest) key, or end when empty. Combine with
  /// `operator--` for reverse traversal.
  Iterator Last() {
    DataNodeT* leaf = RightmostLeaf();
    // Rightmost leaves may be empty (e.g. after splits of skewed data);
    // walk back to the last leaf that holds a key.
    while (leaf != nullptr && leaf->num_keys() == 0) {
      leaf = leaf->prev_leaf();
    }
    if (leaf == nullptr) return Iterator();
    return Iterator(leaf, leaf->LastOccupiedSlot());
  }

  /// Iterator at the first key >= `key`.
  Iterator LowerBound(K key) {
    DataNodeT* leaf = TraverseToLeaf(key);
    return Iterator(leaf, leaf->LowerBoundSlot(key));
  }

  /// Reads up to `max_results` pairs with key >= `start`, in key order
  /// (the range-scan read of §5.1.2). Returns the number read. Scans run
  /// leaf-at-a-time over the occupancy bitmap (§5.2.3), crossing leaves
  /// through sibling links.
  size_t RangeScan(K start, size_t max_results,
                   std::vector<std::pair<K, P>>* out) const {
    out->clear();
    const DataNodeT* leaf = TraverseToLeaf(start);
    size_t slot = leaf->LowerBoundSlot(start);
    while (leaf != nullptr && out->size() < max_results) {
      leaf->ScanFrom(slot, max_results - out->size(), out);
      leaf = leaf->next_leaf();
      slot = 0;
    }
    return out->size();
  }

  /// Leaf responsible for `key` — the read-only RMI descent (one model
  /// inference per inner level, no comparisons). Exposed so concurrency
  /// wrappers can latch the leaf before touching its contents.
  const DataNodeT* FindLeaf(K key) const { return TraverseToLeaf(key); }
  DataNodeT* FindLeaf(K key) { return TraverseToLeaf(key); }

  /// Index size: all models + child pointers + node metadata (§5.1).
  size_t IndexSizeBytes() const {
    size_t total = 0;
    VisitNodes([&](const Node* node) {
      if (node->is_leaf()) {
        total += static_cast<const DataNodeT*>(node)->IndexSizeBytes();
      } else {
        total += static_cast<const InnerNode*>(node)->IndexSizeBytes();
      }
    });
    return total;
  }

  /// Data size: allocated key/payload arrays + bitmaps (§5.1).
  size_t DataSizeBytes() const {
    size_t total = 0;
    VisitNodes([&](const Node* node) {
      if (node->is_leaf()) {
        total += static_cast<const DataNodeT*>(node)->DataSizeBytes();
      }
    });
    return total;
  }

  /// Structural statistics for the drilldown experiments.
  struct TreeShape {
    size_t num_inner_nodes = 0;
    size_t num_data_nodes = 0;
    size_t num_models = 0;  ///< inner models + warm leaf models
    size_t max_depth = 0;   ///< leaf depth; 0 when the root is a leaf
  };

  TreeShape Shape() const {
    TreeShape shape;
    ComputeShape(root_, 0, &shape);
    return shape;
  }

  /// Calls `fn(const DataNodeT&)` for every leaf, left to right.
  template <typename F>
  void ForEachLeaf(F&& fn) const {
    for (const DataNodeT* leaf = LeftmostLeaf(); leaf != nullptr;
         leaf = leaf->next_leaf()) {
      fn(*leaf);
    }
  }

  /// Verifies all structural invariants: per-leaf storage invariants,
  /// globally sorted leaf chain, key count, and parent→child consistency.
  /// Test hook; O(n).
  bool CheckInvariants() const {
    size_t counted = 0;
    bool have_prev = false;
    K prev{};
    for (const DataNodeT* leaf = LeftmostLeaf(); leaf != nullptr;
         leaf = leaf->next_leaf()) {
      if (!leaf->CheckInvariants()) return false;
      for (size_t i = leaf->FirstOccupiedSlot(); i < leaf->capacity();
           i = leaf->NextOccupiedSlot(i)) {
        const K k = leaf->KeyAt(i);
        if (have_prev && !(prev < k)) return false;
        prev = k;
        have_prev = true;
        ++counted;
      }
    }
    return counted == num_keys_;
  }

 private:
  DataNodeT* NewLeaf() { return new DataNodeT(*config_, stats_.get()); }

  // Single-threaded root access: relaxed, compiles to a plain load/store.
  // The root is atomic so the concurrent wrapper can swap whole trees and
  // publish root splits without a tree-wide lock.
  Node* root() const { return root_.load(std::memory_order_relaxed); }
  void SetRoot(Node* node) {
    root_.store(node, std::memory_order_relaxed);
  }

  /// Builds a complete tree (RMI + linked leaves) for `n` sorted keys
  /// without touching root_. The concurrent wrapper uses this to prepare a
  /// replacement tree off to the side and swap it in with one store.
  Node* BuildDetached(const K* keys, const P* payloads, size_t n) {
    if (n == 0) return NewLeaf();
    std::vector<DataNodeT*> leaves;
    Node* built;
    if (config_->rmi_mode == RmiMode::kStatic) {
      built = BuildStatic(keys, payloads, n, &leaves);
    } else {
      built = BuildAdaptive(keys, payloads, 0, n, /*depth=*/0, &leaves);
    }
    LinkLeaves(leaves, nullptr, nullptr);
    return built;
  }

  DataNodeT* TraverseToLeaf(K key, InnerNode** parent_out = nullptr) {
    Node* node = root();
    InnerNode* parent = nullptr;
    while (!node->is_leaf()) {
      parent = static_cast<InnerNode*>(node);
      node = parent->ChildFor(static_cast<double>(key));
    }
    if (parent_out != nullptr) *parent_out = parent;
    return static_cast<DataNodeT*>(node);
  }

  // Genuinely const descent: never yields a mutable leaf, so const readers
  // (and shared-latch holders in the locking wrappers) cannot write
  // anywhere.
  const DataNodeT* TraverseToLeaf(K key) const {
    const Node* node = root();
    while (!node->is_leaf()) {
      node = static_cast<const InnerNode*>(node)->ChildFor(
          static_cast<double>(key));
    }
    return static_cast<const DataNodeT*>(node);
  }

  DataNodeT* LeftmostLeaf() const {
    Node* node = root();
    while (!node->is_leaf()) {
      node = static_cast<InnerNode*>(node)->child(0);
    }
    return static_cast<DataNodeT*>(node);
  }

  DataNodeT* RightmostLeaf() const {
    Node* node = root();
    while (!node->is_leaf()) {
      auto* inner = static_cast<InnerNode*>(node);
      node = inner->child(inner->num_children() - 1);
    }
    return static_cast<DataNodeT*>(node);
  }

  // ---- Static RMI (§3.2) ----

  Node* BuildStatic(const K* keys, const P* payloads, size_t n,
                    std::vector<DataNodeT*>* leaves) {
    size_t num_leaves = config_->num_models;
    if (num_leaves == 0) {
      num_leaves = n / config_->srmi_keys_per_model;
    }
    if (num_leaves <= 1) {
      DataNodeT* leaf = NewLeaf();
      leaf->BulkLoad(keys, payloads, n);
      leaves->push_back(leaf);
      return leaf;
    }
    auto* root = new InnerNode();
    root->set_model(model::TrainCdfModel(keys, n, num_leaves));
    root->ResetChildren(num_leaves);
    std::vector<size_t> bounds;
    PartitionBoundaries(root->model(), keys, 0, n, num_leaves, &bounds);
    for (size_t j = 0; j < num_leaves; ++j) {
      DataNodeT* leaf = NewLeaf();
      leaf->BulkLoad(keys + bounds[j], payloads + bounds[j],
                     bounds[j + 1] - bounds[j]);
      root->SetChild(j, leaf);
      leaves->push_back(leaf);
    }
    return root;
  }

  // ---- Adaptive RMI (§3.4.1, Alg. 4) ----

  Node* BuildAdaptive(const K* keys, const P* payloads, size_t lo,
                      size_t hi, size_t depth,
                      std::vector<DataNodeT*>* leaves) {
    const size_t n = hi - lo;
    if (n <= config_->max_data_node_keys ||
        depth >= config_->max_rmi_depth) {
      DataNodeT* leaf = NewLeaf();
      leaf->BulkLoad(keys + lo, payloads + lo, n);
      leaves->push_back(leaf);
      return leaf;
    }
    // Root: enough partitions that each expects max_keys keys; non-root:
    // fixed tuned partition count (§3.4.1).
    const size_t partitions =
        depth == 0
            ? std::max<size_t>(
                  2, (n + config_->max_data_node_keys - 1) /
                         config_->max_data_node_keys)
            : config_->inner_node_partitions;
    const model::LinearModel model =
        model::TrainCdfModel(keys + lo, n, partitions);
    std::vector<size_t> bounds;
    PartitionBoundaries(model, keys, lo, hi, partitions, &bounds);
    // Degenerate model: every key in one partition -> stop recursing.
    size_t non_empty = 0;
    for (size_t j = 0; j < partitions; ++j) {
      if (bounds[j + 1] > bounds[j]) ++non_empty;
    }
    if (non_empty <= 1) {
      DataNodeT* leaf = NewLeaf();
      leaf->BulkLoad(keys + lo, payloads + lo, n);
      leaves->push_back(leaf);
      return leaf;
    }
    auto* inner = new InnerNode();
    inner->set_model(model);
    inner->ResetChildren(partitions);
    size_t j = 0;
    while (j < partitions) {
      const size_t part_size = bounds[j + 1] - bounds[j];
      if (part_size > config_->max_data_node_keys) {
        // Oversized partition: recurse (Alg. 4 lines 8-10).
        inner->SetChild(j, BuildAdaptive(keys, payloads, bounds[j],
                                         bounds[j + 1], depth + 1, leaves));
        ++j;
        continue;
      }
      // Merge subsequent partitions while staying under the bound
      // (Alg. 4 lines 12-20); all merged slots point at one leaf.
      size_t j2 = j + 1;
      size_t accumulated = part_size;
      while (j2 < partitions &&
             accumulated + (bounds[j2 + 1] - bounds[j2]) <=
                 config_->max_data_node_keys) {
        accumulated += bounds[j2 + 1] - bounds[j2];
        ++j2;
      }
      DataNodeT* leaf = NewLeaf();
      leaf->BulkLoad(keys + bounds[j], payloads + bounds[j], accumulated);
      leaves->push_back(leaf);
      for (size_t jj = j; jj < j2; ++jj) inner->SetChild(jj, leaf);
      j = j2;
    }
    return inner;
  }

  // Computes partition boundary indices for sorted keys[lo, hi) under
  // `model` with `partitions` buckets: bounds[j] is the first index whose
  // predicted bucket is >= j; bounds has partitions + 1 entries.
  static void PartitionBoundaries(const model::LinearModel& model,
                                  const K* keys, size_t lo, size_t hi,
                                  size_t partitions,
                                  std::vector<size_t>* bounds) {
    bounds->assign(partitions + 1, hi);
    (*bounds)[0] = lo;
    size_t current = 0;
    for (size_t i = lo; i < hi; ++i) {
      const size_t bucket =
          model.Predict(static_cast<double>(keys[i]), partitions);
      while (current < bucket) {
        (*bounds)[++current] = i;
      }
    }
    while (current < partitions) {
      (*bounds)[++current] = hi;
    }
    (*bounds)[0] = lo;  // predictions below bucket 0 clamp to 0
  }

  // ---- Node splitting on inserts (§3.4.2) ----

  /// Replacement subtree produced by BuildSplitSubtree: an inner node over
  /// fresh children holding the victim's redistributed data, plus a key
  /// the victim held (source of the parent-slot hint for ReplaceChild —
  /// routing is exact by construction, so the slot predicted for any key
  /// the leaf held is owned by the leaf).
  struct SplitSubtree {
    InnerNode* inner = nullptr;
    std::vector<DataNodeT*> children;
    K hint_key{};
  };

  // Builds the replacement subtree for a full `leaf` — the leaf's model
  // becomes an inner node model (§3.4.2: "The corresponding leaf level
  // model in RMI now becomes an inner level model"), data is distributed
  // to children by that model, and each child trains its own — without
  // touching sibling links, parent slots, or the victim itself. Shared
  // between the single-threaded split below and the lock-scoped
  // concurrent split (ConcurrentAlex). Returns false when the key
  // distribution cannot be partitioned (caller falls back to expansion).
  bool BuildSplitSubtree(DataNodeT* leaf, SplitSubtree* out) {
    std::vector<K> keys;
    std::vector<P> payloads;
    leaf->ExtractAll(&keys, &payloads);
    const size_t n = keys.size();
    const size_t fanout = std::max<size_t>(2, config_->split_fanout);
    const model::LinearModel model =
        model::TrainCdfModel(keys.data(), n, fanout);
    std::vector<size_t> bounds;
    PartitionBoundaries(model, keys.data(), 0, n, fanout, &bounds);
    size_t non_empty = 0;
    for (size_t j = 0; j < fanout; ++j) {
      if (bounds[j + 1] > bounds[j]) ++non_empty;
    }
    if (non_empty <= 1) return false;  // no progress possible
    auto* inner = new InnerNode();
    inner->set_model(model);
    inner->ResetChildren(fanout);
    out->children.assign(fanout, nullptr);
    for (size_t j = 0; j < fanout; ++j) {
      DataNodeT* child = NewLeaf();
      child->BulkLoad(keys.data() + bounds[j], payloads.data() + bounds[j],
                      bounds[j + 1] - bounds[j]);
      inner->SetChild(j, child);
      out->children[j] = child;
    }
    out->inner = inner;
    out->hint_key = keys.front();
    return true;
  }

  // Splits `leaf` into `split_fanout` children under a new inner node that
  // inherits the leaf's key range. Returns false when the key
  // distribution cannot be partitioned (caller falls back to expansion).
  bool SplitLeaf(DataNodeT* leaf, InnerNode* parent) {
    SplitSubtree split;
    if (!BuildSplitSubtree(leaf, &split)) return false;
    LinkLeaves(split.children, leaf->prev_leaf(), leaf->next_leaf());
    if (parent == nullptr) {
      SetRoot(split.inner);
    } else {
      parent->ReplaceChild(
          leaf, split.inner,
          parent->ChildSlotFor(static_cast<double>(split.hint_key)));
    }
    delete leaf;
    ++stats_->num_splits;
    return true;
  }

  // Chains `leaves` left-to-right and splices the chain between `before`
  // and `after`.
  void LinkLeaves(const std::vector<DataNodeT*>& leaves, DataNodeT* before,
                  DataNodeT* after) {
    DataNodeT* prev = before;
    for (DataNodeT* leaf : leaves) {
      leaf->set_prev_leaf(prev);
      if (prev != nullptr) prev->set_next_leaf(leaf);
      prev = leaf;
    }
    if (prev != nullptr) prev->set_next_leaf(after);
    if (after != nullptr) after->set_prev_leaf(prev);
  }

  // Visits every node exactly once (merged partitions repeat child
  // pointers, but repeats are consecutive by construction).
  template <typename F>
  void VisitNodes(F&& fn) const {
    VisitSubtree(root(), fn);
  }

  template <typename F>
  static void VisitSubtree(const Node* node, F&& fn) {
    if (node == nullptr) return;
    fn(node);
    if (node->is_leaf()) return;
    const auto* inner = static_cast<const InnerNode*>(node);
    const Node* prev = nullptr;
    for (size_t i = 0; i < inner->num_children(); ++i) {
      const Node* child = inner->child(i);
      if (child != prev) VisitSubtree(child, fn);
      prev = child;
    }
  }

  void ComputeShape(const Node* node, size_t depth, TreeShape* shape) const {
    if (node->is_leaf()) {
      ++shape->num_data_nodes;
      if (static_cast<const DataNodeT*>(node)->has_model()) {
        ++shape->num_models;
      }
      if (depth > shape->max_depth) shape->max_depth = depth;
      return;
    }
    ++shape->num_inner_nodes;
    ++shape->num_models;
    const auto* inner = static_cast<const InnerNode*>(node);
    const Node* prev = nullptr;
    for (size_t i = 0; i < inner->num_children(); ++i) {
      const Node* child = inner->child(i);
      if (child != prev) ComputeShape(child, depth + 1, shape);
      prev = child;
    }
  }

  static void DeleteSubtree(Node* node) {
    if (node == nullptr) return;
    if (!node->is_leaf()) {
      auto* inner = static_cast<InnerNode*>(node);
      Node* prev = nullptr;
      for (size_t i = 0; i < inner->num_children(); ++i) {
        Node* child = inner->child(i);
        if (child != prev) DeleteSubtree(child);
        prev = child;
      }
    }
    delete node;
  }

  // The concurrency wrappers build on the leaf-level API (FindLeaf +
  // per-leaf latches) and maintain num_keys_ themselves when they commit
  // leaf-local inserts/erases without going through Insert/Erase.
  // ConcurrentAlex additionally descends through root_ with its own
  // memory ordering and splits leaves under node-level locks.
  friend class ConcurrentAlex<K, P>;

  std::unique_ptr<Config> config_;
  std::unique_ptr<Stats> stats_;
  // Atomic so the concurrent wrapper can publish root splits and whole-tree
  // swaps; single-threaded paths use relaxed ops (plain loads/stores).
  std::atomic<Node*> root_{nullptr};
  std::atomic<size_t> num_keys_{0};
};

}  // namespace alex::core
