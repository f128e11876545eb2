// ALEX leaf data nodes (paper §3.3). A data node owns
//
//   * one storage array, either a Gapped Array or a PMA (Config::layout),
//   * its own linear model, retrained on every expansion/contraction and
//     rescaled to the array capacity (Alg. 3), and
//   * sibling links so range scans stream across leaves (§5.2.3).
//
// Inserts follow Alg. 1 (GA) / Alg. 2 (PMA): predict the position, correct
// it for sorted order, place the key; expand (and retrain) when the density
// bound is hit (GA) or the PMA reports failure. When adaptive-RMI splitting
// is enabled, a node that reaches the maximum key bound reports
// kNeedsSplit and the index splits it (§3.4.2).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <shared_mutex>
#include <utility>
#include <variant>
#include <vector>

#include "containers/gapped_array.h"
#include "containers/pma.h"
#include "core/config.h"
#include "core/node.h"
#include "models/linear_model.h"
#include "obs/metrics.h"

namespace alex::core {

/// Outcome of a data-node insert attempt.
enum class InsertResult {
  kOk,         ///< inserted
  kDuplicate,  ///< key already present; ALEX rejects duplicates (§7)
  kNeedsSplit  ///< node is at the ARMI max-keys bound; caller must split
};

/// Leaf node storing keys and payloads (paper Fig. 2, bottom layer).
template <typename K, typename P>
class DataNode : public Node {
 public:
  using GappedArrayT = container::GappedArray<K, P>;
  using PmaT = container::Pma<K, P>;

  DataNode(const Config& config, Stats* stats)
      : Node(/*is_leaf=*/true), config_(&config), stats_(stats) {
    if (config.layout == NodeLayout::kPackedMemoryArray) {
      storage_.template emplace<PmaT>(config.pma_bounds);
    }
    BulkLoad(nullptr, nullptr, 0);
  }

  ~DataNode() override = default;

  size_t num_keys() const { return Visit([](const auto& s) {
    return s.num_keys();
  }); }
  size_t capacity() const { return Visit([](const auto& s) {
    return s.capacity();
  }); }
  bool has_model() const { return has_model_; }
  const model::LinearModel& model() const { return model_; }

  /// Sentinel returned by SearchErrorBound when bounded search does not
  /// apply to this node.
  static constexpr size_t kNoErrorBound = static_cast<size_t>(-1);

  /// Tracked model error bound in slots — the build-time maximum
  /// |slot - Predict(key)| plus one slot of drift per insert since the
  /// last rebuild (a gapped-array insert shifts each element by at most
  /// one slot) — or kNoErrorBound when the bounded window search is not
  /// applicable: no model (cold node), PMA layout (rebalances move
  /// elements arbitrarily), the bound exceeds Config::simd_error_bound,
  /// or the knob is 0.
  size_t SearchErrorBound() const {
    if (!has_model_ || config_->simd_error_bound == 0 ||
        !std::holds_alternative<GappedArrayT>(storage_)) {
      return kNoErrorBound;
    }
    const size_t err = model_error_ + insert_drift_;
    return err <= config_->simd_error_bound ? err : kNoErrorBound;
  }

  /// True when lookups currently take the branchless bounded window path.
  bool UsesBoundedSearch() const {
    return SearchErrorBound() != kNoErrorBound;
  }

  /// Raw tracked error (build-time max error + insert drift) regardless of
  /// the SIMD clamp, or kNoErrorBound for model-less nodes. Introspection
  /// uses this for the max-error distribution; lookups use
  /// SearchErrorBound(), which additionally applies the config clamp.
  size_t TrackedModelError() const {
    if (!has_model_) return kNoErrorBound;
    return model_error_ + insert_drift_;
  }

  /// In-leaf search dispatch telemetry: did the model's tracked error
  /// bound hold (bounded branchless window) or did the lookup fall back to
  /// unbounded exponential search?
  static void CountSearchDispatch(size_t err) {
    if (err == kNoErrorBound) {
      ALEX_OBS_COUNTER_INC("core.search_exponential");
    } else {
      ALEX_OBS_COUNTER_INC("core.search_bounded");
    }
  }

  /// Software-prefetches the slots a probe of `key` will touch. Batched
  /// lookups issue these for a whole run of keys before the first search.
  void PrefetchFor(K key) const {
    Visit([&](const auto& s) {
      s.PrefetchSlot(PredictSlot(key));
      return 0;
    });
  }

  // Sibling links are atomics so the concurrent wrapper can splice the
  // leaf chain around a split while scans stream along it. Single-threaded
  // paths use the relaxed accessors (plain loads/stores after
  // optimization); concurrent scans and splices use the seq_cst ones.
  DataNode* prev_leaf() const {
    return prev_leaf_.load(std::memory_order_relaxed);
  }
  DataNode* next_leaf() const {
    return next_leaf_.load(std::memory_order_relaxed);
  }
  void set_prev_leaf(DataNode* leaf) {
    prev_leaf_.store(leaf, std::memory_order_relaxed);
  }
  void set_next_leaf(DataNode* leaf) {
    next_leaf_.store(leaf, std::memory_order_relaxed);
  }
  DataNode* prev_leaf_acquire() const {
    return prev_leaf_.load(std::memory_order_seq_cst);
  }
  DataNode* next_leaf_acquire() const {
    return next_leaf_.load(std::memory_order_seq_cst);
  }
  void publish_prev_leaf(DataNode* leaf) {
    prev_leaf_.store(leaf, std::memory_order_seq_cst);
  }
  void publish_next_leaf(DataNode* leaf) {
    next_leaf_.store(leaf, std::memory_order_seq_cst);
  }

  /// Per-leaf reader-writer latch (paper §7). ConcurrentAlex takes it
  /// shared for reads of this leaf's contents and exclusive for leaf-local
  /// mutations (insert/erase/update, including in-place expansion and
  /// contraction). Single-threaded Alex never touches it.
  std::shared_mutex& latch() const { return latch_; }

  /// Leaf version word. Bit 0 is the *retired* flag: set (under the
  /// exclusive latch) by the split or bulk-load that unlinks this leaf
  /// from the tree, immediately before the replacement is published. A
  /// lock-free reader that descended to this leaf latches it and checks
  /// `IsRetired()`: clear means the leaf is live and its contents
  /// authoritative; set means the reader raced a structural change and
  /// must re-descend from the root. The upper bits count retirements'
  /// structural generation for diagnostics.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  bool IsRetired() const {
    return (version_.load(std::memory_order_acquire) & 1) != 0;
  }
  /// Marks the leaf dead. Caller must hold the exclusive latch; readers
  /// observe the flag under the (shared) latch, so acq/rel through the
  /// latch already orders it — the atomic keeps unlatched diagnostic
  /// reads well-defined.
  void MarkRetired() { version_.fetch_or(1, std::memory_order_release); }

  /// Rebuilds the node from `n` sorted, distinct keys. Chooses capacity
  /// c·n (c = expansion factor), trains the model when the node is warm
  /// enough, and places keys model-based (Alg. 3).
  void BulkLoad(const K* keys, const P* payloads, size_t n) {
    RetireStorageCounters();
    const double c = config_->ExpansionFactor();
    size_t capacity = static_cast<size_t>(
        static_cast<double>(n) * c + 0.5);
    if (capacity < config_->min_node_capacity) {
      capacity = config_->min_node_capacity;
    }
    if (capacity < n + 1) capacity = n + 1;  // always keep one gap
    has_model_ = n >= config_->min_model_keys;
    if (has_model_) {
      model_ = model::TrainCdfModel(keys, n, capacity);
    } else {
      model_ = model::LinearModel();
    }
    const bool model_place = has_model_ && config_->model_based_placement;
    if (auto* ga = std::get_if<GappedArrayT>(&storage_)) {
      if (model_place) {
        ga->BuildFromSorted(keys, payloads, n, capacity, model_);
      } else {
        ga->BuildFromSortedUniform(keys, payloads, n, capacity);
      }
    } else {
      auto& pma = std::get<PmaT>(storage_);
      // PMA capacities are powers of two; rescale the model to the actual
      // capacity chosen.
      const size_t pma_capacity = PmaT::RoundCapacity(capacity);
      if (has_model_) {
        model_ = model::TrainCdfModel(keys, n, pma_capacity);
      }
      if (model_place) {
        pma.BuildFromSorted(keys, payloads, n, pma_capacity, model_);
      } else {
        pma.BuildFromSortedUniform(keys, payloads, n, pma_capacity);
      }
    }
    RecomputeModelError();
  }

  /// Predicted slot for `key` — the model's prediction, or the array
  /// midpoint during cold start (§3.3.3: binary search until warm).
  size_t PredictSlot(K key) const {
    const size_t cap = capacity();
    if (!has_model_) return cap / 2;
    return model_.Predict(static_cast<double>(key), cap);
  }

  /// Point lookup (Alg. 3, Lookup). Returns a pointer to the payload or
  /// nullptr when absent. Single storage dispatch; the lookup counter is
  /// maintained by the stats-aware wrapper paths, not here, to keep the
  /// hot path free of read-modify-writes.
  P* Find(K key) {
    return const_cast<P*>(std::as_const(*this).Find(key));
  }

  /// Const point lookup: reads only, so shared-latch holders never write.
  const P* Find(K key) const {
    const size_t err = SearchErrorBound();
    CountSearchDispatch(err);
    return Visit([&](const auto& s) -> const P* {
      const size_t slot =
          err == kNoErrorBound
              ? s.FindSlot(key, PredictSlot(key))
              : s.FindSlotBounded(key, PredictSlot(key), err);
      if (slot == s.capacity()) return nullptr;
      return &s.payload_at(slot);
    });
  }

  /// Slot of `key`, or capacity() when absent.
  size_t FindSlotOf(K key) const {
    const size_t err = SearchErrorBound();
    CountSearchDispatch(err);
    return Visit([&](const auto& s) {
      return err == kNoErrorBound
                 ? s.FindSlot(key, PredictSlot(key))
                 : s.FindSlotBounded(key, PredictSlot(key), err);
    });
  }

  /// First occupied slot with key >= `key`, or capacity().
  size_t LowerBoundSlot(K key) const {
    const size_t err = SearchErrorBound();
    CountSearchDispatch(err);
    return Visit([&](const auto& s) {
      return err == kNoErrorBound
                 ? s.LowerBoundSlot(key, PredictSlot(key))
                 : s.LowerBoundSlotBounded(key, PredictSlot(key), err);
    });
  }

  /// First occupied slot with key > `key`, or capacity(). With
  /// LowerBoundSlot this brackets a [lo, hi] key range as a slot range in
  /// two model-guided (optionally SIMD-bounded) searches — the scan
  /// engine's per-leaf "filter by key range" step.
  size_t UpperBoundSlot(K key) const {
    const size_t err = SearchErrorBound();
    CountSearchDispatch(err);
    return Visit([&](const auto& s) {
      return err == kNoErrorBound
                 ? s.UpperBoundSlot(key, PredictSlot(key))
                 : s.UpperBoundSlotBounded(key, PredictSlot(key), err);
    });
  }

  /// Inserts (Alg. 1 for GA, Alg. 2 for PMA). `allow_split_request` lets
  /// the index bypass the max-keys bound when a split is impossible
  /// (degenerate key distributions).
  InsertResult Insert(K key, const P& payload,
                      bool allow_split_request = true) {
    // ARMI bound: a node at the maximum key bound must split, not expand
    // (§3.4.2), so fully-packed regions stay small.
    if (allow_split_request && config_->rmi_mode == RmiMode::kAdaptive &&
        config_->allow_splitting &&
        num_keys() >= config_->max_data_node_keys) {
      // Reject duplicates before asking for a split.
      if (FindSlotOf(key) != capacity()) return InsertResult::kDuplicate;
      return InsertResult::kNeedsSplit;
    }
    if (auto* ga = std::get_if<GappedArrayT>(&storage_)) {
      // Alg. 1 line 3: expand when the upper density limit would be hit.
      if (static_cast<double>(ga->num_keys() + 1) >
          config_->density_upper * static_cast<double>(ga->capacity())) {
        Expand();
        ga = &std::get<GappedArrayT>(storage_);
      }
      const bool ok = ga->Insert(key, payload, PredictSlot(key));
      if (!ok) return InsertResult::kDuplicate;
      // Each GA insert shifts elements by at most one slot, so the search
      // error window grows by at most one. Rebuilds reset the drift.
      ++insert_drift_;
    } else {
      auto& pma = std::get<PmaT>(storage_);
      auto status = pma.Insert(key, payload, PredictSlot(key));
      while (status == PmaT::InsertStatus::kFull) {
        Expand();  // PMA expands by doubling (Alg. 3 line 12)
        status = std::get<PmaT>(storage_).Insert(key, payload,
                                                 PredictSlot(key));
      }
      if (status == PmaT::InsertStatus::kDuplicate) {
        return InsertResult::kDuplicate;
      }
    }
    if (stats_ != nullptr) ++stats_->num_inserts;
    SyncShiftStats();
    return InsertResult::kOk;
  }

  /// Removes `key`; contracts the node when it becomes sparse (§3.2:
  /// "in the same way that ALEX nodes expand upon inserts, ALEX nodes can
  /// also contract upon deletes").
  bool Erase(K key) {
    const bool erased = Visit([&](auto& s) {
      return s.Erase(key, PredictSlot(key));
    });
    if (!erased) return false;
    if (stats_ != nullptr) ++stats_->num_erases;
    MaybeContract();
    SyncShiftStats();
    return true;
  }

  /// Overwrites the payload of `key`; returns false when absent (§3.2:
  /// value-only updates are find + write).
  bool UpdatePayload(K key, const P& payload) {
    P* p = Find(key);
    if (p == nullptr) return false;
    *p = payload;
    return true;
  }

  /// Expands the array and re-inserts model-based (Alg. 3, Expand).
  /// GA grows by 1/d; PMA doubles.
  void Expand() {
    std::vector<K> keys;
    std::vector<P> payloads;
    ExtractAll(&keys, &payloads);
    size_t new_capacity;
    if (std::holds_alternative<GappedArrayT>(storage_)) {
      new_capacity = static_cast<size_t>(
          static_cast<double>(capacity()) / config_->density_upper + 0.5);
      if (new_capacity <= capacity()) new_capacity = capacity() + 1;
    } else {
      new_capacity = capacity() * 2;
    }
    RebuildWithCapacity(keys, payloads, new_capacity);
    if (stats_ != nullptr) ++stats_->num_expansions;
  }

  /// True when slot `i` holds a real key.
  bool IsOccupied(size_t i) const {
    return Visit([&](const auto& s) { return s.IsOccupied(i); });
  }
  K KeyAt(size_t i) const {
    return Visit([&](const auto& s) { return s.key_at(i); });
  }
  const P& PayloadAt(size_t i) const {
    if (const auto* ga = std::get_if<GappedArrayT>(&storage_)) {
      return ga->payload_at(i);
    }
    return std::get<PmaT>(storage_).payload_at(i);
  }
  size_t FirstOccupiedSlot() const {
    return Visit([&](const auto& s) { return s.FirstOccupied(); });
  }
  size_t NextOccupiedSlot(size_t i) const {
    return Visit([&](const auto& s) { return s.NextOccupied(i); });
  }
  /// Last occupied slot, or capacity() when empty.
  size_t LastOccupiedSlot() const {
    return Visit([&](const auto& s) {
      return s.capacity() == 0 ? size_t{0}
                               : s.bitmap().PrevSet(s.capacity() - 1);
    });
  }
  /// Last occupied slot strictly before `i`, or capacity() when none.
  size_t PrevOccupiedSlot(size_t i) const {
    return Visit([&](const auto& s) {
      return i == 0 ? s.capacity() : s.bitmap().PrevSet(i - 1);
    });
  }

  /// Appends up to `max_results` pairs from the first occupied slot >=
  /// `slot` to `out`; returns the count. Range-scan hot path.
  size_t ScanFrom(size_t slot, size_t max_results,
                  std::vector<std::pair<K, P>>* out) const {
    return Visit([&](const auto& s) {
      return s.ScanFrom(slot, max_results, out);
    });
  }

  /// Visits the occupied slots in [slot_lo, slot_hi) as
  /// visit(key, payload) until the visitor returns false; returns the
  /// count, including the stopping slot. The scan engine's streaming
  /// per-leaf path — no materialization.
  template <typename Visitor>
  size_t VisitSlots(size_t slot_lo, size_t slot_hi, Visitor&& visit) const {
    return Visit([&](const auto& s) {
      return s.VisitSlots(slot_lo, slot_hi, visit);
    });
  }

  /// Number of occupied slots in [slot_lo, slot_hi).
  size_t CountSlots(size_t slot_lo, size_t slot_hi) const {
    return Visit([&](const auto& s) {
      return s.CountSlots(slot_lo, slot_hi);
    });
  }

  /// Fused count/sum/min/max over the keys in [slot_lo, slot_hi)
  /// (SIMD-dispatched, see util/simd_scan.h).
  util::AggState<K> AggregateKeySlots(size_t slot_lo, size_t slot_hi) const {
    return Visit([&](const auto& s) {
      return s.AggregateKeySlots(slot_lo, slot_hi);
    });
  }

  /// Fused count/sum/min/max over the payloads in [slot_lo, slot_hi).
  /// Only instantiated for arithmetic payload types.
  util::AggState<P> AggregatePayloadSlots(size_t slot_lo,
                                          size_t slot_hi) const {
    return Visit([&](const auto& s) {
      return s.AggregatePayloadSlots(slot_lo, slot_hi);
    });
  }

  /// Occupied slots in [slot_lo, slot_hi) with payload in
  /// [payload_lo, payload_hi]. Only instantiated for arithmetic payloads.
  uint64_t CountPayloadSlotsBetween(size_t slot_lo, size_t slot_hi,
                                    P payload_lo, P payload_hi) const {
    return Visit([&](const auto& s) {
      return s.CountPayloadSlotsBetween(slot_lo, slot_hi, payload_lo,
                                        payload_hi);
    });
  }

  /// Copies out all pairs in sorted order.
  void ExtractAll(std::vector<K>* keys, std::vector<P>* payloads) const {
    Visit([&](const auto& s) {
      s.ExtractAll(keys, payloads);
      return 0;
    });
  }

  /// Index-size contribution: the model (2 doubles) + node metadata
  /// (paper §5.1 counts "models ... as well as pointers and metadata").
  size_t IndexSizeBytes() const {
    return model::LinearModel::SizeBytes() + kNodeMetadataBytes;
  }

  /// Data-size contribution: allocated arrays + bitmap (§5.1).
  size_t DataSizeBytes() const {
    return Visit([](const auto& s) { return s.DataSizeBytes(); });
  }

  /// Cumulative element moves, surviving rebuilds.
  uint64_t TotalShifts() const {
    return retired_shifts_ + Visit([](const auto& s) {
      return s.num_shifts();
    });
  }

  /// Publishes shift counts into `stats` deltas; called by the index after
  /// each mutating operation.
  void SyncShiftStats() {
    if (stats_ == nullptr) return;
    const uint64_t total = TotalShifts();
    stats_->num_shifts += total - last_synced_shifts_;
    last_synced_shifts_ = total;
  }

  /// Storage-level invariant check plus model sanity. Test hook.
  bool CheckInvariants() const {
    return Visit([](const auto& s) { return s.CheckInvariants(); });
  }

 private:
  template <typename F>
  auto Visit(F&& f) const {
    if (const auto* ga = std::get_if<GappedArrayT>(&storage_)) {
      return f(*ga);
    }
    return f(std::get<PmaT>(storage_));
  }
  template <typename F>
  auto Visit(F&& f) {
    if (auto* ga = std::get_if<GappedArrayT>(&storage_)) {
      return f(*ga);
    }
    return f(std::get<PmaT>(storage_));
  }

  void MaybeContract() {
    if (config_->density_lower <= 0.0) return;
    const size_t cap = capacity();
    if (cap <= config_->min_node_capacity) return;
    if (static_cast<double>(num_keys()) >=
        config_->density_lower * static_cast<double>(cap)) {
      return;
    }
    std::vector<K> keys;
    std::vector<P> payloads;
    ExtractAll(&keys, &payloads);
    BulkLoad(keys.data(), payloads.data(), keys.size());
    if (stats_ != nullptr) ++stats_->num_contractions;
  }

  void RebuildWithCapacity(const std::vector<K>& keys,
                           const std::vector<P>& payloads,
                           size_t new_capacity) {
    RetireStorageCounters();
    const size_t n = keys.size();
    if (new_capacity < n + 1) new_capacity = n + 1;
    has_model_ = n >= config_->min_model_keys;
    const bool model_place = has_model_ && config_->model_based_placement;
    if (auto* ga = std::get_if<GappedArrayT>(&storage_)) {
      // Alg. 3: retrain on the keys, scaled to the expanded array, then
      // model-based insert.
      model_ = has_model_
                   ? model::TrainCdfModel(keys.data(), n, new_capacity)
                   : model::LinearModel();
      if (model_place) {
        ga->BuildFromSorted(keys.data(), payloads.data(), n, new_capacity,
                            model_);
      } else {
        ga->BuildFromSortedUniform(keys.data(), payloads.data(), n,
                                   new_capacity);
      }
    } else {
      auto& pma = std::get<PmaT>(storage_);
      const size_t cap = PmaT::RoundCapacity(new_capacity);
      model_ = has_model_ ? model::TrainCdfModel(keys.data(), n, cap)
                          : model::LinearModel();
      if (model_place) {
        pma.BuildFromSorted(keys.data(), payloads.data(), n, cap, model_);
      } else {
        pma.BuildFromSortedUniform(keys.data(), payloads.data(), n, cap);
      }
    }
    RecomputeModelError();
  }

  /// Measures the build-time maximum |slot - Predict(key)| over occupied
  /// slots and resets the insert drift. Called after every (re)build; only
  /// meaningful for gapped arrays with a model, and skipped entirely when
  /// the bounded path is disabled.
  void RecomputeModelError() {
    insert_drift_ = 0;
    model_error_ = 0;
    if (!has_model_ || config_->simd_error_bound == 0) return;
    const auto* ga = std::get_if<GappedArrayT>(&storage_);
    if (ga == nullptr) return;
    const size_t cap = ga->capacity();
    for (size_t i = ga->FirstOccupied(); i < cap; i = ga->NextOccupied(i)) {
      const size_t pred =
          model_.Predict(static_cast<double>(ga->key_at(i)), cap);
      const size_t err = pred > i ? pred - i : i - pred;
      if (err > model_error_) model_error_ = err;
    }
  }

  // Accumulates the storage's shift counter before the storage is rebuilt
  // (rebuilds reset the embedded counter).
  void RetireStorageCounters() {
    retired_shifts_ += Visit([](const auto& s) { return s.num_shifts(); });
  }

  const Config* config_;
  Stats* stats_;
  mutable std::shared_mutex latch_;
  std::variant<GappedArrayT, PmaT> storage_;
  model::LinearModel model_;
  bool has_model_ = false;
  size_t model_error_ = 0;   ///< max |slot - prediction| at last (re)build
  size_t insert_drift_ = 0;  ///< GA inserts since last (re)build
  uint64_t retired_shifts_ = 0;
  uint64_t last_synced_shifts_ = 0;
  std::atomic<uint64_t> version_{0};
  std::atomic<DataNode*> prev_leaf_{nullptr};
  std::atomic<DataNode*> next_leaf_{nullptr};
};

}  // namespace alex::core
