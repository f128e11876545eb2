// Thread-safe ALEX with a lock-free read path (paper §7, "Concurrency
// Control").
//
// Readers descend the RMI under only an *epoch guard* (util/epoch.h) — no
// tree-wide mutex, no shared-counter RMW, no shared write of any kind —
// and take exactly one per-leaf reader-writer latch at the end. Writers
// take that leaf latch exclusively; splits lock only the victim's parent
// inner node and the victim leaf, never the tree. The protocol:
//
//   Descent.   `root_` and every inner-node child slot are atomics; the
//     descent does one seq_cst load per level (a plain load on x86, an
//     acquire load on ARM — see util/epoch.h for why seq_cst). Inner
//     nodes are immutable once published except for their child slots, so
//     no inner-node latching is ever needed.
//
//   Validation.   A split replaces a leaf with a new subtree; a reader
//     may race it and land on the replaced leaf. Every leaf carries a
//     version word whose low bit is a *retired* flag, set (under the
//     exclusive latch) before the replacement is published. After
//     latching its leaf, an operation checks the flag: clear means the
//     leaf is live and its contents authoritative — the pre-split leaf
//     still holds every key it ever held, so even a reader racing the
//     publication reads correct data; set means re-descend from the root
//     and retry (rare: only on the split of the very leaf being probed).
//
//   Splits.   An insert that hits the adaptive-RMI split bound releases
//     its leaf latch, locks the parent's split mutex (or the root mutex
//     when the leaf is the root), re-latches and re-validates the leaf,
//     and re-attempts the insert — another thread may have already split
//     or made room. If the split proceeds it builds the replacement
//     subtree off to the side, splices the new leaves into the sibling
//     chain (serialized by a chain mutex so live leaves' links always
//     describe the live chain), marks the victim retired, and publishes
//     the subtree with one seq_cst store per owned parent slot. The
//     victim is then *retired* through epoch-based reclamation, not
//     deleted: it is freed only after every reader that could still hold
//     it has unpinned. Splits of leaves under different parents run fully
//     in parallel.
//
//   Bulk load.   Builds a complete replacement tree off to the side,
//     swaps `root_` with one store, then walks the old tree — taking each
//     inner split mutex and each leaf latch once — marking every leaf
//     retired and handing every node to the reclaimer. Operations that
//     committed into the old tree linearize before the bulk load.
//
// Guarantees: point operations (Get/Contains/Insert/Erase/Update/Put) are
// linearizable — each takes effect at one instant inside its leaf-latch
// critical section on a live leaf. Range scans are read-committed per
// leaf: each leaf's contribution is a consistent snapshot taken under its
// shared latch, but a scan crossing leaves may miss or observe writes
// that land behind or ahead of it. Memory reclamation is quiescent-safe:
// the epoch manager frees a retired node only two epoch advances after
// retirement and drains everything on destruction, so the index leaks
// nothing (ASan-verified).
//
// Lock order (deadlock freedom): parent split mutex (or root mutex) →
// leaf latch → chain mutex. The bulk-load quiescer takes inner split
// mutexes strictly top-down. No path ever takes a second leaf latch or an
// ancestor's split mutex while holding a descendant's.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/alex.h"
#include "core/config.h"
#include "core/data_node.h"
#include "core/node.h"
#include "core/serialization.h"
#include "obs/inspect.h"
#include "obs/metrics.h"
#include "util/epoch.h"
#include "util/simd_scan.h"

namespace alex::core {

/// What an Aggregate call computes per record in the key range.
enum class AggField : uint8_t {
  kKeys,      ///< aggregate the keys themselves
  kPayloads,  ///< aggregate the payloads (arithmetic payload types only)
};

/// Pushed-down aggregate description. The engine always computes the
/// fused count/sum/min/max of the selected field in one pass; `count_only`
/// skips the value kernels when the caller just wants cardinality.
/// The optional payload filter restricts the aggregate to records whose
/// payload lies in [filter_lo, filter_hi] (arithmetic payloads only) —
/// count-only filtered queries run on the SIMD predicate kernel, filtered
/// value aggregation falls back to a per-slot loop.
template <typename P>
struct AggSpec {
  AggField field = AggField::kKeys;
  bool count_only = false;
  bool has_payload_filter = false;
  P filter_lo{};
  P filter_hi{};
};

/// Result of an Aggregate call. `count` is the number of records in the
/// key range that passed the filter; `keys`/`payloads` hold the value
/// aggregates for whichever field the spec selected (the other stays
/// empty). Partial results merge associatively via Merge — the engine
/// merges leaves and shards in ascending key order, so double sums are
/// deterministic run-to-run.
template <typename K, typename P>
struct AggResult {
  uint64_t count = 0;
  util::AggState<K> keys;
  util::AggState<P> payloads;

  void Merge(const AggResult& o) {
    count += o.count;
    keys.Merge(o.keys);
    if constexpr (std::is_arithmetic_v<P>) payloads.Merge(o.payloads);
  }
};

/// Calls visit(key, payload) and reports whether the scan goes on: a
/// visitor returning bool stops the scan by returning false, a void
/// visitor never stops it (the result is a compile-time true, so the walk
/// compiles to the unconditional loop). The one place the two visitor
/// shapes are told apart.
template <typename Visitor, typename K, typename P>
bool ContinueScan(Visitor& visit, const K& key, const P& payload) {
  if constexpr (std::is_void_v<decltype(visit(key, payload))>) {
    visit(key, payload);
    return true;
  } else {
    return static_cast<bool>(visit(key, payload));
  }
}

/// A lock-free-read, node-level-locked ALEX. All methods are safe to call
/// from any thread. Pointer-returning lookups are deliberately not
/// exposed — a payload pointer would escape the latch and the epoch guard
/// — so reads copy the payload out.
template <typename K, typename P>
class ConcurrentAlex {
 public:
  using DataNodeT = typename Alex<K, P>::DataNodeT;

  explicit ConcurrentAlex(const Config& config = Config())
      : owned_epoch_(new util::EpochManager()),
        epoch_(owned_epoch_.get()),
        index_(config) {}

  /// Shares an external reclamation domain instead of owning one. The
  /// shard layer passes its own manager here so one sharded operation
  /// pins exactly one epoch guard: the guard the index takes below is
  /// then a reentrant no-op on the caller's pin (see util/epoch.h).
  /// `shared_epoch` must outlive the index and every node it retires.
  ConcurrentAlex(const Config& config, util::EpochManager* shared_epoch)
      : epoch_(shared_epoch), index_(config) {}

  /// Retired nodes drain through the epoch manager's destructor; the live
  /// tree is freed by the inner Alex. Callers must guarantee quiescence
  /// (no in-flight operations), as for any destructor.
  ~ConcurrentAlex() = default;

  /// Replaces the contents. Concurrent operations that landed in the old
  /// tree linearize before the bulk load; readers mid-descent retry onto
  /// the new tree via leaf retirement.
  void BulkLoad(const K* keys, const P* payloads, size_t n) {
    Node* fresh = index_.BuildDetached(keys, payloads, n);
    Node* old;
    {
      std::lock_guard<std::mutex> root_lock(root_split_mutex_);
      old = index_.root_.exchange(fresh, std::memory_order_seq_cst);
    }
    BumpVersion();
    util::EpochManager::Guard guard(*epoch_);
    // The quiescer counts the old tree's final keys as it drains each
    // leaf's latch. Every counter bump for an old-tree commit happens
    // under the leaf latch, so that count captures exactly the old tree's
    // contribution to num_keys_ — replacing it with `n` as a delta keeps
    // concurrent new-tree commits (which the store-a-constant approach
    // would overwrite) intact.
    const size_t old_total = QuiesceAndRetire(old);
    index_.num_keys_.fetch_add(n - old_total, std::memory_order_relaxed);
    epoch_->TryReclaim();
  }

  /// Copies the payload of `key` into `*out`; returns false when absent.
  /// Epoch guard + one shared leaf latch; no shared mutex anywhere.
  bool Get(K key, P* out) const {
    util::EpochManager::Guard guard(*epoch_);
    while (true) {
      const DataNodeT* leaf = DescendAcquire(key);
      ALEX_OBS_TIMED_SHARED_LOCK(latch, leaf->latch(), "core.leaf_latch_contended",
                                 "core.leaf_latch_wait_ns");
      if (leaf->IsRetired()) { CountDescentRetry(); continue; }  // raced a split: re-descend
      const P* p = leaf->Find(key);
      if (p == nullptr) return false;
      *out = *p;
      return true;
    }
  }

  /// True when `key` is present (epoch guard + shared leaf latch only).
  bool Contains(K key) const {
    util::EpochManager::Guard guard(*epoch_);
    while (true) {
      const DataNodeT* leaf = DescendAcquire(key);
      ALEX_OBS_TIMED_SHARED_LOCK(latch, leaf->latch(), "core.leaf_latch_contended",
                                 "core.leaf_latch_wait_ns");
      if (leaf->IsRetired()) { CountDescentRetry(); continue; }
      return leaf->Find(key) != nullptr;
    }
  }

  /// Inserts; false on duplicate. Fast path: epoch guard + exclusive leaf
  /// latch, so inserts into disjoint leaves run in parallel and never
  /// block readers of other leaves. A split locks only the parent inner
  /// node and the victim leaf.
  bool Insert(K key, const P& payload) {
    bool inserted = false;
    InsertOrPut(key, payload, /*overwrite_duplicate=*/false, &inserted);
    return inserted;
  }

  /// Inserts or overwrites, atomically with respect to other operations
  /// on the key's leaf.
  void Put(K key, const P& payload) {
    bool inserted = false;
    InsertOrPut(key, payload, /*overwrite_duplicate=*/true, &inserted);
  }

  /// Removes `key`; false when absent. Contraction (a rebuild within the
  /// same node object) happens under the leaf latch; the structure never
  /// changes, so erase never escalates.
  bool Erase(K key) {
    util::EpochManager::Guard guard(*epoch_);
    while (true) {
      DataNodeT* leaf = DescendAcquire(key);
      ALEX_OBS_TIMED_UNIQUE_LOCK(latch, leaf->latch(), "core.leaf_latch_contended",
                                 "core.leaf_latch_wait_ns");
      if (leaf->IsRetired()) { CountDescentRetry(); continue; }
      if (!leaf->Erase(key)) return false;
      index_.num_keys_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }

  /// Overwrites an existing payload; false when absent (leaf-exclusive:
  /// the write must not race shared readers copying the payload).
  bool Update(K key, const P& payload) {
    util::EpochManager::Guard guard(*epoch_);
    while (true) {
      DataNodeT* leaf = DescendAcquire(key);
      ALEX_OBS_TIMED_UNIQUE_LOCK(latch, leaf->latch(), "core.leaf_latch_contended",
                                 "core.leaf_latch_wait_ns");
      if (leaf->IsRetired()) { CountDescentRetry(); continue; }
      return leaf->UpdatePayload(key, payload);
    }
  }

  // ---- Batched point operations ----
  //
  // Each batch takes ONE epoch guard, and each *leaf run* — the maximal
  // stretch of consecutive keys owned by the same leaf — takes one descent
  // cascade (O(log run) routing probes instead of one per key) and one
  // leaf latch. Keys MUST be sorted ascending: leaf ownership is a
  // contiguous key interval, so sortedness is what makes runs contiguous
  // and the galloped run-boundary search valid. ShardedAlex sorts batches
  // before calling these. Per-key results match the scalar ops exactly;
  // batches are NOT atomic as a unit — each key linearizes individually,
  // in batch order.

  /// Batched Get. Fills `payloads[i]`/`found[i]` for each key; returns the
  /// number found. Prefetches the run's predicted slots before probing.
  size_t MultiGet(const K* keys, size_t n, P* payloads, bool* found) const {
    assert(std::is_sorted(keys, keys + n));
    size_t hits = 0;
    util::EpochManager::Guard guard(*epoch_);
    size_t i = 0;
    while (i < n) {
      const DataNodeT* leaf = DescendAcquire(keys[i]);
      ALEX_OBS_TIMED_SHARED_LOCK(latch, leaf->latch(), "core.leaf_latch_contended",
                                 "core.leaf_latch_wait_ns");
      if (leaf->IsRetired()) { CountDescentRetry(); continue; }  // raced a split: re-descend
      const size_t j = RunEnd(keys, n, i, leaf);
      for (size_t k = i; k < j; ++k) leaf->PrefetchFor(keys[k]);
      for (; i < j; ++i) {
        const P* p = leaf->Find(keys[i]);
        found[i] = p != nullptr;
        if (p != nullptr) {
          payloads[i] = *p;
          ++hits;
        }
      }
    }
    return hits;
  }

  /// Batched Insert. `inserted[i]` (when non-null) reports per-key
  /// success (false = duplicate); returns the number inserted. A key that
  /// hits the split bound escalates through the same SplitOrCommit path
  /// as the scalar insert, then the batch resumes.
  size_t MultiInsert(const K* keys, const P* payloads, size_t n,
                     bool* inserted = nullptr) {
    assert(std::is_sorted(keys, keys + n));
    size_t count = 0;
    util::EpochManager::Guard guard(*epoch_);
    size_t i = 0;
    while (i < n) {
      InnerNodeT* parent = nullptr;
      DataNodeT* leaf = DescendAcquire(keys[i], &parent);
      bool need_escalate = false;
      {
        ALEX_OBS_TIMED_UNIQUE_LOCK(latch, leaf->latch(), "core.leaf_latch_contended",
                                 "core.leaf_latch_wait_ns");
        if (leaf->IsRetired()) { CountDescentRetry(); continue; }
        const size_t j = RunEnd(keys, n, i, leaf);
        size_t run_inserted = 0;
        while (i < j) {
          const InsertResult result = leaf->Insert(keys[i], payloads[i]);
          if (result == InsertResult::kNeedsSplit) {
            need_escalate = true;
            break;
          }
          const bool ok = result == InsertResult::kOk;
          if (inserted != nullptr) inserted[i] = ok;
          if (ok) ++run_inserted;
          ++i;
        }
        // Commits must be visible in num_keys_ before the latch drops
        // (the bulk-load quiescer counts per leaf under the latch).
        if (run_inserted > 0) {
          index_.num_keys_.fetch_add(run_inserted,
                                     std::memory_order_relaxed);
          count += run_inserted;
        }
      }
      if (need_escalate) {
        bool ok = false;
        if (SplitOrCommit(keys[i], payloads[i], leaf, parent,
                          /*overwrite_duplicate=*/false, &ok)) {
          if (inserted != nullptr) inserted[i] = ok;
          if (ok) ++count;
          ++i;
        }
        // else: a split happened; re-descend and retry the same key.
      }
    }
    return count;
  }

  /// Batched Erase. `erased[i]` (when non-null) reports per-key success;
  /// returns the number erased. Erase never escalates, so each run is one
  /// exclusive-latch critical section.
  size_t MultiErase(const K* keys, size_t n, bool* erased = nullptr) {
    assert(std::is_sorted(keys, keys + n));
    size_t count = 0;
    util::EpochManager::Guard guard(*epoch_);
    size_t i = 0;
    while (i < n) {
      DataNodeT* leaf = DescendAcquire(keys[i]);
      ALEX_OBS_TIMED_UNIQUE_LOCK(latch, leaf->latch(), "core.leaf_latch_contended",
                                 "core.leaf_latch_wait_ns");
      if (leaf->IsRetired()) { CountDescentRetry(); continue; }
      const size_t j = RunEnd(keys, n, i, leaf);
      size_t run_erased = 0;
      for (; i < j; ++i) {
        const bool ok = leaf->Erase(keys[i]);
        if (erased != nullptr) erased[i] = ok;
        if (ok) ++run_erased;
      }
      if (run_erased > 0) {
        index_.num_keys_.fetch_sub(run_erased, std::memory_order_relaxed);
        count += run_erased;
      }
    }
    return count;
  }

  /// Streaming range scan: visits every record with key in [lo, hi] in
  /// ascending key order as visit(key, payload), never materializing
  /// through an intermediate buffer. A visitor returning bool stops the
  /// scan by returning false; a void visitor sees the whole range.
  /// Read-committed per leaf: each leaf is read under its shared latch,
  /// streaming along the sibling chain; when the chain hands us a retired
  /// leaf (it split mid-scan), the scan re-descends from the root at the
  /// first key it has not yet visited, so no key is visited twice. The
  /// visitor runs under the leaf's shared latch: it must be cheap, must
  /// not block, and must not call back into this index. Returns the
  /// number of records visited, counting the one that stopped the scan.
  template <typename Visitor>
  size_t Scan(K lo, K hi, Visitor&& visit) const {
    bool more = true;
    size_t total = 0;
    WalkLeaves(lo, hi, [&](const DataNodeT& leaf, size_t slot_lo,
                           size_t slot_hi) {
      total += leaf.VisitSlots(slot_lo, slot_hi, [&](const K& k, const P& p) {
        return more = ContinueScan(visit, k, p);
      });
      return more;
    });
    return total;
  }

  /// Pushed-down aggregate over [lo, hi]: count/sum/min/max computed
  /// inside each leaf by the SIMD kernels of util/simd_scan.h (dense
  /// bitmap words processed 4 slots per step with no per-slot branching),
  /// merged across leaves in key order. No record is ever copied out.
  /// Same walk and consistency contract as Scan.
  AggResult<K, P> Aggregate(K lo, K hi, const AggSpec<P>& spec = {}) const {
    AggResult<K, P> result;
    WalkLeaves(lo, hi, [&](const DataNodeT& leaf, size_t slot_lo,
                           size_t slot_hi) {
      AggregateLeafSlots(leaf, slot_lo, slot_hi, spec, &result);
      return true;
    });
    return result;
  }

  /// Writes a snapshot of the live tree to `path` (core/serialization.h
  /// format). Safe to call with concurrent operations in flight: the
  /// collection walks the leaf chain under an epoch guard with each leaf's
  /// shared latch (re-descending when it races a split, exactly like
  /// Scan), so every leaf's contribution is a consistent slice and
  /// every key committed before the call is captured. Writes concurrent
  /// with the walk land read-committed: a fully consistent point-in-time
  /// image additionally requires the caller to quiesce writers, which is
  /// what the shard layer's SaveTo does via its per-shard write gates.
  SnapshotStatus SaveToFile(const std::string& path) const {
    std::vector<std::pair<K, P>> pairs;
    pairs.reserve(size());
    Scan(std::numeric_limits<K>::lowest(), std::numeric_limits<K>::max(),
         [&](const K& key, const P& payload) {
           pairs.emplace_back(key, payload);
         });
    return WriteSnapshotFile(path, pairs);
  }

  /// Replaces the contents from a snapshot file via BulkLoad (concurrent
  /// operations linearize around the swap, as for BulkLoad). On any
  /// non-kOk status the index is left untouched.
  SnapshotStatus LoadFromFile(const std::string& path) {
    std::vector<K> keys;
    std::vector<P> payloads;
    const SnapshotStatus status = ReadSnapshotFile<K, P>(path, &keys,
                                                         &payloads);
    if (status != SnapshotStatus::kOk) return status;
    BulkLoad(keys.data(), payloads.data(), keys.size());
    return SnapshotStatus::kOk;
  }

  size_t size() const { return index_.size(); }

  /// Whole-tree accounting walks every node's internals without latches;
  /// call only while no writers are in flight (bench/reporting hook).
  size_t IndexSizeBytes() const {
    util::EpochManager::Guard guard(*epoch_);
    return index_.IndexSizeBytes();
  }

  size_t DataSizeBytes() const {
    util::EpochManager::Guard guard(*epoch_);
    return index_.DataSizeBytes();
  }

  /// Snapshot of the operation counters. Counters are relaxed atomics, so
  /// no lock is needed; the snapshot is point-in-time per counter.
  Stats GetStats() const { return index_.stats(); }

  /// Structural epoch, bumped by every structural modification. Exposed
  /// for tests and diagnostics.
  uint64_t StructureVersion() const {
    return structure_version_.load(std::memory_order_acquire);
  }

  /// The reclamation engine, exposed read-only for tests/diagnostics
  /// (epoch(), retired_count(), freed_count()).
  const util::EpochManager& epoch_manager() const { return *epoch_; }

  /// Full structural-invariant check. Requires quiescence (no concurrent
  /// writers). Test hook.
  bool CheckInvariants() const {
    util::EpochManager::Guard guard(*epoch_);
    return index_.CheckInvariants();
  }

  /// Structural introspection walk (obs/inspect.h): per-leaf fill factor,
  /// gap density, depth and tracked-model-error distributions, plus the
  /// sibling-chain length. Safe against concurrent operations: the walk
  /// runs under an epoch guard, visits each leaf under its shared latch,
  /// and skips (but counts) leaves a racing split retired mid-walk — so
  /// the result is read-committed, not a frozen point-in-time image.
  obs::TreeStructure CollectStructure() const {
    obs::TreeStructure out;
    util::EpochManager::Guard guard(*epoch_);
    CollectNode(index_.root_.load(std::memory_order_seq_cst), 0, &out);
    // Chain length via the scan path's own pointers: leftmost leaf, then
    // next-leaf links. Bounded in case a burst of splits grows the chain
    // under us faster than the subtree count we just took.
    const DataNodeT* leaf = DescendAcquire(std::numeric_limits<K>::lowest());
    const uint64_t bound = out.leaf_count + out.retired_seen + 64;
    uint64_t chain = 0;
    while (leaf != nullptr && chain < bound) {
      ++chain;
      leaf = leaf->next_leaf_acquire();
    }
    out.chain_length = chain;
    return out;
  }

  // ---- Test hooks for the lock-freedom contract ----

  /// Exclusively latches the leaf owning `key` and returns the lock. While
  /// held, the leaf cannot be read, written, split or retired — but reads
  /// and writes of *other* leaves must still complete, which is exactly
  /// what the lock-free-read-path test asserts.
  std::unique_lock<std::shared_mutex> LatchLeafForTest(K key) {
    util::EpochManager::Guard guard(*epoch_);
    while (true) {
      DataNodeT* leaf = DescendAcquire(key);
      ALEX_OBS_TIMED_UNIQUE_LOCK(latch, leaf->latch(), "core.leaf_latch_contended",
                                 "core.leaf_latch_wait_ns");
      // Only a latched *live* leaf may outlive the guard: retirement
      // requires this exclusive latch, so a live leaf cannot be retired
      // (or freed) while the caller holds the returned lock. A leaf that
      // was already retired when we latched it could be reclaimed the
      // moment the guard dies — re-descend instead of returning it.
      if (!leaf->IsRetired()) return latch;
    }
  }

  /// Holds every tree-scoped mutex the write path can take (the root
  /// transition mutex and the sibling-chain mutex). Reads must not block
  /// on either; the test verifies they complete while these are held.
  std::pair<std::unique_lock<std::mutex>, std::unique_lock<std::mutex>>
  LockStructuralMutexesForTest() {
    return {std::unique_lock<std::mutex>(root_split_mutex_),
            std::unique_lock<std::mutex>(chain_mutex_)};
  }

 private:
  using InnerNodeT = InnerNode;

  /// Telemetry for a failed leaf validation (the leaf retired under a
  /// racing structural change): the operation re-descends from the root.
  static void CountDescentRetry() {
    ALEX_OBS_COUNTER_INC("core.descent_retries");
    ALEX_OBS_CTX_ADD(descent_retries, 1);
  }

  /// Recursive helper for CollectStructure: inner nodes contribute to the
  /// node counts (merged partitions — consecutive slots sharing one child
  /// pointer — are visited once); each live leaf contributes its stats
  /// under its shared latch.
  void CollectNode(Node* node, uint64_t depth,
                   obs::TreeStructure* out) const {
    if (node == nullptr) return;
    if (node->is_leaf()) {
      DataNodeT* leaf = static_cast<DataNodeT*>(node);
      std::shared_lock<std::shared_mutex> latch(leaf->latch());
      if (leaf->IsRetired()) {
        ++out->retired_seen;
        return;
      }
      ++out->leaf_count;
      out->min_depth =
          out->leaf_count == 1 ? depth : std::min(out->min_depth, depth);
      out->max_depth = std::max(out->max_depth, depth);
      out->depth_sum += depth;
      out->keys += leaf->num_keys();
      out->capacity += leaf->capacity();
      const size_t err = leaf->TrackedModelError();
      if (err == DataNodeT::kNoErrorBound) {
        ++out->unbounded_leaves;
      } else {
        out->model_error.Record(err);
      }
      return;
    }
    InnerNodeT* inner = static_cast<InnerNodeT*>(node);
    ++out->inner_count;
    Node* prev = nullptr;
    for (size_t i = 0; i < inner->num_children(); ++i) {
      Node* child = inner->ChildAcquire(i);
      if (child == prev) continue;  // merged partition: one child, many slots
      prev = child;
      CollectNode(child, depth + 1, out);
    }
  }

  /// The one leaf walk behind Scan and Aggregate: hands the slot run of
  /// each live leaf overlapping [lo, hi], in key order, to
  /// fold(leaf, slot_lo, slot_hi) under the leaf's shared latch; fold
  /// returns false to end the walk. A retired leaf (it split mid-walk)
  /// sends the walk back to the root at the first key not yet folded.
  template <typename LeafFn>
  void WalkLeaves(K lo, K hi, LeafFn&& fold) const {
    if (hi < lo) return;
    util::EpochManager::Guard guard(*epoch_);
    K resume = lo;
    bool emitted = false;
    const DataNodeT* leaf = DescendAcquire(resume);
    while (leaf != nullptr) {
      ALEX_OBS_TIMED_SHARED_LOCK(latch, leaf->latch(), "core.leaf_latch_contended",
                                 "core.leaf_latch_wait_ns");
      if (leaf->IsRetired()) {
        CountDescentRetry();
        latch.unlock();
        leaf = DescendAcquire(resume);
        continue;
      }
      // Two bounded searches bracket the leaf's contribution as one slot
      // run; after a resume the strict upper bound skips the last folded
      // key without a per-record compare.
      const size_t slot_lo = emitted ? leaf->UpperBoundSlot(resume)
                                     : leaf->LowerBoundSlot(resume);
      const size_t slot_hi = leaf->UpperBoundSlot(hi);
      if (slot_lo < slot_hi) {
        if (!fold(*leaf, slot_lo, slot_hi)) return;
        const size_t last = leaf->PrevOccupiedSlot(slot_hi);
        if (last < leaf->capacity() && last >= slot_lo) {
          resume = leaf->KeyAt(last);
          emitted = true;
        }
      }
      // A slot past the run means this leaf already holds a key > hi.
      if (slot_hi < leaf->capacity()) break;
      const DataNodeT* next = leaf->next_leaf_acquire();
      latch.unlock();
      leaf = next;
    }
  }

  /// Folds the occupied slots [slot_lo, slot_hi) of one latched live leaf
  /// into `out` per `spec`. Unfiltered aggregates take the fused SIMD
  /// kernels; a filtered count takes the SIMD predicate kernel; filtered
  /// value aggregation folds per slot (the filter decides record by
  /// record). With non-arithmetic payloads, payload aggregation degrades
  /// to a pure count and filters are unsupported.
  static void AggregateLeafSlots(const DataNodeT& leaf, size_t slot_lo,
                                 size_t slot_hi, const AggSpec<P>& spec,
                                 AggResult<K, P>* out) {
    if constexpr (std::is_arithmetic_v<P>) {
      if (spec.has_payload_filter) {
        if (spec.count_only) {
          out->count += leaf.CountPayloadSlotsBetween(
              slot_lo, slot_hi, spec.filter_lo, spec.filter_hi);
          return;
        }
        util::AggState<K> ks;
        util::AggState<P> ps;
        const bool keys_field = spec.field == AggField::kKeys;
        leaf.VisitSlots(slot_lo, slot_hi, [&](const K& k, const P& p) {
          if (p < spec.filter_lo || spec.filter_hi < p) return true;
          if (keys_field) {
            ks.Add(k);
          } else {
            ps.Add(p);
          }
          return true;
        });
        out->count += keys_field ? ks.count : ps.count;
        out->keys.Merge(ks);
        out->payloads.Merge(ps);
        return;
      }
      if (!spec.count_only && spec.field == AggField::kPayloads) {
        const util::AggState<P> st =
            leaf.AggregatePayloadSlots(slot_lo, slot_hi);
        out->count += st.count;
        out->payloads.Merge(st);
        return;
      }
    }
    if (spec.count_only || spec.field == AggField::kPayloads) {
      out->count += leaf.CountSlots(slot_lo, slot_hi);
      return;
    }
    const util::AggState<K> st = leaf.AggregateKeySlots(slot_lo, slot_hi);
    out->count += st.count;
    out->keys.Merge(st);
  }

  void BumpVersion() {
    structure_version_.fetch_add(1, std::memory_order_release);
  }

  /// The lock-free descent: one seq_cst load per level. Must be called
  /// under an epoch guard; the returned leaf stays allocated (though
  /// possibly retired) until the guard is released.
  DataNodeT* DescendAcquire(K key, InnerNodeT** parent_out = nullptr) const {
    Node* node = index_.root_.load(std::memory_order_seq_cst);
    InnerNodeT* parent = nullptr;
    while (!node->is_leaf()) {
      parent = static_cast<InnerNodeT*>(node);
      node = parent->ChildForAcquire(static_cast<double>(key));
    }
    if (parent_out != nullptr) *parent_out = parent;
    return static_cast<DataNodeT*>(node);
  }

  /// First index in (i, n] whose key no longer routes to `leaf`, found by
  /// galloping + binary search over the routing function — O(log run)
  /// descents per run instead of one per key. Requires sorted keys (leaf
  /// ownership is a contiguous interval, so membership is monotone) and
  /// the caller holding `leaf`'s latch under an epoch guard: the latch
  /// pins the leaf live, and a concurrent split elsewhere can only shrink
  /// the run (the excluded keys re-descend on the next iteration).
  size_t RunEnd(const K* keys, size_t n, size_t i,
                const DataNodeT* leaf) const {
    size_t lo = i + 1;
    size_t step = 1;
    while (i + step < n && DescendAcquire(keys[i + step]) == leaf) {
      lo = i + step + 1;
      step <<= 1;
    }
    size_t hi = std::min(n, i + step);
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (DescendAcquire(keys[mid]) == leaf) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  void InsertOrPut(K key, const P& payload, bool overwrite_duplicate,
                   bool* inserted) {
    util::EpochManager::Guard guard(*epoch_);
    while (true) {
      InnerNodeT* parent = nullptr;
      DataNodeT* leaf = DescendAcquire(key, &parent);
      {
        ALEX_OBS_TIMED_UNIQUE_LOCK(latch, leaf->latch(), "core.leaf_latch_contended",
                                 "core.leaf_latch_wait_ns");
        if (leaf->IsRetired()) { CountDescentRetry(); continue; }
        const InsertResult result = leaf->Insert(key, payload);
        if (result == InsertResult::kOk) {
          index_.num_keys_.fetch_add(1, std::memory_order_relaxed);
          *inserted = true;
          return;
        }
        if (result == InsertResult::kDuplicate) {
          if (overwrite_duplicate) leaf->UpdatePayload(key, payload);
          *inserted = false;
          return;
        }
        // kNeedsSplit: drop the latch before taking the parent's split
        // mutex — splitters lock parent before leaf, and taking them in
        // the opposite order here would deadlock.
      }
      if (SplitOrCommit(key, payload, leaf, parent, overwrite_duplicate,
                        inserted)) {
        return;
      }
      // A split happened (ours or a rival's): re-descend and retry.
    }
  }

  /// Escalation path for an insert that hit the split bound. Locks the
  /// structural scope (parent split mutex, or the root mutex when the
  /// victim is the root leaf), revalidates, and either commits the
  /// operation (returns true) or performs a split and returns false so
  /// the caller re-descends into the new subtree.
  bool SplitOrCommit(K key, const P& payload, DataNodeT* leaf,
                     InnerNodeT* parent, bool overwrite_duplicate,
                     bool* inserted) {
    std::unique_lock<std::mutex> structural(
        parent != nullptr ? parent->split_mutex() : root_split_mutex_);
    if (parent == nullptr &&
        index_.root_.load(std::memory_order_seq_cst) != leaf) {
      return false;  // the root changed under us; re-descend
    }
    ALEX_OBS_TIMED_UNIQUE_LOCK(latch, leaf->latch(), "core.leaf_latch_contended",
                                 "core.leaf_latch_wait_ns");
    if (leaf->IsRetired()) {
      CountDescentRetry();
      return false;  // a rival split won; re-descend
    }
    // The world may have moved while we were unlatched (a rival insert or
    // erase can change the outcome), so re-attempt the insert first.
    InsertResult result = leaf->Insert(key, payload);
    if (result == InsertResult::kOk) {
      index_.num_keys_.fetch_add(1, std::memory_order_relaxed);
      *inserted = true;
      return true;
    }
    if (result == InsertResult::kDuplicate) {
      if (overwrite_duplicate) leaf->UpdatePayload(key, payload);
      *inserted = false;
      return true;
    }
    if (!SplitLeafLocked(leaf, parent)) {
      // Degenerate key distribution: splitting cannot partition the node.
      // Insert past the bound instead (the node keeps expanding).
      result = leaf->Insert(key, payload, /*allow_split_request=*/false);
      *inserted = (result == InsertResult::kOk);
      if (*inserted) {
        index_.num_keys_.fetch_add(1, std::memory_order_relaxed);
      } else if (overwrite_duplicate &&
                 result == InsertResult::kDuplicate) {
        leaf->UpdatePayload(key, payload);
      }
      return true;
    }
    return false;  // split done; caller re-descends to place the key
  }

  /// Splits `leaf` under the structural scope lock + exclusive leaf latch
  /// (both held by the caller). Returns false when the key distribution
  /// cannot be partitioned. On success the victim is retired through EBR.
  bool SplitLeafLocked(DataNodeT* leaf, InnerNodeT* parent) {
    // The replacement subtree (model, children, redistributed data) is
    // built off to the side by the same code the single-threaded split
    // uses; only the publication protocol differs below.
    typename Alex<K, P>::SplitSubtree split;
    if (!index_.BuildSplitSubtree(leaf, &split)) return false;
    const std::vector<DataNodeT*>& children = split.children;
    // Splice the children into the sibling chain. All splices serialize
    // on the chain mutex, so a live leaf's links always describe the live
    // chain; the victim keeps its outgoing links, and scanners that reach
    // it after retirement re-descend.
    {
      std::lock_guard<std::mutex> chain(chain_mutex_);
      DataNodeT* before = leaf->prev_leaf();
      DataNodeT* after = leaf->next_leaf();
      const size_t fanout = children.size();
      for (size_t j = 0; j < fanout; ++j) {
        children[j]->set_prev_leaf(j == 0 ? before : children[j - 1]);
        children[j]->set_next_leaf(j + 1 < fanout ? children[j + 1]
                                                  : after);
      }
      // These two stores make the children reachable from live leaves;
      // they are seq_cst so a scanner that follows them sees the fully
      // linked chain.
      if (before != nullptr) before->publish_next_leaf(children.front());
      if (after != nullptr) after->publish_prev_leaf(children.back());
    }
    // Retire-then-publish: a reader that still reaches the old leaf
    // latches it and finds the flag; one that reads the new slot value
    // lands in the replacement.
    leaf->MarkRetired();
    if (parent != nullptr) {
      parent->ReplaceChild(
          leaf, split.inner,
          parent->ChildSlotFor(static_cast<double>(split.hint_key)),
          /*publish=*/true);
    } else {
      index_.root_.store(split.inner, std::memory_order_seq_cst);
    }
    BumpVersion();
    ++index_.stats_->num_splits;
    ALEX_OBS_COUNTER_INC("core.leaf_splits");
    ALEX_OBS_CTX_ADD(leaf_splits, 1);
    // Freed only after every reader that could hold it unpins; our own
    // guard keeps it alive through the latch release below.
    epoch_->Retire(leaf);
    epoch_->TryReclaim();
    return true;
  }

  /// Bulk-load teardown of a detached tree: marks every leaf retired (so
  /// racing operations retry onto the new tree) and hands every node to
  /// the reclaimer. Takes each inner split mutex top-down — serializing
  /// with any in-flight split below that inner — and each leaf latch once
  /// to drain leaf-local writers. Returns the tree's final key count,
  /// observed leaf by leaf under the latch.
  size_t QuiesceAndRetire(Node* node) {
    if (node->is_leaf()) {
      auto* leaf = static_cast<DataNodeT*>(node);
      size_t drained;
      {
        ALEX_OBS_TIMED_UNIQUE_LOCK(latch, leaf->latch(), "core.leaf_latch_contended",
                                 "core.leaf_latch_wait_ns");
        drained = leaf->num_keys();
        leaf->MarkRetired();
      }
      epoch_->Retire(leaf);
      return drained;
    }
    auto* inner = static_cast<InnerNodeT*>(node);
    size_t drained = 0;
    {
      std::lock_guard<std::mutex> structural(inner->split_mutex());
      // Holding the split mutex pins this node's slot array: no split can
      // publish under it, and a split that already published left its new
      // subtree in the slots, where this walk retires it too.
      Node* prev = nullptr;
      for (size_t i = 0; i < inner->num_children(); ++i) {
        Node* child = inner->child(i);
        if (child != prev) drained += QuiesceAndRetire(child);
        prev = child;
      }
    }
    epoch_->Retire(inner);
    return drained;
  }

  // Owned when default-constructed; null when the caller shares a
  // domain. Declared before index_ so a drain of retired nodes (which
  // happens in the manager's destructor) runs after the live tree is
  // gone either way.
  std::unique_ptr<util::EpochManager> owned_epoch_;
  util::EpochManager* const epoch_;
  // Guards the root slot's structural transitions (root-leaf split, bulk
  // load swap). Never touched by reads.
  std::mutex root_split_mutex_;
  // Serializes sibling-chain splices across splits. Never touched by
  // reads; point writes never touch it either.
  std::mutex chain_mutex_;
  std::atomic<uint64_t> structure_version_{0};
  Alex<K, P> index_;
};

}  // namespace alex::core
