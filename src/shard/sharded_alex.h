// Sharded index service layer: N independent ConcurrentAlex shards behind
// a range router (ROADMAP "production scale"; the step past the paper's
// single in-process tree that §7 gestures at).
//
// Why: even with the lock-free read path, one ConcurrentAlex has
// tree-global choke points — bulk loads swap a single root, every split
// retires through one epoch manager, and a hot leaf's latch serializes all
// writers of that range. Range-partitioning the key space makes those
// costs per-shard: bulk loads, splits, epoch advancement and leaf latches
// in different shards never interact, so the index scales with cores and
// a crashed process can restore shard-by-shard.
//
// Architecture:
//
//      ShardedAlex
//        table_  ──► Table { ShardRouter, shards[] }     (immutable)
//                          │
//          ┌───────────────┼──────────────────┐
//          ▼               ▼                  ▼
//       Shard 0         Shard 1    ...     Shard N-1
//     ConcurrentAlex  ConcurrentAlex     ConcurrentAlex
//     (-inf, b0)      [b0, b1)           [b_{N-2}, +inf)
//
// Protocol (mirrors the index's own EBR design one level up):
//
//   Routing.   `table_` points at an immutable Table: a ShardRouter (one
//     binary search over the shard boundaries — router.h) plus the shard
//     array. Readers pin an epoch guard (util/epoch.h), load the table
//     with one seq_cst load, route, and operate on the shard with no
//     shard-layer locking of any kind.
//
//   Writes.   Writers additionally hold the target shard's `write_gate`
//     shared for the duration of one committed operation and re-route if
//     the shard is marked retired; they apply through one (record type,
//     tier) dispatch (Shard::Replay). The gate is what lets a
//     rebalance drain a shard: writers of *other* shards never contend on
//     it, and readers never touch it. There is no global key counter:
//     size() sums the per-shard counts, so writes to disjoint shards share
//     no cache line at the shard layer, and the split skew check (which
//     must read every shard's size) is amortized to every 1024th key
//     committed into a shard.
//
//   Topology transactions.   Every topology change — a *split* (one hot
//     shard → kSplitWays children, triggered by the skew check or the
//     absolute bound), a *merge* (two adjacent cold shards → one child,
//     triggered by the inverse skew check when erases shrink them under
//     the configured floor), and an explicit *rebalance* (re-even the
//     boundaries of an adjacent run, shard count unchanged) — runs
//     through one protocol, ExecuteTopologyTxn:
//
//       1. drain   the victims' write gates, taken exclusive in
//                  ascending order (in-flight writers finish, new ones
//                  wait or re-route);
//       2. build   the child shards off to the side from the victims'
//                  now write-quiescent contents;
//       3. log     open the children's WAL segments (directory-fsynced
//                  at creation) whose lineage names every victim —
//                  multi-parent via the kTopology record;
//       4. publish the replacement Table with one store;
//       5. seal    the victims' logs at the publish LSN (the drain
//                  guarantees no record lands in between — asserted);
//       6. retire  the victims (stragglers re-route) and the old Table
//                  through EBR.
//
//     The protocol's invariants live in that one function: gates are
//     drained before any seal, the seal LSN equals the publish LSN, and
//     parents are retired only after the children's segments are
//     durable in the directory. Readers concurrently inside a victim
//     keep reading it: its contents are never erased, and the Table
//     (and with it the victim shard) is freed only two epoch advances
//     after retirement.
//
//   Cold reads.   A cold shard is an immutable mmap'd segment plus a
//     delta overlay ("Tiered storage" below). Gets, scans, cold writes
//     and recovery all search the mapping in place, with no block cache
//     between; LoadFrom verifies every block before it publishes a shard.
//
//   Scans.   A cross-shard Scan pins one table and streams the
//     overlapping shards one after another on the calling thread; shards
//     are disjoint ascending ranges, so concatenation is already sorted.
//     Same stoppable visitor and read-committed contract as
//     ConcurrentAlex::Scan.
//
//   Durability.   SaveTo quiesces writers (all gates, in shard order)
//     and writes every non-empty shard as one segment (tier/segment.h,
//     the repo's only sorted-run format) plus a checksummed manifest
//     (manifest.h v7) holding the boundaries, per-shard key counts, tier
//     tags and wal lineage anchors; both commit through one tmp → fsync →
//     rename → directory-fsync step (CommitDurableFile); a cold shard whose
//     segment is already durable at the prefix is referenced as-is. A
//     shard with zero keys has no file. LoadFrom opens and audits every
//     manifest segment the same way, builds the whole table off to the
//     side, and publishes it only when every file validated, mapping
//     each failure to a distinct core::SnapshotStatus. Recovery with a
//     manifest is *boundary-preserving* and shard-parallel: the
//     manifest's boundary array is the recovered topology, and each shard
//     is rebuilt independently on a small thread pool as one sorted run:
//     its segment plus its log tail folded per key (a merge child's
//     records are range-filtered back to the shards they came from),
//     merged into a bulk load for a shard tagged resident, or installed
//     as the overlay of one tagged cold.
//
//   Write-ahead logging.   EnableWal attaches one src/wal/ log per shard
//     and anchors it with a checkpoint. From then on every write is
//     log-before-apply under the same shared gate that already covers the
//     apply, so a checkpoint's exclusive gates see log and index in
//     lockstep. SaveTo doubles as the checkpoint: it records each log's
//     LSN in the manifest, rotates the logs, and deletes every log segment
//     and sorted-run segment the checkpoint made redundant.
//     LoadFrom doubles as recovery, in three timed phases (read, fold,
//     build — wal::RecoveryReport): the log files are read and checksummed
//     on the recovery pool and their lineages anchored; each shard's log
//     tail (records past its checkpoint LSN, in wal-id order — parent-
//     before-child across shard splits, wal/wal_format.h — then LSN) is
//     stable-sorted by key and folded per key with the write ops' exact
//     semantics (wal::FoldTail); and the folded run is merged with the
//     shard's segment in one pass. With no log tail the same path runs
//     with zero records. A torn final record is truncated and every other
//     corruption surfaced as a distinct wal::WalStatus in the
//     RecoveryReport. A shard split seals the victim's log at the publish
//     LSN (under the same exclusive gate that drained its writers) and
//     opens fresh segments for the replacements.
//     Recovery linearizes concurrent same-key writes in log order, which
//     for operations that overlapped in real time may differ from apply
//     order — either is a valid linearization of the acknowledged
//     history.
//
// Lock order: rebalance_mutex_ → write_gate(s) in ascending shard order.
// Point writes take exactly one gate shared and no mutex; reads take
// nothing. One epoch guard per operation: the shards share this layer's
// reclamation domain (the guard ConcurrentAlex pins internally is a
// reentrant no-op on ours).
#pragma once

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <shared_mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/concurrent_alex.h"
#include "core/config.h"
#include "core/serialization.h"
#include "obs/inspect.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "shard/manifest.h"
#include "shard/router.h"
#include "tier/block_cache.h"
#include "tier/segment.h"
#include "util/epoch.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"
#include "wal/wal_format.h"

namespace alex::shard {

// Fixed tuning. A split turns its victim into kSplitWays shards. A cold
// segment block targets kTierBlockBytes (64 records at least). TieringTick
// demotes a resident shard whose share of the window's traffic fell under
// kTierDemoteFraction of the fair (1/n) share, and promotes a cold one
// whose share reached kTierPromoteShare times fair or whose delta overlay
// holds kTierPromoteDeltaKeys entries (a write-heavy cold shard pays
// double bookkeeping; bring it back).
inline constexpr size_t kSplitWays = 2;
inline constexpr size_t kTierBlockBytes = 4096;
inline constexpr double kTierDemoteFraction = 0.1;
inline constexpr double kTierPromoteShare = 1.0;
inline constexpr size_t kTierPromoteDeltaKeys = 256;

/// Tuning for ShardedAlex.
struct ShardedOptions {
  /// Shard count targeted by BulkLoad/LoadFrom (rebalances may grow it).
  size_t num_shards = 8;
  /// Split a shard once its size exceeds `rebalance_skew` times the mean
  /// shard size.
  double rebalance_skew = 4.0;
  /// Never split a shard smaller than this (keeps pathological churn away
  /// from tiny indexes).
  size_t min_rebalance_keys = 4096;
  /// Absolute per-shard size bound (0 = none). Lets a single-shard or
  /// uniformly growing table split even when no relative skew exists.
  size_t max_shard_keys = 1u << 20;
  /// Merge two adjacent shards once their *combined* size falls under
  /// this floor (the inverse of the skew check: two cold shards whose
  /// union is still a small shard). 0 disables merges. Keep it at or
  /// below min_rebalance_keys so a fresh merge child cannot immediately
  /// re-trip the split trigger.
  size_t merge_threshold_keys = 0;
  /// Recovery thread-pool width for the per-shard replay (clamped to
  /// the shard count and the hardware concurrency).
  size_t recovery_threads = 8;
  /// Fan-out width for cross-shard Aggregate (clamped to the number of
  /// shards the range overlaps, but deliberately *not* to the hardware
  /// concurrency — size it to the cores you want aggregates to use). <= 1
  /// aggregates sequentially on the calling thread. Scan always streams
  /// on the calling thread.
  size_t scan_threads = 4;
  // ---- Cold tier (src/tier/) ----
  /// Unused by ShardedAlex: cold reads search the verified segment
  /// mapping, with no block cache in between. Kept so callers that size
  /// a tier::BlockCache from it still build.
  size_t tier_cache_bytes = 16u << 20;
  /// Directory/prefix where demotion writes its segment files. Empty
  /// defers to the WAL prefix; demotion fails when neither is set.
  std::string tier_prefix;
  /// TieringTick never demotes a shard holding fewer keys than this
  /// (tiny shards are not worth a segment file).
  size_t tier_min_demote_keys = 1024;
  /// TieringTick is a no-op until the traffic window since the previous
  /// tick holds at least this many routed operations.
  uint64_t tier_min_window_ops = 1024;
  /// Configuration applied to every shard's ConcurrentAlex.
  core::Config shard_config;
};

/// A range-partitioned, range-routed collection of ConcurrentAlex
/// shards. All methods are safe to call from any thread. Point operations
/// are linearizable; scans are read-committed (see the protocol above).
template <typename K, typename P>
class ShardedAlex {
 public:
  explicit ShardedAlex(const ShardedOptions& options = ShardedOptions())
      : options_(options) {
    auto* table = new Table();
    table->shards.push_back(
        std::make_shared<Shard>(options_.shard_config, &epoch_));
    table_.store(table, std::memory_order_seq_cst);
  }

  /// Retired tables drain through the epoch manager's destructor. Callers
  /// must guarantee quiescence, as for any destructor.
  ~ShardedAlex() {
    StopTiering();
    delete table_.load(std::memory_order_relaxed);
  }

  ShardedAlex(const ShardedAlex&) = delete;
  ShardedAlex& operator=(const ShardedAlex&) = delete;

  /// Replaces the contents with `n` strictly-increasing keys, partitioned
  /// evenly across (at most) options.num_shards shards. Concurrent
  /// operations that landed in the old table linearize before the bulk
  /// load; in-flight writers are drained shard by shard. While the WAL is
  /// enabled the load seals the old shards' logs, opens fresh ones, and
  /// re-checkpoints automatically (the bulk-loaded contents exist in no
  /// log, so only a checkpoint can anchor them). Writers of the new
  /// shards wait until that anchor commits. A checkpoint failure
  /// disables logging — nothing could truthfully be called durable
  /// without the anchor — and records kCheckpointFailed in
  /// last_wal_error().
  void BulkLoad(const K* keys, const P* payloads, size_t n) {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    std::unique_ptr<Table> next = BuildEvenTable(keys, payloads, n);
    if (wal_enabled_ && !AttachFreshLogs(&next->shards, /*parents=*/{})) {
      // Could not open log files: surface the error and stop logging
      // rather than silently running some shards unlogged.
      wal_enabled_ = false;
      last_wal_error_.store(wal::WalStatus::kIoError,
                            std::memory_order_relaxed);
      ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, 0, 0,
                     static_cast<int>(wal::WalStatus::kIoError), 0);
    }
    Table* loaded = next.get();
    [[maybe_unused]] const size_t shards = loaded->shards.size();
    // A fresh log is recoverable only once a manifest anchors it: keep
    // the new shards' writers out from publish until the checkpoint
    // below commits (or the logs are detached). The sealed logs keep the
    // old lineage replayable until then.
    const GateLocks gates = wal_enabled_ ? LockGates(loaded) : GateLocks();
    PublishAndRetireAll(std::move(next));
    ALEX_OBS_EVENT(obs::EventType::kBulkLoad, obs::kShardAll, 0, 0, n,
                   shards);
    if (wal_enabled_ &&
        SaveToLocked(wal_prefix_, loaded) != core::SnapshotStatus::kOk) {
      // The bulk-loaded baseline now exists in no checkpoint and no log;
      // continuing to log would let a recovery silently roll the index
      // back to the pre-load state while claiming the post-load writes
      // were durable. Fail closed: stop logging and surface the error.
      DetachLogs(loaded);
      wal_enabled_ = false;
      last_wal_error_.store(wal::WalStatus::kCheckpointFailed,
                            std::memory_order_relaxed);
      ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, 0, 0,
                     static_cast<int>(wal::WalStatus::kCheckpointFailed), 0);
    }
  }

  /// Inserts; false on duplicate. One route + one shard-gate shared lock
  /// on top of the shard's own insert path. When the commit leaves the
  /// target shard oversized, the split runs synchronously on this thread
  /// before returning (the relative skew check itself is amortized — see
  /// MaybeSplit). The record replays as insert-if-absent, so a logged
  /// duplicate that fails here is a no-op on replay too.
  bool Insert(K key, const P& payload) {
    return RoutedWrite(obs::OpType::kInsert, wal::WalRecordType::kInsert, key,
                       &payload);
  }

  /// Removes `key`; false when absent. An erase that leaves the target
  /// shard (plus an adjacent neighbor) under the merge floor triggers a
  /// merge transaction on this thread before returning; like the split
  /// skew check, the check is amortized to every kSkewCheckInterval-th
  /// commit into the shard.
  bool Erase(K key) {
    return RoutedWrite(obs::OpType::kErase, wal::WalRecordType::kErase, key,
                       nullptr);
  }

  /// Overwrites an existing payload; false when absent.
  bool Update(K key, const P& payload) {
    return RoutedWrite(obs::OpType::kUpdate, wal::WalRecordType::kUpdate, key,
                       &payload);
  }

  // ---- Batched operations ----
  //
  // Each batch is sorted once (an index permutation, so callers' arrays
  // stay in caller order) and executed as one *shard run* at a time: the
  // maximal stretch of consecutive sorted keys routing to one shard.
  // Costs amortized per run instead of per key: one write-gate shared
  // lock, one WAL group-commit batch (one copy into the mapped segment +
  // at most one fdatasync(2) for the whole run), and — inside the shard —
  // one epoch guard with one leaf latch per leaf run. The router runs once
  // per run; the run ends at the first key reaching the next shard's lower
  // bound (one comparison per key). Batches are not atomic as a unit;
  // each key linearizes individually, exactly like the scalar ops.

  /// Batched Get. Fills `payloads[i]`/`found[i]` per key (caller order);
  /// returns the number found. Lock-free at the shard layer, like Get.
  size_t MultiGet(const K* keys, size_t n, P* payloads, bool* found) const {
    if (n == 0) return 0;
    obs::ScopedOpTimer op_timer(obs::OpType::kMultiGet);
    std::vector<size_t> order;
    std::vector<K> sorted_keys;
    SortBatch(keys, n, &order, &sorted_keys);
    std::vector<P> run_payloads(n);
    const std::unique_ptr<bool[]> run_found(new bool[n]());
    size_t hits = 0;
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    size_t i = 0;
    while (i < n) {
      const size_t idx = table->router.Route(sorted_keys[i]);
      const size_t j = RunEnd(table, idx, sorted_keys, i);
      Shard* shard = table->shards[idx].get();
      shard->traffic.fetch_add(j - i, std::memory_order_relaxed);
      if (shard->cold()) {
        for (size_t k = i; k < j; ++k) {
          run_found[k] = shard->TierGet(sorted_keys[k], &run_payloads[k]);
          hits += run_found[k] ? 1 : 0;
        }
      } else {
        hits += shard->index.MultiGet(sorted_keys.data() + i, j - i,
                                      run_payloads.data() + i,
                                      run_found.get() + i);
      }
      i = j;
    }
    for (size_t k = 0; k < n; ++k) {
      found[order[k]] = run_found[k];
      if (run_found[k]) payloads[order[k]] = run_payloads[k];
    }
    return hits;
  }

  /// Batched Insert; `inserted[i]` (when non-null, caller order) reports
  /// per-key success (false = duplicate, or the run's WAL batch failed).
  /// Returns the number inserted. Log-before-apply per run: the whole
  /// run's records group-commit as one WAL batch before any of the run
  /// is applied, and a failed batch fails the whole run closed.
  size_t MultiInsert(const K* keys, const P* payloads, size_t n,
                     bool* inserted = nullptr) {
    return RoutedBatchWrite(obs::OpType::kMultiInsert,
                            wal::WalRecordType::kInsert, keys, payloads, n,
                            inserted);
  }

  /// Batched Erase; `erased[i]` (when non-null, caller order) reports
  /// per-key success. Returns the number erased. One WAL group-commit
  /// batch per shard run, like MultiInsert.
  size_t MultiErase(const K* keys, size_t n, bool* erased = nullptr) {
    return RoutedBatchWrite(obs::OpType::kMultiErase,
                            wal::WalRecordType::kErase, keys, nullptr, n,
                            erased);
  }

  /// Copies the payload of `key` into `*out`; returns false when absent.
  /// No shard-layer locking: epoch guard + table load + route only.
  bool Get(K key, P* out) const {
    obs::ScopedOpTimer op_timer(obs::OpType::kGet);
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    const size_t idx = table->router.Route(key);
    op_timer.set_shard(static_cast<uint32_t>(idx));
    Shard* shard = table->shards[idx].get();
    shard->traffic.fetch_add(1, std::memory_order_relaxed);
    return shard->TierGet(key, out);
  }

  /// True when `key` is present (same lock-free path as Get).
  bool Contains(K key) const {
    obs::ScopedOpTimer op_timer(obs::OpType::kContains);
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    const size_t idx = table->router.Route(key);
    op_timer.set_shard(static_cast<uint32_t>(idx));
    Shard* shard = table->shards[idx].get();
    shard->traffic.fetch_add(1, std::memory_order_relaxed);
    P ignored;
    return shard->TierGet(key, &ignored);
  }

  /// Cross-shard streaming scan of [lo, hi], visiting every record in
  /// ascending key order as visit(key, payload) on the calling thread.
  /// One routing table is pinned for the whole scan, so a concurrent
  /// rebalance never tears it; the overlapping shards stream into the
  /// visitor one after another (they are disjoint ascending key ranges,
  /// so the concatenation is sorted), resident shards through
  /// ConcurrentAlex::Scan and cold ones through the merged overlay +
  /// segment stream. A visitor returning false stops the scan, as in
  /// ConcurrentAlex::Scan. Read-committed per leaf. Returns the number of
  /// records visited, counting the one that stopped the scan. Kept out of
  /// line: inlined into perfbench's op-dispatch loop it cost range_scan
  /// about 10% of its throughput (GCC 12, 4-vCPU x86 VM).
  template <typename Visitor>
  __attribute__((noinline)) size_t Scan(K lo, K hi, Visitor&& visit) const {
    if (hi < lo) return 0;
    obs::ScopedOpTimer op_timer(obs::OpType::kScan);
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    const size_t last = table->router.Route(hi);
    bool more = true;
    const auto step = [&](const K& key, const P& payload) {
      return more = core::ContinueScan(visit, key, payload);
    };
    size_t total = 0;
    for (size_t s = table->router.Route(lo); s <= last && more; ++s) {
      total += ShardScan(table->shards[s].get(), lo, hi, step);
    }
    return total;
  }

  /// Cross-shard aggregate with full pushdown: the spec travels below the
  /// router into each overlapping shard, where per-leaf SIMD kernels fold
  /// count/sum/min/max without materializing a single record; the partial
  /// aggregates come back up and merge at the router in ascending shard
  /// order (so double sums are deterministic). The overlapping shard run
  /// fans out on options.scan_threads workers; the routing table pinned
  /// at entry serves the whole call. Read-committed per leaf, like Scan.
  core::AggResult<K, P> Aggregate(K lo, K hi,
                                  const core::AggSpec<P>& spec = {}) const {
    core::AggResult<K, P> result;
    if (hi < lo) return result;
    obs::ScopedOpTimer op_timer(obs::OpType::kAggregate);
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    const size_t first = table->router.Route(lo);
    const size_t last = table->router.Route(hi);
    const size_t n = last - first + 1;
    if (n == 1) {
      return AggregateShard(table->shards[first].get(), lo, hi, spec);
    }
    std::vector<core::AggResult<K, P>> partials(n);
    util::ParallelFor(n, std::min(options_.scan_threads, n), [&](size_t i) {
      partials[i] =
          AggregateShard(table->shards[first + i].get(), lo, hi, spec);
    });
    for (const auto& partial : partials) result.Merge(partial);
    return result;
  }

  /// Total key count: the sum of per-shard counts, point-in-time per
  /// shard. There is deliberately no global counter for writers to
  /// contend on.
  size_t size() const {
    util::EpochManager::Guard guard(epoch_);
    return TotalKeys(table_.load(std::memory_order_seq_cst));
  }

  size_t num_shards() const {
    util::EpochManager::Guard guard(epoch_);
    return table_.load(std::memory_order_seq_cst)->shards.size();
  }

  /// Completed shard splits (diagnostics/tests).
  uint64_t rebalance_count() const {
    return rebalances_.load(std::memory_order_relaxed);
  }

  /// Completed shard merges (diagnostics/tests).
  uint64_t merge_count() const {
    return merges_.load(std::memory_order_relaxed);
  }

  /// Total topology transactions (splits + merges + rebalances)
  /// committed over the index's lifetime; persisted by checkpoints and
  /// restored by LoadFrom, so the epoch is monotone across restarts.
  uint64_t topology_epoch() const {
    return topology_epoch_.load(std::memory_order_relaxed);
  }

  /// Explicitly re-evens the boundaries of every shard whose range
  /// intersects [lo_key, hi_key] — shard count unchanged, each child
  /// holding ~1/n of the victims' combined keys. The operator hook for
  /// un-carving a region after a churn storm; runs through the same
  /// topology transaction as splits and merges. One transaction handles
  /// at most wal::kMaxTopologyParents victims (a child's lineage record
  /// must name every one); a wider range is clamped — call again to
  /// continue. Cold victims are promoted first, as for every topology
  /// transaction. Returns false when the range maps to a single shard, a
  /// rival transaction is in flight, or the victims hold fewer keys
  /// than shards.
  bool Rebalance(K lo_key, K hi_key) {
    if (hi_key < lo_key) return false;
    util::EpochManager::Guard guard(epoch_);
    std::unique_lock<std::mutex> rebalance(rebalance_mutex_,
                                           std::try_to_lock);
    if (!rebalance.owns_lock()) return false;
    Table* table = table_.load(std::memory_order_seq_cst);
    const size_t lo = table->router.Route(lo_key);
    const size_t hi = std::min(table->router.Route(hi_key) + 1,
                               lo + wal::kMaxTopologyParents);
    if (hi - lo < 2) return false;
    return ExecuteTopologyTxn(TopologyOp::kRebalance, lo, hi, hi - lo);
  }

  // ---- Tiered storage ----
  //
  // A shard is either *resident* (a ConcurrentAlex, the default) or
  // *cold*: its contents sealed into one checksummed, mmap-backed,
  // read-only segment (tier/segment.h) plus a small resident delta
  // overlay for post-demotion writes. Cold reads search the overlay,
  // then the segment's mapping in place, which LoadFrom verified block
  // by block before publishing the shard. Demotion, promotion
  // and compaction replace the one victim shard in a copied table —
  // same publish/retire protocol as a topology transaction, but the
  // shard's WAL log *moves* to the replacement instead of being sealed:
  // the logical shard (and its LSN stream) continues across the tier
  // transition, so recovery needs no tier-specific lineage handling.

  /// Demotes shard `idx` to a cold segment written at the tier prefix
  /// (options.tier_prefix, defaulting to the WAL prefix). kOk when the
  /// shard is already cold; kIoError when the shard is empty, no prefix
  /// is configured, or the segment cannot be written durably.
  core::SnapshotStatus DemoteShard(size_t idx) {
    return TierTransition(idx, &ShardedAlex::DemoteShardLocked);
  }

  /// Promotes cold shard `idx` back to a resident ConcurrentAlex built
  /// from the merged segment+overlay stream. kOk when already resident.
  core::SnapshotStatus PromoteShard(size_t idx) {
    return TierTransition(idx, &ShardedAlex::PromoteShardLocked);
  }

  /// Compacts cold shard `idx`: folds its delta overlay into a fresh
  /// segment (dropping overwritten and erased keys), emptying the
  /// overlay. A clean overlay is a no-op. A shard whose live count
  /// dropped to zero is promoted to an empty resident shard instead
  /// (a zero-key shard has no segment).
  core::SnapshotStatus CompactShard(size_t idx) {
    return TierTransition(idx, &ShardedAlex::CompactShardLocked);
  }

  /// Compacts every cold shard with a dirty overlay; returns how many
  /// compactions ran. The WAL-side effect matters as much as the
  /// segment: the next checkpoint references the compacted segments
  /// as-is, so the checkpoint-to-checkpoint replay chain shrinks by
  /// every record the fold retired.
  size_t Compact() {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    util::EpochManager::Guard guard(epoch_);
    size_t ran = 0;
    const size_t shards =
        table_.load(std::memory_order_seq_cst)->shards.size();
    for (size_t i = 0; i < shards; ++i) {
      // Compactions replace shards in place: the count stays `shards`.
      Table* table = table_.load(std::memory_order_seq_cst);
      Shard* shard = table->shards[i].get();
      if (!shard->cold() || shard->DeltaEntries() == 0) continue;
      if (CompactShardLocked(i) == core::SnapshotStatus::kOk) ++ran;
    }
    return ran;
  }

  /// One pass of the traffic-driven tiering policy. Reads each shard's
  /// routed-operation count since the previous tick; when the window
  /// holds at least options.tier_min_window_ops, demotes resident
  /// shards whose share fell under kTierDemoteFraction of fair (and
  /// that hold tier_min_demote_keys keys), and promotes cold shards
  /// whose share reached kTierPromoteShare of fair or whose overlay
  /// grew past kTierPromoteDeltaKeys entries. Returns the number of
  /// tier transitions; skips (returns 0) when a rival topology
  /// transaction holds the rebalance lock.
  size_t TieringTick() {
    std::unique_lock<std::mutex> rebalance(rebalance_mutex_,
                                           std::try_to_lock);
    if (!rebalance.owns_lock()) return 0;
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    const size_t n = table->shards.size();
    std::vector<uint64_t> window(n);
    uint64_t total = 0;
    for (size_t i = 0; i < n; ++i) {
      Shard* shard = table->shards[i].get();
      const uint64_t now = shard->traffic.load(std::memory_order_relaxed);
      window[i] = now - shard->traffic_mark;
      total += window[i];
    }
    if (total < options_.tier_min_window_ops) return 0;
    for (size_t i = 0; i < n; ++i) {
      Shard* shard = table->shards[i].get();
      shard->traffic_mark = shard->traffic.load(std::memory_order_relaxed);
    }
    const double fair =
        static_cast<double>(total) / static_cast<double>(n);
    size_t transitions = 0;
    // Tier transitions replace shards in place (count and order are
    // stable), so the indices gathered above stay valid across our own
    // publishes; the rebalance lock excludes everyone else's.
    for (size_t i = 0; i < n; ++i) {
      const Shard* shard =
          table_.load(std::memory_order_seq_cst)->shards[i].get();
      if (shard->cold()) {
        const bool hot_again =
            static_cast<double>(window[i]) >=
            fair * kTierPromoteShare;
        const bool overlay_heavy =
            shard->DeltaEntries() >= kTierPromoteDeltaKeys;
        if ((hot_again || overlay_heavy) &&
            PromoteShardLocked(i) == core::SnapshotStatus::kOk) {
          ++transitions;
        }
      } else {
        const bool idle = static_cast<double>(window[i]) <=
                          fair * kTierDemoteFraction;
        if (idle && shard->TierSize() >= options_.tier_min_demote_keys &&
            DemoteShardLocked(i) == core::SnapshotStatus::kOk) {
          ++transitions;
        }
      }
    }
    return transitions;
  }

  /// Starts a background thread running TieringTick every
  /// `interval_ms`. Idempotent; StopTiering (or the destructor) joins
  /// it.
  void StartTiering(uint64_t interval_ms) {
    std::lock_guard<std::mutex> lock(tiering_mutex_);
    if (tiering_thread_.joinable()) return;
    tiering_stop_ = false;
    tiering_thread_ = std::thread([this, interval_ms] {
      std::unique_lock<std::mutex> lock(tiering_mutex_);
      while (!tiering_stop_) {
        tiering_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms));
        if (tiering_stop_) break;
        lock.unlock();
        TieringTick();
        lock.lock();
      }
    });
  }

  void StopTiering() {
    std::thread worker;
    {
      std::lock_guard<std::mutex> lock(tiering_mutex_);
      if (!tiering_thread_.joinable()) return;
      tiering_stop_ = true;
      worker = std::move(tiering_thread_);
    }
    tiering_cv_.notify_all();
    worker.join();
  }

  /// Tier of shard `idx` (diagnostics/tests).
  bool IsShardCold(size_t idx) const {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    return idx < table->shards.size() && table->shards[idx]->cold();
  }

  /// Live keys of shard `idx` (diagnostics/tests).
  uint64_t ShardTierSize(size_t idx) const {
    util::EpochManager::Guard guard(epoch_);
    return table_.load(std::memory_order_seq_cst)->shards.at(idx)->TierSize();
  }

  /// Delta-overlay entries of shard `idx`, tombstones included; 0 for a
  /// resident shard (diagnostics/tests).
  size_t ShardDeltaEntries(size_t idx) const {
    util::EpochManager::Guard guard(epoch_);
    return table_.load(std::memory_order_seq_cst)
        ->shards.at(idx)
        ->DeltaEntries();
  }

  size_t cold_shard_count() const {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    size_t count = 0;
    for (const auto& shard : table->shards) {
      count += shard->cold() ? 1 : 0;
    }
    return count;
  }

  /// Bytes held in cold-tier segment files (the live table's).
  uint64_t ColdBytes() const {
    util::EpochManager::Guard guard(epoch_);
    return ColdBytesOf(table_.load(std::memory_order_seq_cst));
  }

  uint64_t demotion_count() const {
    return demotions_.load(std::memory_order_relaxed);
  }
  uint64_t promotion_count() const {
    return promotions_.load(std::memory_order_relaxed);
  }
  uint64_t compaction_count() const {
    return compactions_.load(std::memory_order_relaxed);
  }

  /// An idle block cache, whose counters always read 0: no ShardedAlex
  /// path loads a block (cold reads search the segment mapping). Kept so
  /// callers that report cache stats still build.
  const tier::BlockCache& block_cache() const {
    static const tier::BlockCache idle(0);
    return idle;
  }

  /// Aggregate per-commit WAL wait histogram (microsecond buckets)
  /// across every shard's log — p50/p99 via Quantile. Includes the
  /// samples of logs already sealed by topology transactions, bulk
  /// loads and recoveries (folded into an accumulator at seal time), so
  /// a run's distribution is not biased toward whatever logs happen to
  /// be live at the end. Empty while the WAL was never on.
  util::Log2Histogram CommitWaitHistogram() const {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    util::Log2Histogram merged = retired_commit_wait_;
    for (const auto& shard : table->shards) {
      std::shared_lock<std::shared_mutex> gate(shard->write_gate);
      if (shard->log != nullptr) {
        merged.Merge(shard->log->CommitWaitHistogram());
      }
    }
    return merged;
  }

  /// Current shard lower bounds (diagnostics/tests).
  std::vector<K> ShardBoundaries() const {
    util::EpochManager::Guard guard(epoch_);
    return table_.load(std::memory_order_seq_cst)->router.boundaries();
  }

  /// Shard index `key` routes to (diagnostics/tests).
  size_t ShardOf(K key) const {
    util::EpochManager::Guard guard(epoch_);
    return table_.load(std::memory_order_seq_cst)->router.Route(key);
  }

  /// Whole-table accounting; call only while no writers are in flight
  /// (bench/reporting hook), like the per-shard equivalents.
  size_t IndexSizeBytes() const {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    size_t total = table->router.SizeBytes();
    for (const auto& shard : table->shards) {
      if (shard->cold()) {
        // A cold shard's resident metadata: the segment's fence model +
        // per-block checksums. The mapped data blocks live on disk and in
        // the kernel's page cache, not in this process's heap.
        total += shard->segment->MetaSizeBytes();
      } else {
        total += shard->index.IndexSizeBytes();
      }
    }
    return total;
  }

  size_t DataSizeBytes() const {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    size_t total = 0;
    for (const auto& shard : table->shards) {
      if (shard->cold()) {
        total += shard->DeltaEntries() * (sizeof(K) + sizeof(P));
      } else {
        total += shard->index.DataSizeBytes();
      }
    }
    return total;
  }

  // ---- Durability ----

  /// Path of the manifest for `prefix`; segments sit beside it
  /// (tier::SegmentPath).
  static std::string ManifestPath(const std::string& prefix) {
    return prefix + ".manifest";
  }

  /// Writes one segment per non-empty shard plus the manifest. Quiesces
  /// writers for the duration (all gates, ascending shard order), so the
  /// checkpoint is a fully consistent point-in-time image; readers are
  /// never blocked. The save is all-or-nothing with respect to a
  /// previous checkpoint at the same prefix: segments are written under
  /// fresh ids, the manifest is committed with an atomic rename, and only
  /// then are the segments it no longer references removed — a failure
  /// at any step leaves the old checkpoint loadable.
  ///
  /// With the WAL enabled (and `prefix` equal to the WAL prefix) this is
  /// the *checkpoint*: the manifest records each shard log's LSN, the
  /// logs rotate onto fresh segments, and every log segment the
  /// checkpoint made redundant is deleted. Saving to a different prefix
  /// is a plain export and leaves the logs alone.
  core::SnapshotStatus SaveTo(const std::string& prefix) const {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    // The rebalance lock keeps this table current for the whole save.
    Table* table = table_.load(std::memory_order_seq_cst);
    const GateLocks gates = LockGates(table);
    return SaveToLocked(prefix, table);
  }

  /// Replaces the contents from a SaveTo image — and, when WAL segments
  /// exist at the prefix, *recovers*: each shard's segment is loaded with
  /// its log's tail (records past its checkpoint LSN) replayed on top, in
  /// wal-id order. The replacement table is built entirely off to the
  /// side and published only when the manifest, every segment, and every
  /// log segment validated; on any non-kOk status the live index is
  /// untouched. A segment the manifest references but the filesystem
  /// lacks yields kMissingShard; a corrupt one kSegmentCorrupt (or
  /// kUnsortedKeys); one whose key count disagrees with the manifest, or
  /// whose keys fall outside the shard's boundary range (a swapped or
  /// foreign file), yields kManifestMismatch; an unreplayable log yields
  /// kWalReplayFailed with the distinct wal::WalStatus (and, on success,
  /// replay counts) in `*report`. A torn final record is tolerated:
  /// replay truncates it away and loses at most that one unacknowledged
  /// write.
  ///
  /// Recovery does not resume logging: call EnableWal afterwards, whose
  /// anchor checkpoint also retires the replayed segments.
  core::SnapshotStatus LoadFrom(const std::string& prefix,
                                wal::RecoveryReport* report = nullptr) {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    if (report != nullptr) *report = wal::RecoveryReport{};
    // While this index is itself logging, quiesce its writers for the
    // whole load: replay must never read (let alone truncate as "torn")
    // a batch a live group commit is still appending. Holding the gates
    // — rather than sealing the logs up front — means a load that
    // *fails* validation leaves the live index logging exactly as
    // before; only a successful load ends the old lineage.
    const bool was_logging = wal_enabled_;
    GateLocks quiesce;
    if (was_logging) {
      quiesce = LockGates(table_.load(std::memory_order_seq_cst));
    }
    ShardManifest<K> manifest;
    bool have_manifest = false;
    {
      // Distinguish "no checkpoint was ever committed" (recovery can still
      // proceed from the logs alone) from an unreadable/corrupt one.
      std::FILE* probe = std::fopen(ManifestPath(prefix).c_str(), "rb");
      if (probe != nullptr) {
        std::fclose(probe);
        const core::SnapshotStatus status =
            ReadManifest<K>(ManifestPath(prefix), &manifest);
        if (status != core::SnapshotStatus::kOk) return status;
        have_manifest = true;
      }
    }
    if (!have_manifest && wal::ListWalSegments(prefix).empty()) {
      return core::SnapshotStatus::kIoError;  // nothing at this prefix
    }

    // Open and audit every manifest shard's segment, in parallel; the
    // first failure in shard order is the one reported.
    const size_t n = manifest.num_shards();
    std::vector<std::shared_ptr<tier::ColdSegment<K, P>>> shard_segments(n);
    std::vector<core::SnapshotStatus> opened(n, core::SnapshotStatus::kOk);
    ParallelOverShards(n, [&](size_t i) {
      opened[i] = OpenManifestSegment(prefix, manifest, i, &shard_segments[i]);
    });
    for (const core::SnapshotStatus status : opened) {
      if (status != core::SnapshotStatus::kOk) return status;
    }

    std::unique_ptr<Table> next;
    wal::RecoveryReport local_report;
    wal::RecoveryReport* rep = report != nullptr ? report : &local_report;
    if (!have_manifest) {
      // Logs-alone recovery: no checkpoint ever committed, so there is
      // no topology to preserve — fold every log into one sorted run from
      // empty and partition fresh. Ascending wal-id order is parent-
      // before-child across topology changes, the only cross-log ordering
      // replay needs. Never physically truncate while the segments might
      // belong to this index's own live logs (their writers hold fd
      // offsets past the truncation point).
      std::vector<wal::WalRecord<K, P>> tail;
      const wal::WalStatus wal_status = wal::ReadWalTail<K, P>(
          prefix, /*checkpoint_lsns=*/{}, &tail, rep,
          /*truncate_torn_tail=*/!was_logging,
          /*require_known_roots=*/false, RecoveryWidth());
      if (wal_status != wal::WalStatus::kOk) {
        return core::SnapshotStatus::kWalReplayFailed;
      }
      const util::Timer fold_timer;
      const std::vector<wal::FoldedKey<K, P>> run =
          wal::FoldTail(std::move(tail));
      rep->fold_s = fold_timer.ElapsedSeconds();
      const util::Timer build_timer;
      std::vector<K> keys;
      std::vector<P> payloads;
      MergeIntoVectors(run, nullptr, &keys, &payloads);
      next = BuildEvenTable(keys.data(), payloads.data(), keys.size());
      rep->build_s = build_timer.ElapsedSeconds();
    } else {
      // Boundary-preserving recovery: the manifest's boundary array IS
      // the recovered topology, and each shard recovers independently
      // (with no WAL segments at the prefix, onto zero records).
      const core::SnapshotStatus status = RecoverBoundaryPreserving(
          prefix, manifest, &shard_segments, was_logging, rep, &next);
      if (status != core::SnapshotStatus::kOk) return status;
    }
    const uint64_t floor_wal_id =
        std::max(manifest.next_wal_id, rep->max_wal_id + 1);
    [[maybe_unused]] const uint64_t journal_replayed = rep->records_replayed;

    if (have_manifest) {
      topology_epoch_.store(manifest.topology_epoch,
                            std::memory_order_relaxed);
    }
    if (floor_wal_id > next_wal_id_) next_wal_id_ = floor_wal_id;
    // Fresh segment ids must clear the manifest's counter AND every
    // segment file on disk (a crashed demotion can leave a stray whose
    // id the crashed-away counter never persisted).
    {
      uint64_t floor_segment_id =
          have_manifest ? manifest.next_segment_id : 0;
      ForEachSegmentFile(prefix, [&](const std::string&, uint64_t id, bool) {
        floor_segment_id = std::max(floor_segment_id, id + 1);
      });
      if (floor_segment_id > next_segment_id_) {
        next_segment_id_ = floor_segment_id;
      }
    }
    // The recovered table starts unlogged (see the method comment); any
    // logs of the replaced table belong to an abandoned lineage, get
    // sealed below, and are swept by the next checkpoint. The quiesce
    // gates must drop before the retire loop re-takes them.
    wal_enabled_ = false;
    quiesce.clear();
    [[maybe_unused]] const size_t recovered_shards = next->shards.size();
    PublishAndRetireAll(std::move(next));
    ALEX_OBS_EVENT_PHASES(obs::EventType::kRecovery, obs::kShardAll,
                          journal_replayed, recovered_shards,
                          obs::PhaseMicros(rep->read_s),
                          obs::PhaseMicros(rep->fold_s),
                          obs::PhaseMicros(rep->build_s));
    return core::SnapshotStatus::kOk;
  }

  // ---- Write-ahead logging ----

  /// Starts logging every write to per-shard logs at `prefix` and
  /// anchors them with an initial checkpoint (so recovery always has a
  /// checkpoint to replay onto). Typical lifecycles:
  ///
  ///   fresh:    ShardedAlex idx; idx.BulkLoad(...); idx.EnableWal(p);
  ///   restart:  ShardedAlex idx; idx.LoadFrom(p);   idx.EnableWal(p);
  ///
  /// The anchor checkpoint also sweeps any segments a previous
  /// incarnation left at the prefix, so enable-after-recover retires the
  /// very logs that were just replayed. Fails with kAlreadyEnabled when
  /// logging is already on, kIoError when a log file cannot be opened,
  /// and kCheckpointFailed when the anchor checkpoint cannot commit (in
  /// which case logging stays off and the index is unchanged).
  wal::WalStatus EnableWal(
      const std::string& prefix,
      const wal::WalOptions& options = wal::WalOptions()) {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    if (wal_enabled_) return wal::WalStatus::kAlreadyEnabled;
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    // New ids must clear whatever is already on disk at this prefix so
    // fresh segments never collide with (or get mistaken for) old ones.
    for (const wal::WalSegmentFile& f : wal::ListWalSegments(prefix)) {
      if (f.wal_id >= next_wal_id_) next_wal_id_ = f.wal_id + 1;
    }
    wal_prefix_ = prefix;
    wal_options_ = options;
    // Writers wait from log attach until the anchor checkpoint commits: a
    // write acknowledged on a log no manifest anchors yet would be lost
    // (or replayed without its baseline) by a crash in between.
    const GateLocks gates = LockGates(table);
    if (!AttachFreshLogs(&table->shards, /*parents=*/{})) {
      ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, 0, 0,
                     static_cast<int>(wal::WalStatus::kIoError), 0);
      return wal::WalStatus::kIoError;
    }
    wal_enabled_ = true;
    if (SaveToLocked(prefix, table) != core::SnapshotStatus::kOk) {
      DetachLogs(table);
      wal_enabled_ = false;
      ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, 0, 0,
                     static_cast<int>(wal::WalStatus::kCheckpointFailed), 0);
      return wal::WalStatus::kCheckpointFailed;
    }
    ALEX_OBS_EVENT(obs::EventType::kWalEnabled, obs::kShardAll,
                   table->shards.empty() || table->shards[0]->log == nullptr
                       ? 0
                       : table->shards[0]->log->wal_id(),
                   0, table->shards.size(), 0);
    return wal::WalStatus::kOk;
  }

  bool wal_enabled() const {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    return wal_enabled_;
  }

  /// First WAL failure the write path swallowed (writes fail closed —
  /// they return false — but bool returns cannot say why). kOk when none.
  wal::WalStatus last_wal_error() const {
    return last_wal_error_.load(std::memory_order_relaxed);
  }

  /// Per-shard WAL ids, 0 for an unlogged shard (diagnostics/tests;
  /// requires quiescence like the other whole-table accessors).
  std::vector<uint64_t> WalIds() const {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    std::vector<uint64_t> ids;
    ids.reserve(table->shards.size());
    for (const auto& shard : table->shards) {
      std::shared_lock<std::shared_mutex> gate(shard->write_gate);
      ids.push_back(shard->log != nullptr ? shard->log->wal_id() : 0);
    }
    return ids;
  }

  /// Full structural check: per-shard invariants, strictly increasing
  /// boundaries, every key routed to the shard that holds it, and the
  /// global count. Requires quiescence. Test hook; O(n).
  bool CheckInvariants() const {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    const std::vector<K>& bounds = table->router.boundaries();
    if (bounds.size() + 1 != table->shards.size()) return false;
    for (size_t i = 1; i < bounds.size(); ++i) {
      if (!(bounds[i - 1] < bounds[i])) return false;
    }
    size_t total = 0;
    for (size_t i = 0; i < table->shards.size(); ++i) {
      const auto& shard = table->shards[i];
      if (!shard->cold() && !shard->index.CheckInvariants()) return false;
      // Visitor-based drain: routing is checked record by record as the
      // scan streams — nothing is materialized. Cold shards stream the
      // merged overlay+segment view, which also exercises key order.
      bool routed_ok = true;
      K prev{};
      bool have_prev = false;
      const size_t scanned = ShardScan(
          shard.get(), std::numeric_limits<K>::lowest(),
          std::numeric_limits<K>::max(), [&](const K& key, const P&) {
            if (table->router.Route(key) != i) routed_ok = false;
            if (have_prev && !(prev < key)) routed_ok = false;
            prev = key;
            have_prev = true;
          });
      if (!routed_ok) return false;
      if (scanned != shard->TierSize()) return false;
      total += scanned;
    }
    return total == size();
  }

  /// Structural introspection (obs/inspect.h): per-shard tree shape —
  /// depth, leaf count, fill factor, gap density, tracked-model-error
  /// distribution, chain length — plus the merged totals, stamped with
  /// the topology epoch the walk observed. Safe against concurrent
  /// operations (epoch-guarded, per-leaf shared latches); the result is
  /// read-committed per leaf, like a scan.
  obs::StructureReport Inspect() const {
    obs::StructureReport report;
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    report.topology_epoch = topology_epoch_.load(std::memory_order_relaxed);
    report.shards.reserve(table->shards.size());
    for (size_t i = 0; i < table->shards.size(); ++i) {
      obs::ShardStructure s;
      s.shard = static_cast<uint32_t>(i);
      s.cold = table->shards[i]->cold();
      s.tree = table->shards[i]->index.CollectStructure();
      report.total.Merge(s.tree);
      report.shards.push_back(std::move(s));
    }
    return report;
  }

 private:
  /// One shard: the index plus the write gate that lets a rebalance drain
  /// it. Shards are shared between successive tables (via shared_ptr) and
  /// die with the last table that references them, two epoch advances
  /// after that table retired.
  struct Shard {
    Shard(const core::Config& config, util::EpochManager* epoch)
        : index(config, epoch) {}
    core::ConcurrentAlex<K, P> index;
    // The shard's write-ahead log; null while the WAL is disabled.
    // Written under the exclusive gate (attach/detach), read under the
    // shared gate (the write path) — never touched by readers.
    std::shared_ptr<wal::ShardLog<K, P>> log;
    // Writers hold this shared for one committed operation; rebalance,
    // bulk load and save hold it exclusive. Readers never touch it.
    mutable std::shared_mutex write_gate;
    // Set under the exclusive gate, after the replacement table is
    // published: writers that still routed here re-route.
    std::atomic<bool> retired{false};
    // Committed-insert counter driving the amortized skew check. Shard-
    // local, so writers to different shards share no cache line.
    std::atomic<uint64_t> commit_count{0};

    // ---- Cold tier ----
    //
    // A *cold* shard holds its checkpointed contents in one immutable
    // mmap-backed segment (tier/segment.h) instead of a ConcurrentAlex
    // (whose tree stays empty), plus a small resident *delta overlay*
    // for the writes that landed since demotion. Reads consult the
    // overlay first (a tombstone hides a segment key), then the segment
    // mapping. `segment` is set once when the cold replacement shard is
    // built and never reassigned, so the lock-free read path can test
    // cold() with no synchronization beyond the table load that
    // published the shard.
    std::shared_ptr<tier::ColdSegment<K, P>> segment;
    struct DeltaEntry {
      P payload{};
      bool tombstone = false;
    };
    mutable std::shared_mutex delta_mutex;
    std::map<K, DeltaEntry> delta;
    // Live key count of a cold shard (segment keys minus tombstones plus
    // overlay inserts); resident shards use index.size() instead.
    std::atomic<uint64_t> cold_live{0};
    // Routed operations since the shard was built — the signal the
    // tiering policy reads. `traffic_mark` is the policy's cursor into
    // it, touched only under rebalance_mutex_.
    mutable std::atomic<uint64_t> traffic{0};
    uint64_t traffic_mark = 0;

    bool cold() const { return segment != nullptr; }

    /// True for a cold shard whose segment file is the one at `prefix`.
    bool SegmentAt(const std::string& prefix) const {
      return cold() &&
             segment->path() == tier::SegmentPath(prefix, segment->id());
    }

    uint64_t TierSize() const {
      return cold() ? cold_live.load(std::memory_order_relaxed)
                    : index.size();
    }

    /// The one point read of either tier. A cold shard reads the overlay,
    /// then the segment mapping (ColdSegment::Get), the same bytes scans,
    /// cold writes and recovery read.
    bool TierGet(const K& key, P* out) const {
      if (!cold()) return index.Get(key, out);
      {
        std::shared_lock<std::shared_mutex> lock(delta_mutex);
        const auto it = delta.find(key);
        if (it != delta.end()) {
          if (it->second.tombstone) return false;
          *out = it->second.payload;
          return true;
        }
      }
      return segment->Get(key, out);
    }

    // Cold-shard writes mutate only the overlay, under its exclusive
    // lock; callers hold the shard's write_gate shared and have already
    // logged the record, exactly like the resident path. Segment
    // membership checks read the mapping, like every cold read.

    bool TierInsert(const K& key, const P& payload) {
      std::unique_lock<std::shared_mutex> lock(delta_mutex);
      const auto it = delta.find(key);
      if (it != delta.end()) {
        if (!it->second.tombstone) return false;  // duplicate
        it->second.payload = payload;
        it->second.tombstone = false;  // revive an erased segment key
        cold_live.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      if (segment->Contains(key)) return false;
      delta.emplace(key, DeltaEntry{payload, false});
      cold_live.fetch_add(1, std::memory_order_relaxed);
      return true;
    }

    bool TierErase(const K& key) {
      std::unique_lock<std::shared_mutex> lock(delta_mutex);
      const auto it = delta.find(key);
      if (it != delta.end()) {
        if (it->second.tombstone) return false;  // already erased
        if (segment->Contains(key)) {
          it->second.tombstone = true;  // keep hiding the segment key
        } else {
          delta.erase(it);
        }
        cold_live.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
      if (!segment->Contains(key)) return false;
      delta.emplace(key, DeltaEntry{P{}, true});
      cold_live.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }

    bool TierUpdate(const K& key, const P& payload) {
      std::unique_lock<std::shared_mutex> lock(delta_mutex);
      const auto it = delta.find(key);
      if (it != delta.end()) {
        if (it->second.tombstone) return false;
        it->second.payload = payload;
        return true;
      }
      if (!segment->Contains(key)) return false;
      // Overwrite-if-present of a segment-resident key: shadow it.
      delta.emplace(key, DeltaEntry{payload, false});
      return true;
    }

    /// The one (record type, tier) → operation dispatch of a live write
    /// (gate held shared, record logged): insert-if-absent, overwrite-if-
    /// present and erase through a cold shard's overlay or a resident
    /// one's tree. True when the write changed the shard.
    bool Replay(wal::WalRecordType type, const K& key, const P* payload) {
      switch (type) {
        case wal::WalRecordType::kInsert:
          return cold() ? TierInsert(key, *payload)
                        : index.Insert(key, *payload);
        case wal::WalRecordType::kUpdate:
          return cold() ? TierUpdate(key, *payload)
                        : index.Update(key, *payload);
        case wal::WalRecordType::kErase:
          return cold() ? TierErase(key) : index.Erase(key);
        default:
          return false;
      }
    }

    /// Recovery's overlay for a fresh cold shard: the folded log tail
    /// `run` (ascending keys) resolved against the segment, giving exactly
    /// the entries, tombstones and live count that applying the records
    /// one by one through TierInsert/TierUpdate/TierErase gives — a
    /// segment key has an entry iff some record changed it (a tombstone
    /// if it ends absent), any other key iff it ends present. The shard
    /// is not yet published, so no lock is taken.
    void FillOverlay(const std::vector<wal::FoldedKey<K, P>>& run) {
      uint64_t live = segment->num_keys();
      for (const wal::FoldedKey<K, P>& folded : run) {
        P base{};
        const bool in_segment = segment->Get(folded.key, &base);
        const wal::FoldOutcome<P>& o = folded.From(in_segment);
        if (in_segment ? !o.changed : !o.present) continue;
        if (in_segment && !o.present) --live;
        if (!in_segment) ++live;
        delta.emplace_hint(delta.end(), folded.key,
                           DeltaEntry{o.payload, !o.present});
      }
      cold_live.store(live, std::memory_order_relaxed);
    }

    /// Merged scan of a cold shard over [lo, hi]: the overlay slice is
    /// snapshotted under the shared lock (so the segment stream never
    /// runs under it), then merge-joined with the segment in ascending
    /// key order. Visitor and return value as in ConcurrentAlex::Scan.
    template <typename Visitor>
    size_t TierScanUntil(const K& lo, const K& hi, Visitor&& visit) const {
      std::vector<std::pair<K, DeltaEntry>> overlay;
      {
        std::shared_lock<std::shared_mutex> lock(delta_mutex);
        for (auto it = delta.lower_bound(lo);
             it != delta.end() && !(hi < it->first); ++it) {
          overlay.emplace_back(it->first, it->second);
        }
      }
      size_t d = 0;
      size_t count = 0;
      bool more = true;
      const auto emit = [&](const K& key, const P& payload) {
        ++count;
        return more = core::ContinueScan(visit, key, payload);
      };
      // Emits the live overlay-only records below `*bound` (all remaining
      // ones when `bound` is null); false once the visitor stopped.
      const auto emit_overlay_below = [&](const K* bound) {
        for (; d < overlay.size(); ++d) {
          if (bound != nullptr && !(overlay[d].first < *bound)) break;
          const DeltaEntry& e = overlay[d].second;
          if (!e.tombstone && !emit(overlay[d].first, e.payload)) return false;
        }
        return true;
      };
      segment->ScanUntil(lo, hi, [&](const K& key, const P& payload) {
        if (!emit_overlay_below(&key)) return false;
        if (d < overlay.size() && !(key < overlay[d].first)) {
          // Erased segment key (skipped) or updated one (overlay wins).
          const DeltaEntry& e = overlay[d++].second;
          return e.tombstone || emit(key, e.payload);
        }
        return emit(key, payload);
      });
      if (more) emit_overlay_below(nullptr);
      return count;
    }

    size_t DeltaEntries() const {
      std::shared_lock<std::shared_mutex> lock(delta_mutex);
      return delta.size();
    }
  };

  /// An immutable routing table: published with one store, read under an
  /// epoch guard, retired through EBR when replaced.
  struct Table {
    ShardRouter<K> router;
    std::vector<std::shared_ptr<Shard>> shards;
  };

  static size_t TotalKeys(const Table* table) {
    size_t total = 0;
    for (const auto& shard : table->shards) {
      total += shard->TierSize();
    }
    return total;
  }

  /// Streaming scan of one shard, resident or cold, with the visitor
  /// contract of ConcurrentAlex::Scan.
  template <typename Visitor>
  static size_t ShardScan(const Shard* shard, K lo, K hi,
                          Visitor&& visit) {
    return shard->cold() ? shard->TierScanUntil(lo, hi, visit)
                         : shard->index.Scan(lo, hi, visit);
  }

  /// Collects every record of one shard, resident or cold, into
  /// `keys`/`payloads` in ascending key order. The caller holds the
  /// shard's write gate exclusively, so the drain is a point-in-time
  /// image.
  static void DrainShard(const Shard* shard, std::vector<K>* keys,
                         std::vector<P>* payloads) {
    keys->reserve(shard->TierSize());
    payloads->reserve(shard->TierSize());
    ShardScan(shard, std::numeric_limits<K>::lowest(),
              std::numeric_limits<K>::max(),
              [&](const K& key, const P& payload) {
                keys->push_back(key);
                payloads->push_back(payload);
              });
  }

  /// Aggregate pushdown for a cold shard: one merged overlay+segment
  /// stream folded with the same spec semantics as the resident
  /// per-leaf kernels (core/concurrent_alex.h AggregateLeafSlots).
  static core::AggResult<K, P> TierAggregate(const Shard* shard, K lo,
                                             K hi,
                                             const core::AggSpec<P>& spec) {
    core::AggResult<K, P> r;
    shard->TierScanUntil(lo, hi, [&](const K& key, const P& payload) {
      if constexpr (std::is_arithmetic_v<P>) {
        if (spec.has_payload_filter &&
            (payload < spec.filter_lo || spec.filter_hi < payload)) {
          return;
        }
      }
      ++r.count;
      if (spec.count_only) return;
      if (spec.field == core::AggField::kKeys) {
        r.keys.Add(key);
      } else if constexpr (std::is_arithmetic_v<P>) {
        r.payloads.Add(payload);
      }
    });
    return r;
  }

  core::AggResult<K, P> AggregateShard(const Shard* shard, K lo, K hi,
                                       const core::AggSpec<P>& spec) const {
    return shard->cold() ? TierAggregate(shard, lo, hi, spec)
                         : shard->index.Aggregate(lo, hi, spec);
  }

  // ---- Whole-table replacement (BulkLoad, LoadFrom) ----

  /// A fresh table holding `n` strictly-increasing keys partitioned
  /// evenly across (at most) options.num_shards shards.
  std::unique_ptr<Table> BuildEvenTable(const K* keys, const P* payloads,
                                        size_t n) const {
    const size_t shards =
        std::max<size_t>(1, std::min(options_.num_shards,
                                     std::max<size_t>(n, 1)));
    auto next = std::make_unique<Table>();
    next->router = ShardRouter<K>::FitFromSortedKeys(keys, n, shards);
    next->shards.reserve(shards);
    for (size_t j = 0; j < shards; ++j) {
      const size_t lo = j * n / shards;
      const size_t hi = (j + 1) * n / shards;
      auto shard = std::make_shared<Shard>(options_.shard_config, &epoch_);
      shard->index.BulkLoad(keys + lo, payloads + lo, hi - lo);
      next->shards.push_back(std::move(shard));
    }
    return next;
  }

  /// Publishes `next` for the whole live table. Every old shard's gate is
  /// then drained, the shard marked retired (stragglers re-route into
  /// `next`) and its log sealed: no commit can land in the old table,
  /// which retires through EBR. Caller holds rebalance_mutex_.
  void PublishAndRetireAll(std::unique_ptr<Table> next) {
    Table* old = table_.exchange(next.release(), std::memory_order_seq_cst);
    util::EpochManager::Guard guard(epoch_);
    for (const auto& shard : old->shards) {
      std::unique_lock<std::shared_mutex> gate(shard->write_gate);
      shard->retired.store(true, std::memory_order_seq_cst);
      if (shard->log != nullptr) {
        retired_commit_wait_.Merge(shard->log->CommitWaitHistogram());
        shard->log->Seal();
      }
    }
    epoch_.Retire(old);
    epoch_.TryReclaim();
  }

  // ---- WAL plumbing ----

  /// Logs one record or one shard run's batch through `append(log)`
  /// (no-op while the WAL is off) and records the first failure. Called
  /// with the shard's gate held shared, which is what orders it against
  /// checkpoints: a checkpoint's exclusive gate waits out the whole
  /// log+apply pair. False = the write could not be committed; the caller
  /// must fail it (fail closed, never apply an unlogged write). The log
  /// feeds the op-context's wal_wait_ns from its own commit-wait clock.
  template <typename Append>
  bool LogWrite(Shard* shard, Append&& append) {
    if (shard->log == nullptr) return true;
    const wal::WalStatus status = append(*shard->log);
    if (status == wal::WalStatus::kOk) return true;
    wal::WalStatus expected = wal::WalStatus::kOk;
    last_wal_error_.compare_exchange_strong(expected, status,
                                            std::memory_order_relaxed);
    ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll,
                   shard->log->wal_id(), shard->log->last_lsn(),
                   static_cast<int>(status), 0);
    return false;
  }

  /// The one write path of Insert, Erase and Update: route, gate shared
  /// (timed), re-route off a retired shard, count traffic, log, apply
  /// (Shard::Replay), release the gate, run the post-commit step.
  bool RoutedWrite(obs::OpType op, wal::WalRecordType type, K key,
                   const P* payload) {
    obs::ScopedOpTimer op_timer(op);
    util::EpochManager::Guard guard(epoch_);
    while (true) {
      Table* table = table_.load(std::memory_order_seq_cst);
      const size_t idx = table->router.Route(key);
      op_timer.set_shard(static_cast<uint32_t>(idx));
      Shard* shard = table->shards[idx].get();
      ALEX_OBS_TIMED_SHARED_LOCK(gate, shard->write_gate,
                                 "shard.write_gate_contended",
                                 "shard.write_gate_wait_ns");
      if (shard->retired.load(std::memory_order_seq_cst)) {
        continue;  // raced a topology or tier transaction: re-route
      }
      shard->traffic.fetch_add(1, std::memory_order_relaxed);
      if (!LogWrite(shard, [&](wal::ShardLog<K, P>& log) {
            return log.Log(type, key, payload);
          })) {
        return false;
      }
      const bool applied = shard->Replay(type, key, payload);
      gate.unlock();
      AfterCommit(table, shard, type, key, applied ? 1 : 0);
      return applied;
    }
  }

  /// The one shard-run loop of MultiInsert and MultiErase (`payloads`
  /// null for erases): each run goes through RoutedWrite's steps, logged
  /// as one batch.
  size_t RoutedBatchWrite(obs::OpType op, wal::WalRecordType type,
                          const K* keys, const P* payloads, size_t n,
                          bool* ok) {
    if (n == 0) return 0;
    obs::ScopedOpTimer op_timer(op);
    std::vector<size_t> order;
    std::vector<K> sorted_keys;
    SortBatch(keys, n, &order, &sorted_keys);
    std::vector<P> sorted_payloads(payloads != nullptr ? n : 0);
    for (size_t k = 0; k < sorted_payloads.size(); ++k) {
      sorted_payloads[k] = payloads[order[k]];
    }
    const std::unique_ptr<bool[]> run_ok(new bool[n]());
    size_t count = 0;
    util::EpochManager::Guard guard(epoch_);
    size_t i = 0;
    while (i < n) {
      Table* table = table_.load(std::memory_order_seq_cst);
      const size_t idx = table->router.Route(sorted_keys[i]);
      Shard* shard = table->shards[idx].get();
      const size_t j = RunEnd(table, idx, sorted_keys, i);
      ALEX_OBS_TIMED_SHARED_LOCK(gate, shard->write_gate,
                                 "shard.write_gate_contended",
                                 "shard.write_gate_wait_ns");
      if (shard->retired.load(std::memory_order_seq_cst)) {
        continue;  // raced a topology transaction: re-route from key i
      }
      const size_t len = j - i;
      shard->traffic.fetch_add(len, std::memory_order_relaxed);
      const K* run_keys = sorted_keys.data() + i;
      const P* run_payloads =
          payloads != nullptr ? sorted_payloads.data() + i : nullptr;
      bool* run_applied = run_ok.get() + i;
      size_t applied = 0;
      // A failed batch fails the run closed; later runs surface the same
      // error. A resident shard applies the run through its batched path.
      const bool logged = LogWrite(shard, [&](wal::ShardLog<K, P>& log) {
        return log.LogBatch(type, run_keys, run_payloads, len);
      });
      if (logged && !shard->cold()) {
        applied = type == wal::WalRecordType::kInsert
                      ? shard->index.MultiInsert(run_keys, run_payloads, len,
                                                 run_applied)
                      : shard->index.MultiErase(run_keys, len, run_applied);
      } else if (logged) {
        for (size_t k = 0; k < len; ++k) {
          run_applied[k] = shard->Replay(
              type, run_keys[k], run_payloads ? run_payloads + k : nullptr);
          applied += run_applied[k] ? 1 : 0;
        }
      }
      gate.unlock();
      count += applied;
      i = j;
      AfterCommit(table, shard, type, sorted_keys[i - 1], applied);
    }
    if (ok != nullptr) {
      for (size_t k = 0; k < n; ++k) ok[order[k]] = run_ok[k];
    }
    return count;
  }

  /// The post-commit step of scalar and batched writes, run with the gate
  /// released (MaybeSplit takes rebalance_mutex_, then gates exclusive):
  /// inserts may split the shard, erases merge it. Cold shards (tiering
  /// owns their lifecycle) and updates skip it. The shard-local commit
  /// counter makes the amortized check deterministic: exactly one
  /// committing thread observes each kSkewCheckInterval-th commit.
  void AfterCommit(Table* table, Shard* shard, wal::WalRecordType type,
                   K last_key, size_t committed) {
    if (committed == 0 || shard->cold() ||
        type == wal::WalRecordType::kUpdate) {
      return;
    }
    // Tick when (before, before + committed] holds a multiple of the
    // interval: a batched increment can jump past the exact multiple.
    const uint64_t before =
        shard->commit_count.fetch_add(committed, std::memory_order_relaxed);
    const bool tick = before / kSkewCheckInterval !=
                      (before + committed) / kSkewCheckInterval;
    if (type == wal::WalRecordType::kInsert) {
      MaybeSplit(table, shard, last_key, tick);
    } else {
      MaybeMerge(last_key, tick);
    }
  }

  // ---- Batch plumbing ----

  /// Sorts a batch by key through an index permutation: `order[k]` is the
  /// caller index of the k-th smallest key, `sorted_keys[k]` that key.
  static void SortBatch(const K* keys, size_t n, std::vector<size_t>* order,
                        std::vector<K>* sorted_keys) {
    order->resize(n);
    std::iota(order->begin(), order->end(), size_t{0});
    // Ties break on the original position so duplicate keys keep their
    // batch order — the first occurrence is the one whose insert wins,
    // exactly as a scalar loop over the batch would behave.
    std::sort(order->begin(), order->end(), [keys](size_t a, size_t b) {
      return keys[a] < keys[b] || (keys[a] == keys[b] && a < b);
    });
    sorted_keys->resize(n);
    for (size_t k = 0; k < n; ++k) (*sorted_keys)[k] = keys[(*order)[k]];
  }

  /// First index in (i, n] of `sorted_keys` that no longer routes to
  /// shard `idx` of `table`: shards own contiguous ascending ranges, so
  /// the run ends at the first key reaching the next shard's lower bound.
  static size_t RunEnd(const Table* table, size_t idx,
                       const std::vector<K>& sorted_keys, size_t i) {
    const size_t n = sorted_keys.size();
    if (idx + 1 >= table->shards.size()) return n;
    const K next_lo = table->router.LowerBoundOf(idx + 1);
    size_t j = i + 1;
    while (j < n && sorted_keys[j] < next_lo) ++j;
    return j;
  }

  /// Opens one fresh log (new wal id, seq 1, LSN 0) per shard and
  /// attaches it; the shards are unpublished, or the caller holds their
  /// gates exclusive. A non-empty `parents` list makes these topology
  /// children: the segment header names the first parent and the log's
  /// first record is a kTopology record listing all of them,
  /// fdatasync-durable before the child can acknowledge data. On any
  /// failure every log created here is removed again and false is
  /// returned. Caller holds rebalance_mutex_ (which guards next_wal_id_).
  bool AttachFreshLogs(std::vector<std::shared_ptr<Shard>>* shards,
                       const std::vector<uint64_t>& parents) {
    std::vector<std::shared_ptr<wal::ShardLog<K, P>>> logs;
    logs.reserve(shards->size());
    for (size_t i = 0; i < shards->size(); ++i) {
      auto log = std::make_shared<wal::ShardLog<K, P>>(
          wal_prefix_, next_wal_id_, parents.empty() ? 0 : parents.front(),
          /*seq=*/1, /*start_lsn=*/0, wal_options_);
      bool ok = log->Open() == wal::WalStatus::kOk;
      if (ok && !parents.empty()) {
        ok = log->LogTopology(parents) == wal::WalStatus::kOk;
      }
      if (!ok) {
        std::remove(log->current_path().c_str());
        for (const auto& created : logs) {
          std::remove(created->current_path().c_str());
        }
        return false;
      }
      ++next_wal_id_;
      logs.push_back(std::move(log));
    }
    for (size_t i = 0; i < shards->size(); ++i) {
      (*shards)[i]->log = std::move(logs[i]);
    }
    return true;
  }

  /// Removes every shard's log; the caller holds the gates exclusive.
  static void DetachLogs(Table* table) {
    for (const auto& shard : table->shards) {
      if (shard->log != nullptr) {
        std::remove(shard->log->current_path().c_str());
        shard->log.reset();
      }
    }
  }

  // ---- Boundary-preserving recovery ----

  /// True when `key` lies in manifest shard `shard`'s range
  /// [bounds[shard-1], bounds[shard]), open at both extremes.
  static bool KeyInShard(const K& key, size_t shard,
                         const std::vector<K>& bounds) {
    if (shard > 0 && key < bounds[shard - 1]) return false;
    if (shard < bounds.size() && !(key < bounds[shard])) return false;
    return true;
  }

  /// Recovery's pool width: recovery_threads, clamped to the hardware
  /// concurrency (recovery is CPU-bound; oversubscription only adds
  /// contention). The pool itself is util::ParallelFor, the one the scan
  /// engine fans out on.
  size_t RecoveryWidth() const {
    size_t workers = std::max<size_t>(1, options_.recovery_threads);
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0) workers = std::min<size_t>(workers, hw);
    return workers;
  }

  /// Runs fn(i) for i in [0, n) on the recovery pool (per-shard recovery
  /// is embarrassingly parallel: distinct shards build distinct state).
  template <typename Fn>
  void ParallelOverShards(size_t n, Fn&& fn) const {
    util::ParallelFor(n, RecoveryWidth(), std::forward<Fn>(fn));
  }

  /// Opens and fully audits manifest shard `i`'s segment: structure and
  /// metadata checksums (Open), every block's checksum and key order
  /// (VerifyAllBlocks), then the key count and the boundary range — a
  /// swapped or foreign file fails even when its count happens to agree.
  /// A zero-key shard has no file and leaves `*out` null.
  static core::SnapshotStatus OpenManifestSegment(
      const std::string& prefix, const ShardManifest<K>& manifest, size_t i,
      std::shared_ptr<tier::ColdSegment<K, P>>* out) {
    if (manifest.shard_keys[i] == 0) return core::SnapshotStatus::kOk;
    const std::string path =
        tier::SegmentPath(prefix, manifest.segment_ids[i]);
    auto segment = std::make_shared<tier::ColdSegment<K, P>>();
    core::SnapshotStatus status =
        segment->Open(path, manifest.segment_ids[i]);
    if (status == core::SnapshotStatus::kIoError) {
      // Only a file that is actually gone is "missing"; one that exists
      // but cannot be opened or mapped stays kIoError.
      struct ::stat st;
      return ::stat(path.c_str(), &st) != 0 && errno == ENOENT
                 ? core::SnapshotStatus::kMissingShard
                 : core::SnapshotStatus::kIoError;
    }
    // Open leaves block data untouched; recovery pays one full data pass
    // so a flipped block byte surfaces now, not on some future read.
    if (status == core::SnapshotStatus::kOk) {
      status = segment->VerifyAllBlocks();
    }
    if (status != core::SnapshotStatus::kOk) return status;
    if (segment->num_keys() != manifest.shard_keys[i] ||
        !KeyInShard(segment->min_key(), i, manifest.boundaries) ||
        !KeyInShard(segment->max_key(), i, manifest.boundaries)) {
      return core::SnapshotStatus::kManifestMismatch;
    }
    *out = std::move(segment);
    return core::SnapshotStatus::kOk;
  }

  /// A resident shard holding `source`'s records: one sorted drain of the
  /// segment + overlay merge into a bulk load. The core of a promotion.
  std::shared_ptr<Shard> MakeResident(const Shard* source) const {
    std::vector<K> keys;
    std::vector<P> payloads;
    DrainShard(source, &keys, &payloads);
    auto resident = std::make_shared<Shard>(options_.shard_config, &epoch_);
    resident->index.BulkLoad(keys.data(), payloads.data(), keys.size());
    return resident;
  }

  /// The records of `segment` (null: none) with a folded log tail merged
  /// on top, in ascending key order: one ColdSegment::ScanUntil pass
  /// feeding wal::MergeTail, straight into bulk-load input.
  static void MergeIntoVectors(const std::vector<wal::FoldedKey<K, P>>& run,
                               const tier::ColdSegment<K, P>* segment,
                               std::vector<K>* keys, std::vector<P>* payloads) {
    const size_t bound = run.size() + (segment ? segment->num_keys() : 0);
    keys->reserve(bound);
    payloads->reserve(bound);
    wal::MergeTail(
        run,
        [&](auto&& visit) {
          if (segment == nullptr) return;
          segment->ScanUntil(std::numeric_limits<K>::lowest(),
                             std::numeric_limits<K>::max(), visit);
        },
        [&](const K& key, const P& payload) {
          keys->push_back(key);
          payloads->push_back(payload);
        });
  }

  /// Rebuilds the table with the manifest's exact boundary array, each
  /// shard recovered independently, as one sorted run over its audited
  /// segment (`(*segments)[i]`, null for a zero-key shard):
  ///   read   every log once (files checksummed on the recovery pool) and
  ///          anchor the lineage graph;
  ///   fold   per shard, gather the records of every lineage rooted at its
  ///          checkpoint anchor — ascending wal id, then LSN, past the
  ///          checkpoint LSN — and fold them (wal::FoldTail: one stable
  ///          sort by key, then each key's records in replay order);
  ///   build  a shard tagged resident (or with no segment) merges the run
  ///          with one segment scan straight into a ConcurrentAlex bulk
  ///          load; one tagged cold keeps its segment and gets the run as
  ///          its overlay (Shard::FillOverlay), exactly the overlay that
  ///          applying the records one by one would leave.
  /// A topology child's records are range-filtered back to the manifest
  /// shards its parents anchor (a merge child spans several; each key's
  /// full history threads through logs of ascending id, so the filtered
  /// per-shard order is the true per-key order). Both per-shard phases run
  /// on the recovery pool — no two shards share mutable state — and each
  /// phase's wall time lands in the report. Fills one ShardReplayStats per
  /// shard in `rep->shards`.
  core::SnapshotStatus RecoverBoundaryPreserving(
      const std::string& prefix, const ShardManifest<K>& manifest,
      std::vector<std::shared_ptr<tier::ColdSegment<K, P>>>* segments,
      bool was_logging, wal::RecoveryReport* rep,
      std::unique_ptr<Table>* out) {
    const util::Timer read_timer;
    std::map<uint64_t, uint64_t> checkpoints;
    std::map<uint64_t, size_t> root_shard;
    for (size_t i = 0; i < manifest.wal_ids.size(); ++i) {
      if (manifest.wal_ids[i] != 0) {
        checkpoints[manifest.wal_ids[i]] = manifest.checkpoint_lsns[i];
        root_shard[manifest.wal_ids[i]] = i;
      }
    }
    // Read + validate every lineage once (the expensive, checksummed
    // pass), then anchor the lineage graph: with a manifest, an orphan
    // lineage holding records must fail rather than replay over the
    // wrong baseline. Never physically truncate while the segments
    // might belong to this index's own live logs.
    std::vector<wal::WalLineage<K, P>> lineages;
    wal::WalStatus ws = wal::ReadWalLineages<K, P>(
        prefix, checkpoints, &lineages, rep,
        /*truncate_torn_tail=*/!was_logging, RecoveryWidth());
    if (ws == wal::WalStatus::kOk) {
      ws = wal::AnchorLineages(&lineages, checkpoints,
                               /*require_known_roots=*/true, rep,
                               manifest.next_wal_id);
    }
    rep->read_s = read_timer.ElapsedSeconds();
    if (ws != wal::WalStatus::kOk) {
      return core::SnapshotStatus::kWalReplayFailed;
    }
    // Feed map: which manifest shards each lineage replays into. A
    // checkpoint root feeds its own shard; a topology child feeds the
    // union of its parents' shards (ascending wal-id order makes one
    // pass suffice — parents resolve before children).
    std::map<uint64_t, std::vector<size_t>> owners;
    std::vector<std::vector<size_t>> feeds(lineages.size());
    for (size_t l = 0; l < lineages.size(); ++l) {
      if (!lineages[l].anchored) continue;
      std::vector<size_t>& shards_of = feeds[l];
      const auto root = root_shard.find(lineages[l].wal_id);
      if (root != root_shard.end()) {
        shards_of.push_back(root->second);
      } else {
        for (const uint64_t parent : lineages[l].parents) {
          const auto it = owners.find(parent);
          if (it != owners.end()) {
            shards_of.insert(shards_of.end(), it->second.begin(),
                             it->second.end());
          }
        }
        std::sort(shards_of.begin(), shards_of.end());
        shards_of.erase(std::unique(shards_of.begin(), shards_of.end()),
                        shards_of.end());
      }
      owners[lineages[l].wal_id] = shards_of;
    }

    // Fold: workers touch disjoint slots of `runs` and rep->shards.
    const util::Timer fold_timer;
    const size_t n = manifest.num_shards();
    std::vector<std::vector<wal::FoldedKey<K, P>>> runs(n);
    rep->shards.assign(n, wal::ShardReplayStats{});
    ParallelOverShards(n, [&](size_t i) {
      wal::ShardReplayStats& stats = rep->shards[i];
      stats.shard = i;
      stats.wal_id = manifest.wal_ids.size() > i ? manifest.wal_ids[i] : 0;
      std::vector<wal::WalRecord<K, P>> tail;
      for (size_t l = 0; l < lineages.size(); ++l) {
        if (std::find(feeds[l].begin(), feeds[l].end(), i) ==
            feeds[l].end()) {
          continue;
        }
        if (lineages[l].tail_truncated) stats.tail_truncated = true;
        for (const wal::WalRecord<K, P>& rec : lineages[l].records) {
          if (!KeyInShard(rec.key, i, manifest.boundaries)) continue;
          if (rec.lsn <= lineages[l].checkpoint_lsn) {
            ++stats.records_skipped;
            continue;
          }
          tail.push_back(rec);
          ++stats.records_replayed;
        }
      }
      runs[i] = wal::FoldTail(std::move(tail));
    });
    std::vector<wal::WalLineage<K, P>>().swap(lineages);
    rep->fold_s = fold_timer.ElapsedSeconds();

    // Build: workers touch disjoint slots of next->shards.
    const util::Timer build_timer;
    auto next = std::make_unique<Table>();
    next->router = ShardRouter<K>(manifest.boundaries);
    next->shards.resize(n);
    Table* next_raw = next.get();
    ParallelOverShards(n, [&](size_t i) {
      auto shard = std::make_shared<Shard>(options_.shard_config, &epoch_);
      std::shared_ptr<tier::ColdSegment<K, P>>& segment = (*segments)[i];
      if (segment != nullptr && manifest.IsCold(i)) {
        shard->segment = std::move(segment);
        shard->FillOverlay(runs[i]);
      } else {
        std::vector<K> keys;
        std::vector<P> payloads;
        MergeIntoVectors(runs[i], segment.get(), &keys, &payloads);
        segment.reset();
        std::vector<wal::FoldedKey<K, P>>().swap(runs[i]);
        shard->index.BulkLoad(keys.data(), payloads.data(), keys.size());
      }
      next_raw->shards[i] = std::move(shard);
    });
    rep->build_s = build_timer.ElapsedSeconds();
    for (const wal::ShardReplayStats& stats : rep->shards) {
      rep->records_replayed += stats.records_replayed;
      rep->records_skipped += stats.records_skipped;
    }
    *out = std::move(next);
    return core::SnapshotStatus::kOk;
  }

  using GateLocks = std::vector<std::unique_lock<std::shared_mutex>>;

  /// Takes every shard's write gate of `table` exclusive, in shard order.
  static GateLocks LockGates(const Table* table) {
    GateLocks gates;
    gates.reserve(table->shards.size());
    for (const auto& shard : table->shards) {
      gates.emplace_back(shard->write_gate);
    }
    return gates;
  }

  /// SaveTo of the current `table`, with rebalance_mutex_ and every gate
  /// of `table` held (BulkLoad and EnableWal keep the gates from log
  /// attach through their anchor checkpoint). See SaveTo for the contract.
  core::SnapshotStatus SaveToLocked(const std::string& prefix,
                                    Table* table) const {
    util::EpochManager::Guard guard(epoch_);
    const bool wal_checkpoint = wal_enabled_ && prefix == wal_prefix_;
    // The manifest committed at this prefix, if any, numbers this one,
    // and fresh segment ids must clear every id it references: a save
    // never overwrites a file the committed checkpoint still needs.
    ShardManifest<K> previous;
    ShardManifest<K> manifest;
    manifest.generation = 1;
    if (ReadManifest<K>(ManifestPath(prefix), &previous) ==
        core::SnapshotStatus::kOk) {
      manifest.generation = previous.generation + 1;
      next_segment_id_ = std::max(next_segment_id_, previous.next_segment_id);
    }
    manifest.boundaries = table->router.boundaries();
    manifest.next_wal_id = wal_checkpoint ? next_wal_id_ : 0;
    manifest.topology_epoch =
        topology_epoch_.load(std::memory_order_relaxed);
    manifest.shard_keys.reserve(table->shards.size());
    for (size_t i = 0; i < table->shards.size(); ++i) {
      Shard* shard = table->shards[i].get();
      const uint64_t n = shard->TierSize();
      uint64_t segment_id = 0;
      if (shard->SegmentAt(prefix) && shard->DeltaEntries() == 0) {
        // Clean overlay, segment already durable at this prefix (the
        // demotion/compaction that built it committed it): reference it
        // as-is — the checkpoint writes zero bytes for this shard.
        segment_id = shard->segment->id();
      } else if (n > 0) {
        // Every other shard with records, resident or cold, seals its
        // drained stream into a fresh segment at `prefix` — durable
        // before the manifest can reference it (and before the WAL
        // segments it supersedes are deleted below). The live shard is
        // untouched; only the manifest references the copy. A shard with
        // zero keys has no file.
        std::shared_ptr<tier::ColdSegment<K, P>> sealed;
        const core::SnapshotStatus status =
            WriteAndOpenSegment(prefix, shard, &segment_id, &sealed);
        if (status != core::SnapshotStatus::kOk) return status;
      }
      manifest.shard_keys.push_back(n);
      manifest.tier_tags.push_back(shard->cold() && n > 0
                                       ? internal::kTierCold
                                       : internal::kTierResident);
      manifest.segment_ids.push_back(segment_id);
      // With the gates held, log and index are in lockstep: this
      // checkpoint holds exactly the effects of records up to last_lsn().
      const auto& log = shard->log;
      if (wal_checkpoint && log != nullptr) {
        manifest.wal_ids.push_back(log->wal_id());
        manifest.checkpoint_lsns.push_back(log->last_lsn());
      } else {
        manifest.wal_ids.push_back(0);
        manifest.checkpoint_lsns.push_back(0);
      }
    }
    manifest.next_segment_id = next_segment_id_;
    // Only once committed may the cleanup below destroy what the
    // checkpoint superseded.
    const core::SnapshotStatus status = CommitDurableFile(
        prefix, ManifestPath(prefix), [&](const std::string& tmp) {
          return WriteManifest(tmp, manifest);
        });
    if (status != core::SnapshotStatus::kOk) return status;
    {
      // Committed: journal the checkpoint with the highest LSN any shard
      // anchored (the point recovery replays from).
      uint64_t max_lsn = 0;
      for (const uint64_t lsn : manifest.checkpoint_lsns) {
        max_lsn = std::max(max_lsn, lsn);
      }
      ALEX_OBS_EVENT(obs::EventType::kCheckpoint, obs::kShardAll, 0, max_lsn,
                     manifest.generation, table->shards.size());
    }
    // Post-commit, best-effort cleanup: every segment at the prefix that
    // neither this manifest nor the live table references (superseded
    // checkpoint images, promoted shards' segments, strays from crashed
    // saves) and — after a checkpoint rotation — every WAL segment the
    // checkpoint covers.
    SweepStaleSegments(prefix, manifest.segment_ids, table);
    if (wal_checkpoint) {
      for (const auto& shard : table->shards) {
        if (shard->log != nullptr) {
          shard->log->Rotate();  // failure keeps the old segment current
        }
      }
      SweepStaleWalSegments(prefix, table);
    } else if (!wal_enabled_) {
      // This manifest records no checkpoint LSNs, so any segment left at
      // the prefix (e.g. the logs a recovery just replayed) would replay
      // *from LSN 0 over this newer checkpoint* at the next load. They are
      // superseded by the committed checkpoint: remove them all. Skipped
      // while logging is live: `prefix` could then be a spelled-
      // differently alias of wal_prefix_ (./db vs db), and sweeping
      // would unlink the live logs' current segments. (Recovery guards
      // the leftover-segment case anyway: with a manifest, an
      // unanchored lineage never replays.)
      SweepStaleWalSegments(prefix, /*table=*/nullptr);
    }
    return core::SnapshotStatus::kOk;
  }

  /// Removes every WAL segment at the prefix that is not some live
  /// shard's *current* segment (all of them when `table` is null — a
  /// save without a checkpoint). Only called after a manifest commit,
  /// when the checkpoint has made the swept segments (rotated-out seqs,
  /// sealed split victims, abandoned or replayed lineages) redundant.
  void SweepStaleWalSegments(const std::string& prefix,
                             Table* table) const {
    std::vector<std::pair<uint64_t, uint64_t>> keep;
    if (table != nullptr) {
      keep.reserve(table->shards.size());
      for (const auto& shard : table->shards) {
        if (shard->log != nullptr) {
          keep.emplace_back(shard->log->wal_id(), shard->log->seq());
        }
      }
    }
    for (const wal::WalSegmentFile& f : wal::ListWalSegments(prefix)) {
      if (std::find(keep.begin(), keep.end(),
                    std::make_pair(f.wal_id, f.seq)) == keep.end()) {
        std::remove(f.path.c_str());
      }
    }
  }

  // ---- Tier lifecycle (all called with rebalance_mutex_ held) ----
  static uint64_t ColdBytesOf(const Table* table) {
    uint64_t bytes = 0;
    for (const auto& shard : table->shards) {
      if (shard->cold()) bytes += shard->segment->file_bytes();
    }
    return bytes;
  }

  /// The one commit for durable files (segments, the manifest):
  /// `write(tmp)` stages the bytes beside `path`; the stage is fsynced,
  /// renamed into place (atomic on POSIX) and the directory of `prefix`
  /// fsynced. A stage that cannot be synced or renamed is removed.
  template <typename Write>
  static core::SnapshotStatus CommitDurableFile(const std::string& prefix,
                                                const std::string& path,
                                                Write&& write) {
    const std::string tmp = path + ".tmp";
    const core::SnapshotStatus status = write(tmp);
    if (status != core::SnapshotStatus::kOk) return status;
    if (!wal::SyncPath(tmp) || std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      return core::SnapshotStatus::kIoError;
    }
    std::string dir, base;
    wal::SplitPrefixPath(prefix, &dir, &base);
    return wal::SyncPath(dir) ? core::SnapshotStatus::kOk
                              : core::SnapshotStatus::kIoError;
  }

  /// Drains `shard` (its gate held exclusive by the caller) into a fresh
  /// segment at `prefix`, committed under a new id (`*id`) and opened
  /// into `*out`. kIoError for an empty shard: a zero-key shard has no
  /// segment.
  core::SnapshotStatus WriteAndOpenSegment(
      const std::string& prefix, const Shard* shard, uint64_t* id,
      std::shared_ptr<tier::ColdSegment<K, P>>* out) const {
    std::vector<K> keys;
    std::vector<P> payloads;
    DrainShard(shard, &keys, &payloads);
    if (keys.empty()) return core::SnapshotStatus::kIoError;
    *id = next_segment_id_++;
    const std::string path = tier::SegmentPath(prefix, *id);
    core::SnapshotStatus status =
        CommitDurableFile(prefix, path, [&](const std::string& tmp) {
          return tier::WriteSegmentFile<K, P>(
              tmp, keys.data(), payloads.data(), keys.size(),
              std::max<size_t>(64, kTierBlockBytes / (sizeof(K) + sizeof(P))));
        });
    if (status != core::SnapshotStatus::kOk) return status;
    auto segment = std::make_shared<tier::ColdSegment<K, P>>();
    status = segment->Open(path, *id);
    if (status != core::SnapshotStatus::kOk) {
      std::remove(path.c_str());
      return status;
    }
    *out = std::move(segment);
    return core::SnapshotStatus::kOk;
  }

  /// Publishes a copy of the current table with shard `idx` replaced,
  /// then retires the victim. The victim's log MOVES to the replacement
  /// (not sealed): the logical shard continues, so its LSN stream must
  /// too. Runs the same drain→publish→retire steps as a topology
  /// transaction, for one shard.
  void ReplaceShard(Table* table, size_t idx,
                    std::shared_ptr<Shard> replacement,
                    std::unique_lock<std::shared_mutex>* gate) {
    Shard* victim = table->shards[idx].get();
    replacement->log = victim->log;
    replacement->traffic_mark = 0;
    auto* next = new Table();
    next->router = table->router;
    next->shards = table->shards;
    next->shards[idx] = std::move(replacement);
    table_.store(next, std::memory_order_seq_cst);
    victim->retired.store(true, std::memory_order_seq_cst);
    victim->log.reset();
    gate->unlock();
    epoch_.Retire(table);
    epoch_.TryReclaim();
    ALEX_OBS_GAUGE_SET("tier.cold_bytes",
                       static_cast<double>(ColdBytesOf(next)));
  }

  /// The sealing step of demotion and compaction: drains shard `idx` of
  /// `table` under its exclusive gate into a fresh segment at the tier
  /// prefix and publishes a cold shard over it (ReplaceShard), reporting
  /// the record count and segment id. kIoError without a prefix or for
  /// an empty shard.
  core::SnapshotStatus SealToSegment(Table* table, size_t idx, size_t* n,
                                     uint64_t* seg_id) {
    // Demotion writes at the tier prefix, defaulting to the WAL prefix.
    const std::string& prefix =
        options_.tier_prefix.empty() ? wal_prefix_ : options_.tier_prefix;
    if (prefix.empty()) return core::SnapshotStatus::kIoError;
    Shard* victim = table->shards[idx].get();
    std::unique_lock<std::shared_mutex> gate(victim->write_gate);
    std::shared_ptr<tier::ColdSegment<K, P>> segment;
    const core::SnapshotStatus status =
        WriteAndOpenSegment(prefix, victim, seg_id, &segment);
    if (status != core::SnapshotStatus::kOk) return status;
    *n = segment->num_keys();
    auto cold = std::make_shared<Shard>(options_.shard_config, &epoch_);
    cold->segment = std::move(segment);
    cold->cold_live.store(*n, std::memory_order_relaxed);
    ReplaceShard(table, idx, std::move(cold), &gate);
    return core::SnapshotStatus::kOk;
  }

  /// The public face of a tier transition: takes the rebalance lock and
  /// an epoch guard, then runs `locked` on shard `idx` (kIoError for an
  /// index past the table).
  core::SnapshotStatus TierTransition(
      size_t idx, core::SnapshotStatus (ShardedAlex::*locked)(size_t)) {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    util::EpochManager::Guard guard(epoch_);
    if (idx >= table_.load(std::memory_order_seq_cst)->shards.size()) {
      return core::SnapshotStatus::kIoError;
    }
    return (this->*locked)(idx);
  }

  // The *Locked tier transitions: caller holds rebalance_mutex_ and an
  // epoch guard, and `idx` names a shard of the current table.

  core::SnapshotStatus DemoteShardLocked(size_t idx) {
    Table* table = table_.load(std::memory_order_seq_cst);
    if (table->shards[idx]->cold()) return core::SnapshotStatus::kOk;
    size_t n = 0;
    uint64_t seg_id = 0;
    const core::SnapshotStatus status = SealToSegment(table, idx, &n, &seg_id);
    if (status != core::SnapshotStatus::kOk) return status;
    demotions_.fetch_add(1, std::memory_order_relaxed);
    ALEX_OBS_COUNTER_INC("tier.demotions");
    ALEX_OBS_EVENT(obs::EventType::kTierDemotion,
                   static_cast<uint32_t>(idx), 0, 0,
                   static_cast<int64_t>(n),
                   static_cast<int64_t>(seg_id));
    return core::SnapshotStatus::kOk;
  }

  core::SnapshotStatus PromoteShardLocked(size_t idx) {
    Table* table = table_.load(std::memory_order_seq_cst);
    Shard* victim = table->shards[idx].get();
    if (!victim->cold()) return core::SnapshotStatus::kOk;
    std::unique_lock<std::shared_mutex> gate(victim->write_gate);
    [[maybe_unused]] const uint64_t old_segment = victim->segment->id();
    std::shared_ptr<Shard> resident = MakeResident(victim);
    [[maybe_unused]] const uint64_t n = resident->TierSize();
    ReplaceShard(table, idx, std::move(resident), &gate);
    // The segment file is NOT unlinked here: the committed manifest may
    // still reference it (a crash before the next checkpoint must be
    // able to reopen it). The next checkpoint's sweep collects it.
    promotions_.fetch_add(1, std::memory_order_relaxed);
    ALEX_OBS_COUNTER_INC("tier.promotions");
    ALEX_OBS_EVENT(obs::EventType::kTierPromotion,
                   static_cast<uint32_t>(idx), 0, 0,
                   static_cast<int64_t>(n),
                   static_cast<int64_t>(old_segment));
    return core::SnapshotStatus::kOk;
  }

  core::SnapshotStatus CompactShardLocked(size_t idx) {
    Table* table = table_.load(std::memory_order_seq_cst);
    Shard* victim = table->shards[idx].get();
    if (!victim->cold()) return core::SnapshotStatus::kOk;
    if (victim->DeltaEntries() == 0) return core::SnapshotStatus::kOk;
    if (victim->TierSize() == 0) {
      // Everything erased: a zero-key shard has no segment, so the
      // compacted form of this shard is an empty resident one.
      return PromoteShardLocked(idx);
    }
    size_t n = 0;
    uint64_t seg_id = 0;
    const core::SnapshotStatus status = SealToSegment(table, idx, &n, &seg_id);
    if (status != core::SnapshotStatus::kOk) return status;
    compactions_.fetch_add(1, std::memory_order_relaxed);
    ALEX_OBS_COUNTER_INC("tier.compactions");
    ALEX_OBS_EVENT(obs::EventType::kTierCompaction,
                   static_cast<uint32_t>(idx), 0, 0,
                   static_cast<int64_t>(n),
                   static_cast<int64_t>(seg_id));
    return core::SnapshotStatus::kOk;
  }

  /// Removes segment files at `prefix` that neither the committed
  /// manifest (`keep`) nor the live table references, plus every .tmp
  /// stray a crashed writer left behind. Post-commit, best-effort, like
  /// the WAL sweep.
  void SweepStaleSegments(const std::string& prefix,
                          std::vector<uint64_t> keep,
                          const Table* table) const {
    for (const auto& shard : table->shards) {
      if (shard->SegmentAt(prefix)) keep.push_back(shard->segment->id());
    }
    ForEachSegmentFile(prefix, [&](const std::string& path, uint64_t id,
                                   bool is_tmp) {
      if (is_tmp ||
          std::find(keep.begin(), keep.end(), id) == keep.end()) {
        std::remove(path.c_str());
      }
    });
  }

  /// Calls fn(path, id, is_tmp) for every segment file at `prefix`.
  template <typename Fn>
  static void ForEachSegmentFile(const std::string& prefix, Fn&& fn) {
    std::string dir, base;
    wal::SplitPrefixPath(prefix, &dir, &base);
    std::vector<std::string> names;
    if (!wal::ListDirectory(dir, &names)) return;
    for (const std::string& name : names) {
      uint64_t id = 0;
      bool is_tmp = false;
      if (tier::ParseSegmentFileName(name, base, &id, &is_tmp)) {
        fn(dir + "/" + name, id, is_tmp);
      }
    }
  }

  bool ShouldSplit(size_t shard_keys, size_t total,
                   size_t num_shards) const {
    if (shard_keys < options_.min_rebalance_keys) return false;
    if (options_.max_shard_keys > 0 &&
        shard_keys > options_.max_shard_keys) {
      return true;
    }
    const double mean = static_cast<double>(total) /
                        static_cast<double>(num_shards);
    return static_cast<double>(shard_keys) >
           options_.rebalance_skew * mean;
  }

  /// The inverse of the skew check: two adjacent cold shards whose
  /// combined size is still under the merge floor fold into one.
  bool ShouldMerge(size_t a_keys, size_t b_keys) const {
    return options_.merge_threshold_keys > 0 &&
           a_keys + b_keys < options_.merge_threshold_keys;
  }

  /// Post-commit split trigger. The absolute bound costs one load of the
  /// just-written shard's own size; the relative skew check must read
  /// every shard's size, so it runs only when `tick` is set — scalar
  /// commits set it on every kSkewCheckInterval-th commit into the shard,
  /// batched commits when the run crossed an interval boundary (both
  /// derived from the shard's own counter, so the trigger is
  /// deterministic under any interleaving) — the write hot path performs
  /// no cross-shard reads.
  static constexpr uint64_t kSkewCheckInterval = 1024;

  void MaybeSplit(Table* table, Shard* shard, K hint_key, bool tick) {
    const size_t shard_keys = shard->index.size();
    if (shard_keys < options_.min_rebalance_keys) return;
    const bool over_absolute = options_.max_shard_keys > 0 &&
                               shard_keys > options_.max_shard_keys;
    if (!over_absolute && !tick) {
      return;
    }
    // The tick path reads every shard's size anyway; fold the pass into
    // one loop and publish the size-skew gauge (largest/mean x100, the
    // same shape ShouldSplit tests) for the health watchdog.
    size_t total = 0;
    size_t largest = 0;
    for (const auto& s : table->shards) {
      const size_t keys = s->TierSize();
      total += keys;
      largest = std::max(largest, keys);
    }
    if (tick && total > 0) {
      [[maybe_unused]] const double mean =
          static_cast<double>(total) /
          static_cast<double>(table->shards.size());
      ALEX_OBS_GAUGE_SET("shard.size_skew_x100",
                         100.0 * static_cast<double>(largest) / mean);
    }
    if (!ShouldSplit(shard_keys, total, table->shards.size())) {
      return;
    }
    std::unique_lock<std::mutex> rebalance(rebalance_mutex_,
                                           std::try_to_lock);
    if (!rebalance.owns_lock()) return;  // a rival transaction is running
    Table* current = table_.load(std::memory_order_seq_cst);
    const size_t idx = current->router.Route(hint_key);
    // Re-check under the lock: a rival may already have split this
    // range, or erases may have deflated it.
    if (!ShouldSplit(current->shards[idx]->index.size(),
                     TotalKeys(current), current->shards.size())) {
      return;
    }
    ExecuteTopologyTxn(TopologyOp::kSplit, idx, idx + 1, kSplitWays);
  }

  /// Post-erase merge trigger, amortized exactly like the split skew
  /// check (`tick` derives from the shard's own counter). Picks the
  /// smaller adjacent neighbor as the co-victim. Unlike MaybeSplit there
  /// is no cheap pre-check against the caller's table: the decision needs
  /// the neighbors' sizes, which are only stable under the rebalance
  /// lock.
  void MaybeMerge(K hint_key, bool tick) {
    if (options_.merge_threshold_keys == 0) return;
    if (!tick) return;
    std::unique_lock<std::mutex> rebalance(rebalance_mutex_,
                                           std::try_to_lock);
    if (!rebalance.owns_lock()) return;
    Table* current = table_.load(std::memory_order_seq_cst);
    if (current->shards.size() < 2) return;
    const size_t idx = current->router.Route(hint_key);
    size_t lo;
    if (idx == 0) {
      lo = 0;
    } else if (idx + 1 == current->shards.size()) {
      lo = idx - 1;
    } else {
      lo = current->shards[idx - 1]->TierSize() <=
                   current->shards[idx + 1]->TierSize()
               ? idx - 1
               : idx;
    }
    if (!ShouldMerge(current->shards[lo]->TierSize(),
                     current->shards[lo + 1]->TierSize())) {
      return;
    }
    ExecuteTopologyTxn(TopologyOp::kMerge, lo, lo + 2, 1);
  }

  /// Which maintenance module a topology transaction runs; all three
  /// share every step of the protocol below.
  enum class TopologyOp { kSplit, kMerge, kRebalance };

  /// The one protocol every topology change runs through: replaces the
  /// adjacent victim shards [lo, hi) of the current table with `ways`
  /// children holding the same keys, evenly partitioned. Caller holds
  /// rebalance_mutex_ and an epoch guard. Returns true when the
  /// replacement table was published; false aborts cleanly (a cold
  /// victim could not be promoted, too few keys to partition, or child
  /// log files could not be opened).
  ///
  /// The protocol's invariants are asserted here and nowhere else:
  ///   - victims' gates are drained (held exclusive) before their logs
  ///     are read, and stay held until after the seal;
  ///   - the seal LSN equals the publish LSN — no record can land in a
  ///     victim's log between the drain and its seal;
  ///   - parents are retired only after every child's segment file is
  ///     durable in the directory (ShardLog::Open fsyncs the directory
  ///     entry before returning).
  bool ExecuteTopologyTxn(TopologyOp op, size_t lo, size_t hi,
                          size_t ways) {
    assert(ways >= 1);
    // Victims must be resident: the build step streams their trees, and
    // a cold shard's log/segment hand-off is the tier transitions' job.
    // Promote cold victims first (cheap and rare: merge victims are tiny
    // by definition); a promotion replaces one shard in place, so
    // [lo, hi) still names the victims in the reloaded table.
    for (size_t i = lo; i < hi; ++i) {
      if (table_.load(std::memory_order_seq_cst)->shards[i]->cold() &&
          PromoteShardLocked(i) != core::SnapshotStatus::kOk) {
        return false;
      }
    }
    Table* table = table_.load(std::memory_order_seq_cst);
    assert(lo < hi && hi <= table->shards.size());
    // Drain: victims' write gates exclusive, ascending — in-flight
    // writers finish, new ones wait here or re-route after publish.
    std::vector<std::unique_lock<std::shared_mutex>> gates;
    gates.reserve(hi - lo);
    for (size_t i = lo; i < hi; ++i) {
      gates.emplace_back(table->shards[i]->write_gate);
    }
    // With the gates drained the victims' logs cannot move: capture
    // their LSNs now and assert them unchanged at the seal.
    std::vector<uint64_t> parent_ids;
    std::vector<uint64_t> drained_lsns;
    for (size_t i = lo; i < hi; ++i) {
      const auto& log = table->shards[i]->log;
      if (log != nullptr) {
        parent_ids.push_back(log->wal_id());
        drained_lsns.push_back(log->last_lsn());
      }
    }
    // Build: stream the write-quiescent victims (adjacent ascending
    // ranges, so shard order is key order) straight into the children's
    // bulk-load arrays through the visitor scan — no intermediate
    // pair buffer, each record copied exactly once. The drained gates
    // make the victim sizes exact, so every child's cut is known before
    // the stream starts; the cut key observed when the stream crosses a
    // child boundary becomes that child's split key.
    size_t n = 0;
    for (size_t i = lo; i < hi; ++i) n += table->shards[i]->index.size();
    // A split needs at least one key per child to cut its split keys
    // from; a merge (one child) works even on empty victims.
    if (ways > 1 && n < ways) return false;  // abort; gates release
    std::vector<K> split_keys;
    split_keys.reserve(ways - 1);
    std::vector<std::vector<K>> part_keys(ways);
    std::vector<std::vector<P>> part_payloads(ways);
    for (size_t j = 0; j < ways; ++j) {
      const size_t quota = (j + 1) * n / ways - j * n / ways;
      part_keys[j].reserve(quota);
      part_payloads[j].reserve(quota);
    }
    size_t child_idx = 0;
    // First global record index belonging to the next child; n >= ways
    // (checked above) guarantees every child's cut is distinct, so a
    // single comparison per record advances the target correctly.
    size_t next_cut = ways > 1 ? n / ways : n;
    size_t streamed = 0;
    for (size_t i = lo; i < hi; ++i) {
      table->shards[i]->index.Scan(
          std::numeric_limits<K>::lowest(), std::numeric_limits<K>::max(),
          [&](const K& key, const P& payload) {
            if (streamed == next_cut && child_idx + 1 < ways) {
              ++child_idx;
              next_cut = (child_idx + 1) * n / ways;
              split_keys.push_back(key);
            }
            part_keys[child_idx].push_back(key);
            part_payloads[child_idx].push_back(payload);
            ++streamed;
          });
    }
    assert(streamed == n);
    (void)streamed;
    std::vector<std::shared_ptr<Shard>> children;
    children.reserve(ways);
    for (size_t j = 0; j < ways; ++j) {
      auto child = std::make_shared<Shard>(options_.shard_config, &epoch_);
      child->index.BulkLoad(part_keys[j].data(), part_payloads[j].data(),
                            part_keys[j].size());
      // Return each child's build arrays as soon as it is loaded, so the
      // transaction's peak extra memory is the partitions plus one
      // child — not every child at once.
      std::vector<K>().swap(part_keys[j]);
      std::vector<P>().swap(part_payloads[j]);
      children.push_back(std::move(child));
    }
    // Log: fresh child logs whose lineage names every victim (the
    // multi-parent kTopology record), opened — and directory-fsynced —
    // before the children can become reachable. On failure the
    // transaction is simply abandoned (it is an optimization, and
    // running a shard unlogged is not an option). Callers keep the
    // victim count within the record's parent cap.
    assert(parent_ids.size() <= wal::kMaxTopologyParents);
    if (wal_enabled_ && !parent_ids.empty() &&
        !AttachFreshLogs(&children, parent_ids)) {
      last_wal_error_.store(wal::WalStatus::kIoError,
                            std::memory_order_relaxed);
      return false;
    }
    // Publish: one store; readers pick the new table up immediately.
    auto* next = new Table();
    next->router = ShardRouter<K>(ShardRouter<K>::SpliceBoundaries(
        table->router.boundaries(), lo, hi, split_keys));
    next->shards.reserve(table->shards.size() - (hi - lo) + ways);
    next->shards.insert(next->shards.end(), table->shards.begin(),
                        table->shards.begin() +
                            static_cast<std::ptrdiff_t>(lo));
    next->shards.insert(next->shards.end(), children.begin(),
                        children.end());
    next->shards.insert(next->shards.end(),
                        table->shards.begin() +
                            static_cast<std::ptrdiff_t>(hi),
                        table->shards.end());
    table_.store(next, std::memory_order_seq_cst);
    // Retire + seal: victims re-route stragglers, and each victim's log
    // is sealed at the publish LSN — the drain guarantees no record
    // landed since the capture above, which is the invariant that lets
    // recovery treat "sealed log + children" as one atomic hand-off.
    size_t logged = 0;
    for (size_t i = lo; i < hi; ++i) {
      Shard* victim = table->shards[i].get();
      victim->retired.store(true, std::memory_order_seq_cst);
      if (victim->log != nullptr) {
        assert(victim->log->last_lsn() == drained_lsns[logged] &&
               "a record landed in a drained victim before its seal");
        (void)drained_lsns;
        retired_commit_wait_.Merge(victim->log->CommitWaitHistogram());
        victim->log->Seal();
        ++logged;
      }
    }
    (void)logged;
    switch (op) {
      case TopologyOp::kSplit:
        rebalances_.fetch_add(1, std::memory_order_relaxed);
        ALEX_OBS_COUNTER_INC("shard.topology_splits");
        break;
      case TopologyOp::kMerge:
        merges_.fetch_add(1, std::memory_order_relaxed);
        ALEX_OBS_COUNTER_INC("shard.topology_merges");
        break;
      case TopologyOp::kRebalance:
        ALEX_OBS_COUNTER_INC("shard.topology_rebalances");
        break;
    }
    [[maybe_unused]] const obs::EventType event =
        op == TopologyOp::kSplit   ? obs::EventType::kTopologySplit
        : op == TopologyOp::kMerge ? obs::EventType::kTopologyMerge
                                   : obs::EventType::kTopologyRebalance;
    ALEX_OBS_EVENT(event, lo, parent_ids.empty() ? 0 : parent_ids[0],
                   drained_lsns.empty() ? 0 : drained_lsns[0], hi - lo, ways);
    topology_epoch_.fetch_add(1, std::memory_order_relaxed);
    // The old table (and, once no newer table shares them, its replaced
    // shards) is freed only after every reader that could hold it
    // unpins. The gates release on scope exit, after the seal.
    epoch_.Retire(table);
    epoch_.TryReclaim();
    return true;
  }

  ShardedOptions options_;
  mutable util::EpochManager epoch_;
  // Serializes table replacement (rebalance, bulk load, save/load). Never
  // touched by point reads or writes.
  mutable std::mutex rebalance_mutex_;
  std::atomic<Table*> table_{nullptr};
  std::atomic<uint64_t> rebalances_{0};
  std::atomic<uint64_t> merges_{0};
  // Splits + merges + rebalances ever committed; checkpoints persist it
  // and LoadFrom restores it (monotone across restarts).
  std::atomic<uint64_t> topology_epoch_{0};
  // WAL configuration; all guarded by rebalance_mutex_ (every site that
  // enables logging, allocates a wal id, or checkpoints holds it).
  std::string wal_prefix_;
  wal::WalOptions wal_options_;
  bool wal_enabled_ = false;
  uint64_t next_wal_id_ = 1;
  std::atomic<wal::WalStatus> last_wal_error_{wal::WalStatus::kOk};
  // Commit-wait samples of logs sealed by topology transactions, bulk
  // loads and recoveries (their ShardLogs are dropped with their
  // tables); CommitWaitHistogram folds live logs on top.
  util::Log2Histogram retired_commit_wait_;
  // Next cold-segment id, guarded by rebalance_mutex_ (mutable: a
  // checkpoint — SaveToLocked, const — may need a fresh id to fold a
  // dirty overlay). Checkpoints persist it, LoadFrom restores it.
  mutable uint64_t next_segment_id_ = 1;
  std::atomic<uint64_t> demotions_{0};
  std::atomic<uint64_t> promotions_{0};
  std::atomic<uint64_t> compactions_{0};
  // Background tiering thread (StartTiering/StopTiering).
  std::mutex tiering_mutex_;
  std::condition_variable tiering_cv_;
  std::thread tiering_thread_;
  bool tiering_stop_ = false;
};

}  // namespace alex::shard
