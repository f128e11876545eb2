// Sharded index service layer: N independent ConcurrentAlex shards behind
// a learned router (ROADMAP "production scale"; the step past the paper's
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
//     linear-model evaluation, binary-search fallback — router.h) plus the
//     shard array. Readers pin an epoch guard (util/epoch.h), load the
//     table with one seq_cst load, route, and operate on the shard with no
//     shard-layer locking of any kind.
//
//   Writes.   Writers additionally hold the target shard's `write_gate`
//     shared for the duration of one committed operation and re-route if
//     the shard is marked retired. The gate is what lets a rebalance drain
//     a shard: writers of *other* shards never contend on it, and readers
//     never touch it. There is no global key counter: size() sums the
//     per-shard counts, so writes to disjoint shards share no cache line
//     at the shard layer, and the split skew check (which must read every
//     shard's size) is amortized to every 1024th key committed into a
//     shard.
//
//   Topology transactions.   Every topology change — a *split* (one hot
//     shard → split_ways children, triggered by the skew check or the
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
//   Scans.   A cross-shard Scan pins one table and streams the
//     overlapping shards one after another on the calling thread; shards
//     are disjoint ascending ranges, so concatenation is already sorted.
//     Same stoppable visitor and read-committed contract as
//     ConcurrentAlex::Scan.
//
//   Durability.   SaveTo quiesces writers (all gates, in shard order),
//     writes one serialization.h snapshot per shard plus a checksummed
//     manifest (manifest.h v3) holding the boundaries, router model,
//     per-shard key counts and wal lineage anchors. LoadFrom rebuilds
//     the whole table off to the side and publishes it only when every
//     shard file validated, mapping each failure to a distinct
//     core::SnapshotStatus. Recovery with a manifest is
//     *boundary-preserving* and shard-parallel: the manifest's boundary
//     array is the recovered topology, and each shard replays its own
//     snapshot + log-tail lineage independently on a small thread pool
//     (a merge child's records are range-filtered back to the shards
//     they came from) instead of funneling everything through one
//     merged map and a router refit.
//
//   Write-ahead logging.   EnableWal attaches one src/wal/ log per shard
//     and anchors it with a checkpoint. From then on every write is
//     log-before-apply under the same shared gate that already covers the
//     apply, so a checkpoint's exclusive gates see log and index in
//     lockstep. SaveTo doubles as the checkpoint: it records each log's
//     LSN in the manifest, rotates the segments, and deletes everything
//     the snapshot made redundant. LoadFrom doubles as recovery: snapshot
//     first, then the per-shard log tails replayed in wal-id order
//     (parent-before-child across shard splits — wal/wal_format.h), with
//     a torn final record truncated and every other corruption surfaced
//     as a distinct wal::WalStatus in the RecoveryReport. A shard split
//     seals the victim's log at the publish LSN (under the same
//     exclusive gate that drained its writers) and opens fresh segments
//     for the replacements. Recovery linearizes concurrent same-key
//     writes in log order, which for operations that overlapped in real
//     time may differ from apply order — either is a valid linearization
//     of the acknowledged history.
//
// Lock order: rebalance_mutex_ → write_gate(s) in ascending shard order.
// Point writes take exactly one gate shared and no mutex; reads take
// nothing. One epoch guard per operation: the shards share this layer's
// reclamation domain (the guard ConcurrentAlex pins internally is a
// reentrant no-op on ours).
#pragma once

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
#include "wal/log_reader.h"
#include "wal/log_writer.h"
#include "wal/wal_format.h"

namespace alex::shard {

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
  /// How many shards one split turns the victim into.
  size_t split_ways = 2;
  /// Merge two adjacent shards once their *combined* size falls under
  /// this floor (the inverse of the skew check: two cold shards whose
  /// union is still a small shard). 0 disables merges. Keep it at or
  /// below min_rebalance_keys so a fresh merge child cannot immediately
  /// re-trip the split trigger.
  size_t merge_threshold_keys = 0;
  /// Maximum keys sampled for the bulk-load router model.
  size_t router_sample_cap = 4096;
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
  /// Block-cache capacity in bytes for cold-segment reads (see
  /// tier/block_cache.h). Size it to the hot portion of the cold tier.
  size_t tier_cache_bytes = 16u << 20;
  /// Target cold-segment block size in bytes; the per-block key count is
  /// derived as max(64, tier_block_bytes / sizeof(record)).
  size_t tier_block_bytes = 4096;
  /// Directory/prefix where demotion writes its segment files. Empty
  /// defers to the WAL prefix; demotion fails when neither is set.
  std::string tier_prefix;
  /// TieringTick never demotes a shard holding fewer keys than this
  /// (tiny shards are not worth a segment file).
  size_t tier_min_demote_keys = 1024;
  /// TieringTick demotes a resident shard whose share of the window's
  /// traffic fell under `tier_demote_fraction` of the fair (1/n) share.
  double tier_demote_fraction = 0.1;
  /// TieringTick promotes a cold shard whose share of the window's
  /// traffic reached `tier_promote_share` times the fair share ...
  double tier_promote_share = 1.0;
  /// ... or whose delta overlay accumulated this many resident entries
  /// (a write-heavy cold shard pays double bookkeeping; bring it back).
  size_t tier_promote_delta_keys = 256;
  /// TieringTick is a no-op until the traffic window since the previous
  /// tick holds at least this many routed operations.
  uint64_t tier_min_window_ops = 1024;
  /// Configuration applied to every shard's ConcurrentAlex.
  core::Config shard_config;
};

/// A range-partitioned, learned-routed collection of ConcurrentAlex
/// shards. All methods are safe to call from any thread. Point operations
/// are linearizable; scans are read-committed (see the protocol above).
template <typename K, typename P>
class ShardedAlex {
 public:
  explicit ShardedAlex(const ShardedOptions& options = ShardedOptions())
      : options_(options), block_cache_(options.tier_cache_bytes) {
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
  /// log, so only a snapshot can anchor them); a checkpoint failure
  /// disables logging — nothing could truthfully be called durable
  /// without the anchor — and records kCheckpointFailed in
  /// last_wal_error().
  void BulkLoad(const K* keys, const P* payloads, size_t n) {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    const size_t shards =
        std::max<size_t>(1, std::min(options_.num_shards,
                                     std::max<size_t>(n, 1)));
    auto* next = new Table();
    next->router = ShardRouter<K>::FitFromSortedKeys(
        keys, n, shards, options_.router_sample_cap);
    next->shards.reserve(shards);
    for (size_t j = 0; j < shards; ++j) {
      const size_t lo = j * n / shards;
      const size_t hi = (j + 1) * n / shards;
      auto shard = std::make_shared<Shard>(options_.shard_config, &epoch_);
      shard->index.BulkLoad(keys + lo, payloads + lo, hi - lo);
      next->shards.push_back(std::move(shard));
    }
    if (wal_enabled_ && !AttachFreshLogs(&next->shards, /*parents=*/{})) {
      // Could not open log files: surface the error and stop logging
      // rather than silently running some shards unlogged.
      wal_enabled_ = false;
      last_wal_error_.store(wal::WalStatus::kIoError,
                            std::memory_order_relaxed);
      ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, 0, 0,
                     static_cast<int>(wal::WalStatus::kIoError), 0);
    }
    Table* old = table_.exchange(next, std::memory_order_seq_cst);
    util::EpochManager::Guard guard(epoch_);
    // Drain in-flight writers of every old shard and mark it retired so
    // stragglers re-route into the new table; once every gate has cycled,
    // no further commit can land in the old table. The sealed logs keep
    // the old lineage replayable until the checkpoint below supersedes
    // it.
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
    ALEX_OBS_EVENT(obs::EventType::kBulkLoad, obs::kShardAll, 0, 0, n,
                   shards);
    if (wal_enabled_ &&
        SaveToLocked(wal_prefix_) != core::SnapshotStatus::kOk) {
      // The bulk-loaded baseline now exists in no snapshot and no log;
      // continuing to log would let a recovery silently roll the index
      // back to the pre-load state while claiming the post-load writes
      // were durable. Fail closed: stop logging and surface the error.
      DetachLogs(table_.load(std::memory_order_seq_cst));
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
  /// MaybeSplit).
  bool Insert(K key, const P& payload) {
    obs::ScopedOpTimer op_timer(obs::OpType::kInsert);
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
        continue;  // raced a rebalance/bulk load: re-route
      }
      shard->traffic.fetch_add(1, std::memory_order_relaxed);
      // Log-before-apply: the record replays as insert-if-absent, so a
      // duplicate that fails below is a no-op on replay too.
      if (!LogWrite(shard, wal::WalRecordType::kInsert, key, &payload)) {
        return false;
      }
      if (shard->cold()) {
        // Cold shards absorb writes into the delta overlay; the skew
        // check is moot (tiering owns their lifecycle).
        return shard->TierInsert(key, payload);
      }
      const bool inserted = shard->index.Insert(key, payload);
      gate.unlock();
      if (!inserted) return false;
      // The shard-local commit counter makes the amortized skew check
      // deterministic: exactly one committing thread observes each
      // kSkewCheckInterval-th commit, however commits interleave.
      const uint64_t commit =
          shard->commit_count.fetch_add(1, std::memory_order_relaxed) + 1;
      MaybeSplit(table, shard, key,
                 (commit & (kSkewCheckInterval - 1)) == 0);
      return true;
    }
  }

  /// Removes `key`; false when absent. An erase that leaves the target
  /// shard (plus an adjacent neighbor) under the merge floor triggers a
  /// merge transaction on this thread before returning; like the split
  /// skew check, the check is amortized to every kSkewCheckInterval-th
  /// commit into the shard.
  bool Erase(K key) {
    obs::ScopedOpTimer op_timer(obs::OpType::kErase);
    util::EpochManager::Guard guard(epoch_);
    while (true) {
      Table* table = table_.load(std::memory_order_seq_cst);
      const size_t idx = table->router.Route(key);
      op_timer.set_shard(static_cast<uint32_t>(idx));
      Shard* shard = table->shards[idx].get();
      ALEX_OBS_TIMED_SHARED_LOCK(gate, shard->write_gate,
                                 "shard.write_gate_contended",
                                 "shard.write_gate_wait_ns");
      if (shard->retired.load(std::memory_order_seq_cst)) continue;
      shard->traffic.fetch_add(1, std::memory_order_relaxed);
      if (!LogWrite(shard, wal::WalRecordType::kErase, key, nullptr)) {
        return false;
      }
      if (shard->cold()) return shard->TierErase(key);
      const bool erased = shard->index.Erase(key);
      gate.unlock();
      if (!erased) return false;
      const uint64_t commit =
          shard->commit_count.fetch_add(1, std::memory_order_relaxed) + 1;
      MaybeMerge(key, (commit & (kSkewCheckInterval - 1)) == 0);
      return true;
    }
  }

  /// Overwrites an existing payload; false when absent.
  bool Update(K key, const P& payload) {
    obs::ScopedOpTimer op_timer(obs::OpType::kUpdate);
    util::EpochManager::Guard guard(epoch_);
    while (true) {
      Table* table = table_.load(std::memory_order_seq_cst);
      const size_t idx = table->router.Route(key);
      op_timer.set_shard(static_cast<uint32_t>(idx));
      Shard* shard = table->shards[idx].get();
      ALEX_OBS_TIMED_SHARED_LOCK(gate, shard->write_gate,
                                 "shard.write_gate_contended",
                                 "shard.write_gate_wait_ns");
      if (shard->retired.load(std::memory_order_seq_cst)) continue;
      shard->traffic.fetch_add(1, std::memory_order_relaxed);
      if (!LogWrite(shard, wal::WalRecordType::kUpdate, key, &payload)) {
        return false;
      }
      if (shard->cold()) return shard->TierUpdate(key, payload);
      return shard->index.Update(key, payload);
    }
  }

  // ---- Batched operations ----
  //
  // Each batch is sorted once (an index permutation, so callers' arrays
  // stay in caller order) and executed as one *shard run* at a time: the
  // maximal stretch of consecutive sorted keys routing to one shard.
  // Costs amortized per run instead of per key: one write-gate shared
  // lock, one WAL group-commit batch (one write(2) + at most one
  // fdatasync(2) for the whole run), and — inside the shard — one epoch
  // guard with one leaf latch per leaf run. The router is still evaluated
  // once per key (run boundaries come from the router's own shard lower
  // bounds, one comparison per key). Batches are not atomic as a unit;
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
          run_found[k] = shard->TierGet(sorted_keys[k], &run_payloads[k],
                                        &block_cache_);
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
    if (n == 0) return 0;
    obs::ScopedOpTimer op_timer(obs::OpType::kMultiInsert);
    std::vector<size_t> order;
    std::vector<K> sorted_keys;
    SortBatch(keys, n, &order, &sorted_keys);
    std::vector<P> sorted_payloads(n);
    for (size_t k = 0; k < n; ++k) sorted_payloads[k] = payloads[order[k]];
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
      if (!LogWriteBatch(shard, wal::WalRecordType::kInsert,
                         sorted_keys.data() + i, sorted_payloads.data() + i,
                         len)) {
        i = j;  // fail the run closed; later runs surface the same error
        continue;
      }
      if (shard->cold()) {
        size_t run_count = 0;
        for (size_t k = i; k < j; ++k) {
          run_ok[k] = shard->TierInsert(sorted_keys[k], sorted_payloads[k]);
          run_count += run_ok[k] ? 1 : 0;
        }
        gate.unlock();
        count += run_count;
        i = j;
        continue;  // no skew check: tiering owns cold shards
      }
      const size_t run_inserted = shard->index.MultiInsert(
          sorted_keys.data() + i, sorted_payloads.data() + i, len,
          run_ok.get() + i);
      gate.unlock();
      count += run_inserted;
      i = j;
      if (run_inserted > 0) {
        const uint64_t before = shard->commit_count.fetch_add(
            run_inserted, std::memory_order_relaxed);
        // The scalar path checks the skew on every kSkewCheckInterval-th
        // commit; a batch increment can jump the counter past the exact
        // multiple, so the tick fires when the run crossed one.
        MaybeSplit(table, shard, sorted_keys[i - 1],
                   CrossedSkewInterval(before, run_inserted));
      }
    }
    if (inserted != nullptr) {
      for (size_t k = 0; k < n; ++k) inserted[order[k]] = run_ok[k];
    }
    return count;
  }

  /// Batched Erase; `erased[i]` (when non-null, caller order) reports
  /// per-key success. Returns the number erased. One WAL group-commit
  /// batch per shard run, like MultiInsert.
  size_t MultiErase(const K* keys, size_t n, bool* erased = nullptr) {
    if (n == 0) return 0;
    obs::ScopedOpTimer op_timer(obs::OpType::kMultiErase);
    std::vector<size_t> order;
    std::vector<K> sorted_keys;
    SortBatch(keys, n, &order, &sorted_keys);
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
      if (shard->retired.load(std::memory_order_seq_cst)) continue;
      const size_t len = j - i;
      shard->traffic.fetch_add(len, std::memory_order_relaxed);
      if (!LogWriteBatch(shard, wal::WalRecordType::kErase,
                         sorted_keys.data() + i, nullptr, len)) {
        i = j;
        continue;
      }
      if (shard->cold()) {
        size_t run_count = 0;
        for (size_t k = i; k < j; ++k) {
          run_ok[k] = shard->TierErase(sorted_keys[k]);
          run_count += run_ok[k] ? 1 : 0;
        }
        gate.unlock();
        count += run_count;
        i = j;
        continue;
      }
      const size_t run_erased = shard->index.MultiErase(
          sorted_keys.data() + i, len, run_ok.get() + i);
      gate.unlock();
      count += run_erased;
      i = j;
      if (run_erased > 0) {
        const uint64_t before = shard->commit_count.fetch_add(
            run_erased, std::memory_order_relaxed);
        MaybeMerge(sorted_keys[i - 1],
                   CrossedSkewInterval(before, run_erased));
      }
    }
    if (erased != nullptr) {
      for (size_t k = 0; k < n; ++k) erased[order[k]] = run_ok[k];
    }
    return count;
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
    return shard->TierGet(key, out, &block_cache_);
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
    return shard->TierContains(key, &block_cache_);
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
  /// continue. Returns false when the range maps to a single shard, a
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
    return ExecuteTopologyTxn(TopologyOp::kRebalance, table, lo, hi,
                              hi - lo);
  }

  // ---- Tiered storage ----
  //
  // A shard is either *resident* (a ConcurrentAlex, the default) or
  // *cold*: its contents sealed into one checksummed, mmap-backed,
  // read-only segment (tier/segment.h) plus a small resident delta
  // overlay for post-demotion writes. Cold reads route through a
  // sharded-LRU block cache (tier/block_cache.h). Demotion, promotion
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
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    return DemoteShardLocked(idx);
  }

  /// Promotes cold shard `idx` back to a resident ConcurrentAlex built
  /// from the merged segment+overlay stream. kOk when already resident.
  core::SnapshotStatus PromoteShard(size_t idx) {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    return PromoteShardLocked(idx);
  }

  /// Compacts cold shard `idx`: folds its delta overlay into a fresh
  /// segment (dropping overwritten and erased keys), emptying the
  /// overlay. A clean overlay is a no-op. A shard whose live count
  /// dropped to zero is promoted to an empty resident shard instead
  /// (segments cannot be empty).
  core::SnapshotStatus CompactShard(size_t idx) {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    return CompactShardLocked(idx);
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
      Table* table = table_.load(std::memory_order_seq_cst);
      if (i >= table->shards.size()) break;
      Shard* shard = table->shards[i].get();
      if (!shard->cold() || shard->DeltaClean()) continue;
      if (CompactShardLocked(i) == core::SnapshotStatus::kOk) ++ran;
    }
    return ran;
  }

  /// One pass of the traffic-driven tiering policy. Reads each shard's
  /// routed-operation count since the previous tick; when the window
  /// holds at least options.tier_min_window_ops, demotes resident
  /// shards whose share fell under tier_demote_fraction of fair (and
  /// that hold tier_min_demote_keys keys), and promotes cold shards
  /// whose share reached tier_promote_share of fair or whose overlay
  /// grew past tier_promote_delta_keys entries. Returns the number of
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
            fair * options_.tier_promote_share;
        const bool overlay_heavy =
            shard->DeltaEntries() >= options_.tier_promote_delta_keys;
        if ((hot_again || overlay_heavy) &&
            PromoteShardLocked(i) == core::SnapshotStatus::kOk) {
          ++transitions;
        }
      } else {
        const bool idle = static_cast<double>(window[i]) <=
                          fair * options_.tier_demote_fraction;
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
    Table* table = table_.load(std::memory_order_seq_cst);
    uint64_t bytes = 0;
    for (const auto& shard : table->shards) {
      if (shard->cold()) bytes += shard->segment->file_bytes();
    }
    return bytes;
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

  /// The cold-tier block cache (stats for benches/tests).
  const tier::BlockCache& block_cache() const { return block_cache_; }

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
        // per-block checksums. The mapped data blocks live on disk (and
        // transiently in the block cache, accounted by its own stats).
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

  /// Path of the manifest / per-shard snapshot files for `prefix`. Shard
  /// files are stamped with the manifest's generation so a save never
  /// touches the files the committed manifest references.
  static std::string ManifestPath(const std::string& prefix) {
    return prefix + ".manifest";
  }
  static std::string ShardPath(const std::string& prefix,
                               uint64_t generation, size_t shard) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), ".g%llu.shard-%04zu",
                  static_cast<unsigned long long>(generation), shard);
    return prefix + buf;
  }

  /// Writes one snapshot file per shard plus the manifest. Quiesces
  /// writers for the duration (all gates, ascending shard order), so the
  /// snapshot is a fully consistent point-in-time image; readers are
  /// never blocked. The save is all-or-nothing with respect to a
  /// previous snapshot at the same prefix: shard files are written under
  /// a fresh generation stamp, the manifest is committed with an atomic
  /// rename, and only then is the previous generation's data removed —
  /// a failure at any step leaves the old snapshot loadable.
  ///
  /// With the WAL enabled (and `prefix` equal to the WAL prefix) this is
  /// the *checkpoint*: the manifest records each shard log's LSN, the
  /// logs rotate onto fresh segments, and every segment the snapshot
  /// made redundant is deleted. Saving to a different prefix is a plain
  /// export and leaves the logs alone.
  core::SnapshotStatus SaveTo(const std::string& prefix) const {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    return SaveToLocked(prefix);
  }

  /// Replaces the contents from a SaveTo image — and, when WAL segments
  /// exist at the prefix, *recovers*: the snapshot is loaded first, then
  /// each log's tail (records past its checkpoint LSN) is replayed in
  /// wal-id order. The replacement table is built entirely off to the
  /// side and published only when the manifest, every shard file, and
  /// every log segment validated; on any non-kOk status the live index
  /// is untouched. A shard file the manifest references but the
  /// filesystem lacks yields kMissingShard; a shard file whose key count
  /// disagrees with the manifest, or whose keys fall outside the shard's
  /// boundary range (a swapped or foreign file), yields
  /// kManifestMismatch; an unreplayable log yields kWalReplayFailed with
  /// the distinct wal::WalStatus (and, on success, replay counts) in
  /// `*report`. A torn final record is tolerated: replay truncates it
  /// away and loses at most that one unacknowledged write.
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
    std::vector<std::unique_lock<std::shared_mutex>> quiesce;
    if (was_logging) {
      Table* live = table_.load(std::memory_order_seq_cst);
      quiesce.reserve(live->shards.size());
      for (const auto& shard : live->shards) {
        quiesce.emplace_back(shard->write_gate);
      }
    }
    ShardManifest<K> manifest;
    bool have_manifest = false;
    {
      // Distinguish "no snapshot was ever committed" (recovery can still
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
    const std::vector<wal::WalSegmentFile> segments =
        wal::ListWalSegments(prefix);
    if (!have_manifest && segments.empty()) {
      return core::SnapshotStatus::kIoError;  // nothing at this prefix
    }

    // Load and validate every snapshot shard file; cold shards have a
    // segment file instead, opened (mmap) and fully verified here.
    std::vector<std::vector<K>> shard_keys(manifest.num_shards());
    std::vector<std::vector<P>> shard_payloads(manifest.num_shards());
    std::vector<std::shared_ptr<tier::ColdSegment<K, P>>> cold_segments(
        manifest.num_shards());
    for (size_t i = 0; i < manifest.num_shards(); ++i) {
      if (manifest.IsCold(i)) {
        const std::string seg_path =
            tier::SegmentPath(prefix, manifest.segment_ids[i]);
        auto segment = std::make_shared<tier::ColdSegment<K, P>>();
        const core::SnapshotStatus status =
            segment->Open(seg_path, manifest.segment_ids[i]);
        if (status == core::SnapshotStatus::kIoError) {
          std::FILE* probe = std::fopen(seg_path.c_str(), "rb");
          if (probe != nullptr) {
            std::fclose(probe);
            return core::SnapshotStatus::kIoError;
          }
          return errno == ENOENT ? core::SnapshotStatus::kMissingShard
                                 : core::SnapshotStatus::kIoError;
        }
        if (status != core::SnapshotStatus::kOk) return status;
        // Open validates structure + metadata checksums; recovery also
        // pays one full data pass so a flipped block byte surfaces now,
        // not on some future read.
        if (segment->VerifyAllBlocks() != core::SnapshotStatus::kOk) {
          return core::SnapshotStatus::kSegmentCorrupt;
        }
        if (segment->num_keys() != manifest.shard_keys[i]) {
          return core::SnapshotStatus::kManifestMismatch;
        }
        if (i > 0 && segment->min_key() < manifest.boundaries[i - 1]) {
          return core::SnapshotStatus::kManifestMismatch;
        }
        if (i + 1 < manifest.num_shards() &&
            !(segment->max_key() < manifest.boundaries[i])) {
          return core::SnapshotStatus::kManifestMismatch;
        }
        cold_segments[i] = std::move(segment);
        continue;
      }
      std::vector<K>& keys = shard_keys[i];
      std::vector<P>& payloads = shard_payloads[i];
      const std::string shard_path =
          ShardPath(prefix, manifest.generation, i);
      core::SnapshotStatus status =
          core::ReadSnapshotFile<K, P>(shard_path, &keys, &payloads);
      if (status == core::SnapshotStatus::kIoError) {
        // Only a file that is actually gone is "missing"; a file that
        // exists but cannot be opened or read (permissions, disk) stays
        // kIoError — keep the statuses honest.
        std::FILE* probe = std::fopen(shard_path.c_str(), "rb");
        if (probe != nullptr) {
          std::fclose(probe);
          return core::SnapshotStatus::kIoError;
        }
        return errno == ENOENT ? core::SnapshotStatus::kMissingShard
                               : core::SnapshotStatus::kIoError;
      }
      if (status != core::SnapshotStatus::kOk) return status;
      if (keys.size() != manifest.shard_keys[i]) {
        return core::SnapshotStatus::kManifestMismatch;
      }
      // Snapshots are sorted, so first/last bound the whole file: every
      // key must lie inside [boundaries[i-1], boundaries[i]). Catches
      // shard files that were swapped or replaced on disk even when the
      // key counts happen to agree.
      if (!keys.empty()) {
        if (i > 0 && keys.front() < manifest.boundaries[i - 1]) {
          return core::SnapshotStatus::kManifestMismatch;
        }
        if (i + 1 < manifest.num_shards() &&
            !(keys.back() < manifest.boundaries[i])) {
          return core::SnapshotStatus::kManifestMismatch;
        }
      }
    }

    std::unique_ptr<Table> next;
    uint64_t floor_wal_id = manifest.next_wal_id;
    [[maybe_unused]] uint64_t journal_replayed = 0;  // kRecovery event
    if (segments.empty()) {
      // Pure snapshot load: rebuild the saved table exactly (same
      // shards, boundaries, and router model).
      next = std::make_unique<Table>();
      next->router = ShardRouter<K>(manifest.boundaries,
                                    manifest.router_model);
      next->shards.reserve(manifest.num_shards());
      for (size_t i = 0; i < manifest.num_shards(); ++i) {
        auto shard =
            std::make_shared<Shard>(options_.shard_config, &epoch_);
        if (manifest.IsCold(i)) {
          shard->cold_live.store(cold_segments[i]->num_keys(),
                                 std::memory_order_relaxed);
          shard->segment = std::move(cold_segments[i]);
        } else {
          shard->index.BulkLoad(shard_keys[i].data(),
                                shard_payloads[i].data(),
                                shard_keys[i].size());
        }
        next->shards.push_back(std::move(shard));
      }
    } else if (!have_manifest) {
      // Logs-alone recovery: no checkpoint ever committed, so there is
      // no topology to preserve — merge everything into one logical map
      // and partition fresh. Ascending wal-id order is parent-before-
      // child across topology changes, the only cross-log ordering
      // replay needs.
      std::map<K, P> state;
      wal::RecoveryReport local_report;
      wal::RecoveryReport* rep =
          report != nullptr ? report : &local_report;
      // Never physically truncate while the segments might belong to
      // this index's own live logs (their writers hold fd offsets past
      // the truncation point).
      const wal::WalStatus wal_status = wal::ReplayWal<K, P>(
          prefix, /*checkpoint_lsns=*/{}, &state, rep,
          /*truncate_torn_tail=*/!was_logging,
          /*require_known_roots=*/false);
      if (wal_status != wal::WalStatus::kOk) {
        return core::SnapshotStatus::kWalReplayFailed;
      }
      floor_wal_id = std::max(floor_wal_id, rep->max_wal_id + 1);
      journal_replayed = rep->records_replayed;

      std::vector<K> keys;
      std::vector<P> payloads;
      keys.reserve(state.size());
      payloads.reserve(state.size());
      for (const auto& [key, payload] : state) {
        keys.push_back(key);
        payloads.push_back(payload);
      }
      const size_t shards = std::max<size_t>(
          1, std::min(options_.num_shards,
                      std::max<size_t>(keys.size(), 1)));
      next = std::make_unique<Table>();
      next->router = ShardRouter<K>::FitFromSortedKeys(
          keys.data(), keys.size(), shards, options_.router_sample_cap);
      next->shards.reserve(shards);
      for (size_t j = 0; j < shards; ++j) {
        const size_t lo = j * keys.size() / shards;
        const size_t hi = (j + 1) * keys.size() / shards;
        auto shard =
            std::make_shared<Shard>(options_.shard_config, &epoch_);
        shard->index.BulkLoad(keys.data() + lo, payloads.data() + lo,
                              hi - lo);
        next->shards.push_back(std::move(shard));
      }
    } else {
      // Boundary-preserving recovery: the manifest's boundary array IS
      // the recovered topology, and each shard replays independently.
      wal::RecoveryReport local_report;
      wal::RecoveryReport* rep =
          report != nullptr ? report : &local_report;
      const core::SnapshotStatus status = RecoverBoundaryPreserving(
          prefix, manifest, shard_keys, shard_payloads, &cold_segments,
          was_logging, rep, &next);
      if (status != core::SnapshotStatus::kOk) return status;
      floor_wal_id = std::max(floor_wal_id, rep->max_wal_id + 1);
      journal_replayed = rep->records_replayed;
    }

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
      std::string dir, base;
      wal::SplitPrefixPath(prefix, &dir, &base);
      std::vector<std::string> names;
      if (wal::ListDirectory(dir, &names)) {
        for (const std::string& name : names) {
          uint64_t id = 0;
          bool is_tmp = false;
          if (tier::ParseSegmentFileName(name, base, &id, &is_tmp)) {
            floor_segment_id = std::max(floor_segment_id, id + 1);
          }
        }
      }
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
    Table* old = table_.exchange(next.release(),
                                 std::memory_order_seq_cst);
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
    ALEX_OBS_EVENT(obs::EventType::kRecovery, obs::kShardAll, 0, 0,
                   journal_replayed, recovered_shards);
    return core::SnapshotStatus::kOk;
  }

  // ---- Write-ahead logging ----

  /// Starts logging every write to per-shard logs at `prefix` and
  /// anchors them with an initial checkpoint (so recovery always has a
  /// snapshot to replay onto). Typical lifecycles:
  ///
  ///   fresh:    ShardedAlex idx; idx.BulkLoad(...); idx.EnableWal(p);
  ///   restart:  ShardedAlex idx; idx.LoadFrom(p);   idx.EnableWal(p);
  ///
  /// The anchor checkpoint also sweeps any segments a previous
  /// incarnation left at the prefix, so enable-after-recover retires the
  /// very logs that were just replayed. Fails with kAlreadyEnabled when
  /// logging is already on, kIoError when a log file cannot be opened,
  /// and kCheckpointFailed when the anchor snapshot cannot commit (in
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
    if (!AttachFreshLogs(&table->shards, /*parents=*/{})) {
      DetachLogs(table);
      ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, 0, 0,
                     static_cast<int>(wal::WalStatus::kIoError), 0);
      return wal::WalStatus::kIoError;
    }
    wal_enabled_ = true;
    if (SaveToLocked(prefix) != core::SnapshotStatus::kOk) {
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
    // through the block cache. `segment` is set once when the cold
    // replacement shard is built and never reassigned, so the lock-free
    // read path can test cold() with no synchronization beyond the
    // table load that published the shard.
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

    uint64_t TierSize() const {
      return cold() ? cold_live.load(std::memory_order_relaxed)
                    : index.size();
    }

    /// Segment read below the overlay: through the block cache when one
    /// is given (pinned copy + in-block model search), straight off the
    /// mapping otherwise. A block whose cached load fails (checksum)
    /// falls back to the raw mapping — the segment was fully verified
    /// when it was opened.
    bool SegmentGet(const K& key, P* out, tier::BlockCache* cache) const {
      if (key < segment->min_key() || segment->max_key() < key) {
        return false;
      }
      if (cache == nullptr) return segment->Get(key, out);
      const size_t b = segment->BlockOfKey(key);
      tier::BlockCache::Handle h = cache->GetOrLoad(
          segment->id(), b, [&](std::vector<uint8_t>* bytes) {
            return segment->LoadBlock(b, bytes) ==
                   core::SnapshotStatus::kOk;
          });
      if (!h.valid()) return segment->Get(key, out);
      return tier::ColdSegment<K, P>::SearchBlock(
          h.data(), segment->BlockKeys(b), key, out);
    }

    bool TierGet(const K& key, P* out, tier::BlockCache* cache) const {
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
      return SegmentGet(key, out, cache);
    }

    bool TierContains(const K& key, tier::BlockCache* cache) const {
      P ignored;
      return TierGet(key, &ignored, cache);
    }

    // Cold-shard writes mutate only the overlay, under its exclusive
    // lock; callers hold the shard's write_gate shared and have already
    // logged the record, exactly like the resident path. Segment
    // membership checks read the raw mapping (no cache pollution).

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

    /// Merged scan of a cold shard over [lo, hi]: the overlay slice is
    /// snapshotted under the shared lock (so the segment stream — which
    /// reads the mapping, not the cache — never runs under it), then
    /// merge-joined with the segment in ascending key order. Visitor and
    /// return value as in ConcurrentAlex::Scan.
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

    bool DeltaClean() const {
      std::shared_lock<std::shared_mutex> lock(delta_mutex);
      return delta.empty();
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

  // ---- WAL plumbing ----

  /// Logs one write (no-op while the WAL is off). Called with the
  /// shard's gate held shared, which is what orders it against
  /// checkpoints: a checkpoint's exclusive gate waits out the whole
  /// log+apply pair. False = the record could not be committed; the
  /// caller must fail the operation (fail closed, never apply an
  /// unlogged write).
  bool LogWrite(Shard* shard, wal::WalRecordType type, const K& key,
                const P* payload) {
    if (shard->log == nullptr) return true;
    // The log itself feeds the op-context's wal_wait_ns from the commit
    // wait it already measures — no extra clock reads here.
    const wal::WalStatus status = shard->log->Log(type, key, payload);
    if (status == wal::WalStatus::kOk) return true;
    wal::WalStatus expected = wal::WalStatus::kOk;
    last_wal_error_.compare_exchange_strong(expected, status,
                                            std::memory_order_relaxed);
    ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll,
                   shard->log->wal_id(), shard->log->last_lsn(),
                   static_cast<int>(status), 0);
    return false;
  }

  /// Batched LogWrite: the whole shard run group-commits as one WAL
  /// batch (ShardLog::LogBatch). Same fail-closed contract as LogWrite,
  /// applied to the run as a unit.
  bool LogWriteBatch(Shard* shard, wal::WalRecordType type, const K* keys,
                     const P* payloads, size_t n) {
    if (shard->log == nullptr) return true;
    const wal::WalStatus status =
        shard->log->LogBatch(type, keys, payloads, n);
    if (status == wal::WalStatus::kOk) return true;
    wal::WalStatus expected = wal::WalStatus::kOk;
    last_wal_error_.compare_exchange_strong(expected, status,
                                            std::memory_order_relaxed);
    ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll,
                   shard->log->wal_id(), shard->log->last_lsn(),
                   static_cast<int>(status), 0);
    return false;
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

  /// True when (before, before + delta] contains a multiple of
  /// kSkewCheckInterval — the batch analogue of the scalar path's
  /// `commit % kSkewCheckInterval == 0` tick, which a batched counter
  /// increment could otherwise jump past.
  static bool CrossedSkewInterval(uint64_t before, uint64_t delta) {
    return before / kSkewCheckInterval !=
           (before + delta) / kSkewCheckInterval;
  }

  /// Opens one fresh log (new wal id, seq 1, LSN 0) per shard and
  /// attaches it under the shard's exclusive gate. A non-empty
  /// `parents` list makes these topology children: the segment header
  /// names the first parent and the log's first record is a kTopology
  /// record listing all of them, fdatasync-durable before the child can
  /// acknowledge data. On any failure every log created here is removed
  /// again and false is returned. Caller holds rebalance_mutex_ (which
  /// guards next_wal_id_).
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
      std::unique_lock<std::shared_mutex> gate((*shards)[i]->write_gate);
      (*shards)[i]->log = std::move(logs[i]);
    }
    return true;
  }

  void DetachLogs(Table* table) {
    for (const auto& shard : table->shards) {
      std::unique_lock<std::shared_mutex> gate(shard->write_gate);
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

  /// Runs fn(i) for i in [0, n) on a small thread pool (the per-shard
  /// recovery replay is embarrassingly parallel: distinct shards build
  /// distinct state). The pool itself lives in util::ParallelFor — the
  /// same pool the scan engine fans out on — with recovery's width policy
  /// applied here: recovery_threads, clamped to the hardware concurrency
  /// (replay is CPU-bound; oversubscription only adds contention).
  template <typename Fn>
  void ParallelOverShards(size_t n, Fn&& fn) const {
    size_t workers = std::max<size_t>(1, options_.recovery_threads);
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0) workers = std::min<size_t>(workers, hw);
    util::ParallelFor(n, workers, std::forward<Fn>(fn));
  }

  /// Rebuilds the table with the manifest's exact boundary array and
  /// router model, each shard recovered independently: its snapshot
  /// contents plus every log lineage rooted at its checkpoint anchor,
  /// replayed in ascending wal-id order. A topology child's records are
  /// range-filtered back to the manifest shards its parents anchor (a
  /// merge child spans several; each key's full history threads through
  /// logs of ascending id, so the filtered per-shard order is the true
  /// per-key order). Shards replay in parallel on a small thread pool —
  /// recovery is shard-parallel by construction because no two shards
  /// share mutable state. Fills one ShardReplayStats per shard in
  /// `rep->shards`.
  core::SnapshotStatus RecoverBoundaryPreserving(
      const std::string& prefix, const ShardManifest<K>& manifest,
      const std::vector<std::vector<K>>& shard_keys,
      const std::vector<std::vector<P>>& shard_payloads,
      std::vector<std::shared_ptr<tier::ColdSegment<K, P>>>* cold_segments,
      bool was_logging, wal::RecoveryReport* rep,
      std::unique_ptr<Table>* out) {
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
        /*truncate_torn_tail=*/!was_logging);
    if (ws == wal::WalStatus::kOk) {
      ws = wal::AnchorLineages(&lineages, checkpoints,
                               /*require_known_roots=*/true, rep);
    }
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

    const size_t n = manifest.num_shards();
    auto next = std::make_unique<Table>();
    next->router =
        ShardRouter<K>(manifest.boundaries, manifest.router_model);
    next->shards.resize(n);
    rep->shards.assign(n, wal::ShardReplayStats{});
    Table* next_raw = next.get();
    // Per-shard replay, in parallel: workers touch disjoint slots of
    // next->shards and rep->shards.
    ParallelOverShards(n, [&](size_t i) {
      wal::ShardReplayStats& stats = (*rep).shards[i];
      stats.shard = i;
      stats.wal_id = manifest.wal_ids.size() > i ? manifest.wal_ids[i] : 0;
      if (manifest.IsCold(i)) {
        // A cold shard recovers as exactly the form it runs in: the
        // verified segment plus a delta overlay rebuilt from the log
        // tail (the records past its checkpoint LSN). TierInsert/
        // TierErase/TierUpdate are ApplyWalRecord's semantics over the
        // overlay, so the merged view equals the resident replay.
        auto shard =
            std::make_shared<Shard>(options_.shard_config, &epoch_);
        shard->cold_live.store((*cold_segments)[i]->num_keys(),
                               std::memory_order_relaxed);
        shard->segment = std::move((*cold_segments)[i]);
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
            switch (rec.type) {
              case wal::WalRecordType::kInsert:
                shard->TierInsert(rec.key, rec.payload);
                break;
              case wal::WalRecordType::kUpdate:
                shard->TierUpdate(rec.key, rec.payload);
                break;
              case wal::WalRecordType::kErase:
                shard->TierErase(rec.key);
                break;
              default:
                break;
            }
            ++stats.records_replayed;
          }
        }
        next_raw->shards[i] = std::move(shard);
        return;
      }
      std::map<K, P> state;
      for (size_t j = 0; j < shard_keys[i].size(); ++j) {
        // Snapshot keys arrive sorted, so end() is always the right
        // hint: O(1) amortized per key.
        state.emplace_hint(state.end(), shard_keys[i][j],
                           shard_payloads[i][j]);
      }
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
          wal::ApplyWalRecord(rec, &state);
          ++stats.records_replayed;
        }
      }
      std::vector<K> keys;
      std::vector<P> payloads;
      keys.reserve(state.size());
      payloads.reserve(state.size());
      for (const auto& [key, payload] : state) {
        keys.push_back(key);
        payloads.push_back(payload);
      }
      auto shard = std::make_shared<Shard>(options_.shard_config, &epoch_);
      shard->index.BulkLoad(keys.data(), payloads.data(), keys.size());
      next_raw->shards[i] = std::move(shard);
    });
    for (const wal::ShardReplayStats& stats : rep->shards) {
      rep->records_replayed += stats.records_replayed;
      rep->records_skipped += stats.records_skipped;
    }
    *out = std::move(next);
    return core::SnapshotStatus::kOk;
  }

  /// SaveTo minus the rebalance lock (BulkLoad and EnableWal checkpoint
  /// while already holding it). See SaveTo for the contract.
  core::SnapshotStatus SaveToLocked(const std::string& prefix) const {
    util::EpochManager::Guard guard(epoch_);
    // rebalance_mutex_ (held by the caller) excludes table replacement,
    // so this table stays current for the whole save.
    Table* table = table_.load(std::memory_order_seq_cst);
    std::vector<std::unique_lock<std::shared_mutex>> gates;
    gates.reserve(table->shards.size());
    for (const auto& shard : table->shards) {
      gates.emplace_back(shard->write_gate);
    }
    const bool wal_checkpoint = wal_enabled_ && prefix == wal_prefix_;
    // A committed snapshot at this prefix determines the previous
    // generation (for post-commit cleanup) and the next stamp.
    ShardManifest<K> previous;
    const bool had_previous =
        ReadManifest<K>(ManifestPath(prefix), &previous) ==
        core::SnapshotStatus::kOk;
    ShardManifest<K> manifest;
    manifest.generation = had_previous ? previous.generation + 1 : 1;
    manifest.boundaries = table->router.boundaries();
    manifest.router_model = table->router.model();
    manifest.next_wal_id = wal_checkpoint ? next_wal_id_ : 0;
    manifest.topology_epoch =
        topology_epoch_.load(std::memory_order_relaxed);
    manifest.shard_keys.reserve(table->shards.size());
    for (size_t i = 0; i < table->shards.size(); ++i) {
      Shard* shard = table->shards[i].get();
      uint64_t tier_tag = internal::kTierResident;
      uint64_t segment_id = 0;
      if (!shard->cold()) {
        const std::string shard_path =
            ShardPath(prefix, manifest.generation, i);
        const core::SnapshotStatus status =
            shard->index.SaveToFile(shard_path);
        if (status != core::SnapshotStatus::kOk) return status;
        // Durable before the manifest can reference it (and before the
        // WAL segments it supersedes are deleted below).
        if (!wal::SyncPath(shard_path)) {
          return core::SnapshotStatus::kIoError;
        }
      } else if (shard->DeltaClean() &&
                 shard->segment->path() ==
                     tier::SegmentPath(prefix, shard->segment->id())) {
        // Clean overlay, segment already durable at this prefix (the
        // demotion/compaction that built it committed it): reference it
        // as-is — the checkpoint writes zero bytes for this shard.
        tier_tag = internal::kTierCold;
        segment_id = shard->segment->id();
      } else {
        // Dirty overlay (or an export to a foreign prefix): fold the
        // merged stream into a fresh segment at `prefix`. The live
        // shard keeps its current segment+overlay; only the manifest
        // references the folded copy.
        std::vector<K> keys;
        std::vector<P> payloads;
        DrainShard(shard, &keys, &payloads);
        if (keys.empty()) {
          // Fully erased: segments cannot be empty, so this shard
          // checkpoints as an empty resident snapshot.
          const std::string shard_path =
              ShardPath(prefix, manifest.generation, i);
          const core::SnapshotStatus status =
              core::WriteSnapshotFile<K, P>(shard_path, nullptr, nullptr,
                                            0);
          if (status != core::SnapshotStatus::kOk) return status;
          if (!wal::SyncPath(shard_path)) {
            return core::SnapshotStatus::kIoError;
          }
        } else {
          std::shared_ptr<tier::ColdSegment<K, P>> folded;
          const uint64_t seg_id = next_segment_id_++;
          const core::SnapshotStatus status =
              WriteAndOpenSegment(prefix, seg_id, keys.data(),
                                  payloads.data(), keys.size(), &folded);
          if (status != core::SnapshotStatus::kOk) return status;
          tier_tag = internal::kTierCold;
          segment_id = seg_id;
        }
      }
      manifest.shard_keys.push_back(shard->TierSize());
      manifest.tier_tags.push_back(tier_tag);
      manifest.segment_ids.push_back(segment_id);
      // With the gates held, log and index are in lockstep: this
      // snapshot holds exactly the effects of records up to last_lsn().
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
    // Commit: write the manifest beside its final name, then rename over
    // it (atomic replace on POSIX).
    const std::string tmp = ManifestPath(prefix) + ".tmp";
    const core::SnapshotStatus status = WriteManifest(tmp, manifest);
    if (status != core::SnapshotStatus::kOk) return status;
    if (!wal::SyncPath(tmp)) {
      std::remove(tmp.c_str());
      return core::SnapshotStatus::kIoError;
    }
    if (std::rename(tmp.c_str(), ManifestPath(prefix).c_str()) != 0) {
      std::remove(tmp.c_str());
      return core::SnapshotStatus::kIoError;
    }
    // Persist the rename itself: only now is the checkpoint durably
    // committed and the cleanup below allowed to destroy what it
    // superseded.
    {
      std::string dir, base;
      wal::SplitPrefixPath(prefix, &dir, &base);
      if (!wal::SyncPath(dir)) return core::SnapshotStatus::kIoError;
    }
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
    // Post-commit, best-effort cleanup: the superseded generation's
    // shard files, any strays from crashed saves (other generations, or
    // same-generation indexes past the shard count), and — after a
    // checkpoint rotation — every WAL segment the snapshot covers.
    if (had_previous) {
      for (size_t i = 0; i < previous.num_shards(); ++i) {
        std::remove(
            ShardPath(prefix, previous.generation, i).c_str());
      }
    }
    SweepStaleSnapshots(prefix, manifest.generation,
                        table->shards.size());
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
      // *from LSN 0 over this newer snapshot* at the next load. They are
      // superseded by the committed snapshot: remove them all. Skipped
      // while logging is live: `prefix` could then be a spelled-
      // differently alias of wal_prefix_ (./db vs db), and sweeping
      // would unlink the live logs' current segments. (Recovery guards
      // the leftover-segment case anyway: with a manifest, an
      // unanchored lineage never replays.)
      SweepStaleWalSegments(prefix, /*table=*/nullptr);
    }
    return core::SnapshotStatus::kOk;
  }

  /// Parses `<base>.g<gen>.shard-<idx>` (the ShardPath format). Returns
  /// false for any other name.
  static bool ParseShardFileName(const std::string& name,
                                 const std::string& base, uint64_t* gen,
                                 uint64_t* idx) {
    const std::string marker = base + ".g";
    if (name.size() <= marker.size() ||
        name.compare(0, marker.size(), marker) != 0) {
      return false;
    }
    unsigned long long g = 0, i = 0;
    int consumed = 0;
    const char* tail = name.c_str() + marker.size();
    if (std::sscanf(tail, "%llu.shard-%llu%n", &g, &i, &consumed) != 2 ||
        tail[consumed] != '\0') {
      return false;
    }
    *gen = g;
    *idx = i;
    return true;
  }

  /// Removes every shard snapshot file at the prefix that the committed
  /// manifest does not reference: other generations (crashed saves,
  /// superseded snapshots) and same-generation strays past the shard
  /// count (a crashed wider save reusing the generation number).
  void SweepStaleSnapshots(const std::string& prefix, uint64_t generation,
                           size_t num_shards) const {
    std::string dir, base;
    wal::SplitPrefixPath(prefix, &dir, &base);
    std::vector<std::string> names;
    if (!wal::ListDirectory(dir, &names)) return;
    for (const std::string& name : names) {
      uint64_t gen = 0, idx = 0;
      if (ParseShardFileName(name, base, &gen, &idx) &&
          (gen != generation || idx >= num_shards)) {
        std::remove((dir + "/" + name).c_str());
      }
    }
  }

  /// Removes every WAL segment at the prefix that is not some live
  /// shard's *current* segment (all of them when `table` is null — a
  /// save without a checkpoint). Only called after a manifest commit,
  /// when the snapshot has made the swept segments (rotated-out seqs,
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

  /// Where demotion writes segment files.
  std::string TierPrefix() const {
    return options_.tier_prefix.empty() ? wal_prefix_
                                        : options_.tier_prefix;
  }

  /// Keys per cold-segment block, from the configured byte target.
  size_t KeysPerBlock() const {
    return std::max<size_t>(
        64, options_.tier_block_bytes / (sizeof(K) + sizeof(P)));
  }

  void UpdateColdBytesGauge(const Table* table) const {
    [[maybe_unused]] uint64_t bytes = 0;
    for (const auto& shard : table->shards) {
      if (shard->cold()) bytes += shard->segment->file_bytes();
    }
    ALEX_OBS_GAUGE_SET("tier.cold_bytes", static_cast<double>(bytes));
  }

  /// Writes `n` records as segment `id` at `prefix`: staged under a
  /// .tmp name, fsynced, renamed into place, directory-fsynced — the
  /// same commit discipline as the manifest. On success opens the
  /// segment and returns it through `*out`.
  core::SnapshotStatus WriteAndOpenSegment(
      const std::string& prefix, uint64_t id, const K* keys,
      const P* payloads, size_t n,
      std::shared_ptr<tier::ColdSegment<K, P>>* out) const {
    const std::string path = tier::SegmentPath(prefix, id);
    const std::string tmp = path + ".tmp";
    core::SnapshotStatus status =
        tier::WriteSegmentFile<K, P>(tmp, keys, payloads, n,
                                     KeysPerBlock());
    if (status != core::SnapshotStatus::kOk) return status;
    if (!wal::SyncPath(tmp)) {
      std::remove(tmp.c_str());
      return core::SnapshotStatus::kIoError;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      return core::SnapshotStatus::kIoError;
    }
    {
      std::string dir, base;
      wal::SplitPrefixPath(prefix, &dir, &base);
      if (!wal::SyncPath(dir)) return core::SnapshotStatus::kIoError;
    }
    auto segment = std::make_shared<tier::ColdSegment<K, P>>();
    status = segment->Open(path, id);
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
    UpdateColdBytesGauge(next);
  }

  core::SnapshotStatus DemoteShardLocked(size_t idx) {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    if (idx >= table->shards.size()) {
      return core::SnapshotStatus::kIoError;
    }
    Shard* victim = table->shards[idx].get();
    if (victim->cold()) return core::SnapshotStatus::kOk;
    const std::string prefix = TierPrefix();
    if (prefix.empty()) return core::SnapshotStatus::kIoError;
    std::unique_lock<std::shared_mutex> gate(victim->write_gate);
    std::vector<K> keys;
    std::vector<P> payloads;
    DrainShard(victim, &keys, &payloads);
    const size_t n = keys.size();
    if (n == 0) return core::SnapshotStatus::kIoError;  // nothing to seal
    const uint64_t seg_id = next_segment_id_++;
    std::shared_ptr<tier::ColdSegment<K, P>> segment;
    const core::SnapshotStatus status = WriteAndOpenSegment(
        prefix, seg_id, keys.data(), payloads.data(), n, &segment);
    if (status != core::SnapshotStatus::kOk) return status;
    auto cold = std::make_shared<Shard>(options_.shard_config, &epoch_);
    cold->segment = std::move(segment);
    cold->cold_live.store(n, std::memory_order_relaxed);
    ReplaceShard(table, idx, std::move(cold), &gate);
    demotions_.fetch_add(1, std::memory_order_relaxed);
    ALEX_OBS_COUNTER_INC("tier.demotions");
    ALEX_OBS_EVENT(obs::EventType::kTierDemotion,
                   static_cast<uint32_t>(idx), 0, 0,
                   static_cast<int64_t>(n),
                   static_cast<int64_t>(seg_id));
    return core::SnapshotStatus::kOk;
  }

  core::SnapshotStatus PromoteShardLocked(size_t idx) {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    if (idx >= table->shards.size()) {
      return core::SnapshotStatus::kIoError;
    }
    Shard* victim = table->shards[idx].get();
    if (!victim->cold()) return core::SnapshotStatus::kOk;
    std::unique_lock<std::shared_mutex> gate(victim->write_gate);
    std::vector<K> keys;
    std::vector<P> payloads;
    DrainShard(victim, &keys, &payloads);
    const uint64_t old_segment = victim->segment->id();
    const uint64_t n = keys.size();
    auto resident =
        std::make_shared<Shard>(options_.shard_config, &epoch_);
    resident->index.BulkLoad(keys.data(), payloads.data(), keys.size());
    ReplaceShard(table, idx, std::move(resident), &gate);
    // The segment file is NOT unlinked here: the committed manifest may
    // still reference it (a crash before the next checkpoint must be
    // able to reopen it). The next checkpoint's sweep collects it.
    block_cache_.EraseSegment(old_segment);
    promotions_.fetch_add(1, std::memory_order_relaxed);
    ALEX_OBS_COUNTER_INC("tier.promotions");
    ALEX_OBS_EVENT(obs::EventType::kTierPromotion,
                   static_cast<uint32_t>(idx), 0, 0,
                   static_cast<int64_t>(n),
                   static_cast<int64_t>(old_segment));
    return core::SnapshotStatus::kOk;
  }

  core::SnapshotStatus CompactShardLocked(size_t idx) {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    if (idx >= table->shards.size()) {
      return core::SnapshotStatus::kIoError;
    }
    Shard* victim = table->shards[idx].get();
    if (!victim->cold()) return core::SnapshotStatus::kOk;
    if (victim->DeltaClean()) return core::SnapshotStatus::kOk;
    if (victim->TierSize() == 0) {
      // Everything erased: a segment cannot be empty, so the compacted
      // form of this shard is an empty resident one.
      return PromoteShardLocked(idx);
    }
    const std::string prefix = TierPrefix();
    if (prefix.empty()) return core::SnapshotStatus::kIoError;
    std::unique_lock<std::shared_mutex> gate(victim->write_gate);
    std::vector<K> keys;
    std::vector<P> payloads;
    DrainShard(victim, &keys, &payloads);
    const uint64_t old_segment = victim->segment->id();
    const uint64_t seg_id = next_segment_id_++;
    std::shared_ptr<tier::ColdSegment<K, P>> segment;
    const core::SnapshotStatus status =
        WriteAndOpenSegment(prefix, seg_id, keys.data(), payloads.data(),
                            keys.size(), &segment);
    if (status != core::SnapshotStatus::kOk) return status;
    auto cold = std::make_shared<Shard>(options_.shard_config, &epoch_);
    cold->segment = std::move(segment);
    cold->cold_live.store(keys.size(), std::memory_order_relaxed);
    ReplaceShard(table, idx, std::move(cold), &gate);
    block_cache_.EraseSegment(old_segment);
    compactions_.fetch_add(1, std::memory_order_relaxed);
    ALEX_OBS_COUNTER_INC("tier.compactions");
    ALEX_OBS_EVENT(obs::EventType::kTierCompaction,
                   static_cast<uint32_t>(idx), 0, 0,
                   static_cast<int64_t>(keys.size()),
                   static_cast<int64_t>(seg_id));
    return core::SnapshotStatus::kOk;
  }

  /// Removes cold-segment files at `prefix` that neither the committed
  /// manifest (`keep`) nor the live table references, plus every .tmp
  /// stray a crashed writer left behind. Post-commit, best-effort, like
  /// the snapshot/WAL sweeps.
  void SweepStaleSegments(const std::string& prefix,
                          std::vector<uint64_t> keep,
                          const Table* table) const {
    for (const auto& shard : table->shards) {
      if (shard->cold() &&
          shard->segment->path() ==
              tier::SegmentPath(prefix, shard->segment->id())) {
        keep.push_back(shard->segment->id());
      }
    }
    std::string dir, base;
    wal::SplitPrefixPath(prefix, &dir, &base);
    std::vector<std::string> names;
    if (!wal::ListDirectory(dir, &names)) return;
    for (const std::string& name : names) {
      uint64_t id = 0;
      bool is_tmp = false;
      if (!tier::ParseSegmentFileName(name, base, &id, &is_tmp)) continue;
      if (is_tmp ||
          std::find(keep.begin(), keep.end(), id) == keep.end()) {
        std::remove((dir + "/" + name).c_str());
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
    ExecuteTopologyTxn(TopologyOp::kSplit, current, idx, idx + 1,
                       std::max<size_t>(2, options_.split_ways));
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
    // Topology transactions stream their victims' ConcurrentAlex trees;
    // promote a cold victim first (a merge victim is tiny by
    // definition, so this is cheap and rare).
    for (size_t i = lo; i < lo + 2; ++i) {
      if (current->shards[i]->cold() &&
          PromoteShardLocked(i) != core::SnapshotStatus::kOk) {
        return;
      }
    }
    current = table_.load(std::memory_order_seq_cst);
    ExecuteTopologyTxn(TopologyOp::kMerge, current, lo, lo + 2, 1);
  }

  /// Which maintenance module a topology transaction runs; all three
  /// share every step of the protocol below.
  enum class TopologyOp { kSplit, kMerge, kRebalance };

  /// The one protocol every topology change runs through: replaces the
  /// adjacent victim shards [lo, hi) of `table` (the current table,
  /// loaded under rebalance_mutex_) with `ways` children holding the
  /// same keys, evenly partitioned. Caller holds rebalance_mutex_ and
  /// an epoch guard. Returns true when the replacement table was
  /// published; false aborts cleanly (too few keys to partition, or
  /// child log files could not be opened).
  ///
  /// The protocol's invariants are asserted here and nowhere else:
  ///   - victims' gates are drained (held exclusive) before their logs
  ///     are read, and stay held until after the seal;
  ///   - the seal LSN equals the publish LSN — no record can land in a
  ///     victim's log between the drain and its seal;
  ///   - parents are retired only after every child's segment file is
  ///     durable in the directory (ShardLog::Open fsyncs the directory
  ///     entry before returning).
  bool ExecuteTopologyTxn(TopologyOp op, Table* table, size_t lo,
                          size_t hi, size_t ways) {
    assert(lo < hi && hi <= table->shards.size());
    assert(ways >= 1);
    // Victims must be resident: the build step streams their trees, and
    // a cold shard's log/segment hand-off is the tier transitions' job.
    // Callers promote first (MaybeMerge) or simply skip cold shards.
    for (size_t i = lo; i < hi; ++i) {
      if (table->shards[i]->cold()) return false;
    }
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
    next->router = ShardRouter<K>::FitFromBoundaries(
        ShardRouter<K>::SpliceBoundaries(table->router.boundaries(), lo,
                                         hi, split_keys));
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
        ALEX_OBS_EVENT(obs::EventType::kTopologySplit, lo,
                       parent_ids.empty() ? 0 : parent_ids[0],
                       drained_lsns.empty() ? 0 : drained_lsns[0], hi - lo,
                       ways);
        break;
      case TopologyOp::kMerge:
        merges_.fetch_add(1, std::memory_order_relaxed);
        ALEX_OBS_COUNTER_INC("shard.topology_merges");
        ALEX_OBS_EVENT(obs::EventType::kTopologyMerge, lo,
                       parent_ids.empty() ? 0 : parent_ids[0],
                       drained_lsns.empty() ? 0 : drained_lsns[0], hi - lo,
                       ways);
        break;
      case TopologyOp::kRebalance:
        ALEX_OBS_COUNTER_INC("shard.topology_rebalances");
        ALEX_OBS_EVENT(obs::EventType::kTopologyRebalance, lo,
                       parent_ids.empty() ? 0 : parent_ids[0],
                       drained_lsns.empty() ? 0 : drained_lsns[0], hi - lo,
                       ways);
        break;
    }
    topology_epoch_.fetch_add(1, std::memory_order_relaxed);
    // The old table (and, once no newer table shares them, its replaced
    // shards) is freed only after every reader that could hold it
    // unpins. The gates release on scope exit, after the seal.
    epoch_.Retire(table);
    epoch_.TryReclaim();
    return true;
  }

  ShardedOptions options_;
  // Cold-tier block cache; mutable because the lock-free read path
  // (const) pins blocks through it.
  mutable tier::BlockCache block_cache_;
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
