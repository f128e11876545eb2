// Sharded-LRU cache of immutable byte blocks keyed by (segment, block),
// filled by a caller-supplied loader. No ShardedAlex read path uses it;
// benches do. Cold-shard reads search the segment's mmap in place
// (tier/segment.h): a segment is immutable and verified before it is
// published, so a DRAM copy of a block would duplicate the page cache and
// add a lock per lookup. The design follows SNIPPETS.md's cache-oblivious
// PMA split (BlockDevice + Cache* behind the index), for block sources
// that cannot be read in place:
//
//   - Sharded: (segment, block) keys hash across kNumShards independent
//     LRU shards, each with its own mutex — readers of different blocks
//     rarely touch the same lock, and no lock is held across a load.
//   - Singleflight: the first thread to miss a block inserts a kLoading
//     placeholder, drops the shard lock, runs the loader, and publishes; concurrent readers of
//     the same block wait on the shard's condvar instead of duplicating
//     the load. A failed load erases the placeholder and wakes waiters,
//     who retry the load themselves (and surface the failure if it
//     persists).
//   - Pinned refs: a Handle pins its entry (refs > 0); pinned entries
//     leave the LRU list and cannot be evicted, so a reader iterating a
//     block is never racing the eviction memcpy. Release re-enters the
//     entry at the LRU head.
//   - Allocation-free hits: the LRU list is intrusive (two pointers in
//     each entry), so a hit and its release only relink pointers.
//
// Capacity is in bytes, split evenly across shards; eviction pops
// unpinned entries from each shard's LRU tail until that shard fits.
// Stats live in each (cache-line aligned) shard and are written only
// under its mutex, as a relaxed load plus store, so no read path makes a
// locked read-modify-write on a line another shard's readers use. The
// accessors sum the shards without locking (benches read them with obs
// disabled); the totals mirror into the metrics registry (tier.cache_*).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace alex::tier {

class BlockCache {
  struct Entry;  // defined below; Handle stores a pointer to one

 public:
  /// `capacity_bytes` is a soft global bound (enforced per shard as
  /// capacity/kNumShards). 0 caches nothing but still serves loads.
  explicit BlockCache(size_t capacity_bytes)
      : shard_capacity_(capacity_bytes / kNumShards) {}

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// A pinned, immutable view of one cached block. Valid handles keep
  /// the bytes alive and un-evictable until destruction. Movable only.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& o) noexcept { *this = std::move(o); }
    Handle& operator=(Handle&& o) noexcept {
      Reset();
      cache_ = o.cache_;
      shard_ = o.shard_;
      entry_ = o.entry_;
      o.cache_ = nullptr;
      o.entry_ = nullptr;
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { Reset(); }

    bool valid() const { return entry_ != nullptr; }
    const uint8_t* data() const { return entry_->data.data(); }
    size_t size() const { return entry_->data.size(); }

   private:
    friend class BlockCache;
    Handle(BlockCache* cache, size_t shard, Entry* entry)
        : cache_(cache), shard_(shard), entry_(entry) {}
    void Reset() {
      if (cache_ != nullptr && entry_ != nullptr) {
        cache_->Release(shard_, entry_);
      }
      cache_ = nullptr;
      entry_ = nullptr;
    }
    BlockCache* cache_ = nullptr;
    size_t shard_ = 0;
    Entry* entry_ = nullptr;
  };

  /// Returns a pinned handle to block (`segment_id`, `block`), loading it
  /// through `loader(&bytes)` (bool return) on a miss. An invalid handle
  /// means the load failed — for segment blocks, a checksum mismatch or
  /// I/O error that the caller maps to its own failure semantics.
  template <typename Loader>
  Handle GetOrLoad(uint64_t segment_id, uint64_t block, Loader&& loader) {
    const uint64_t key = KeyOf(segment_id, block);
    const size_t s = ShardOf(key);
    CacheShard& shard = shards_[s];
    std::unique_lock<std::mutex> lock(shard.mutex);
    while (true) {
      auto it = shard.map.find(key);
      if (it == shard.map.end()) break;  // miss: this thread loads
      Entry* entry = it->second.get();
      if (entry->state == EntryState::kReady) {
        Bump(shard.hits, 1);
        ALEX_OBS_COUNTER_INC("tier.cache_hits");
        Pin(shard, entry);
        return Handle(this, s, entry);
      }
      // Someone else is loading this block: singleflight wait, then
      // re-check (the load may have failed and erased the entry).
      shard.ready.wait(lock);
    }
    Bump(shard.misses, 1);
    ALEX_OBS_COUNTER_INC("tier.cache_misses");
    auto placeholder = std::make_unique<Entry>();
    placeholder->key = key;
    Entry* entry = placeholder.get();
    shard.map.emplace(key, std::move(placeholder));
    lock.unlock();

    std::vector<uint8_t> bytes;
    const bool ok = loader(&bytes);

    lock.lock();
    if (!ok) {
      shard.map.erase(key);
      lock.unlock();
      shard.ready.notify_all();
      return Handle();
    }
    entry->data = std::move(bytes);
    entry->state = EntryState::kReady;
    Bump(shard.bytes, entry->data.size());
    // Born pinned (never entered the LRU list, so no unlink here — Pin
    // is only for entries Release parked on the list).
    entry->refs = 1;
    Bump(shard.pinned_bytes, entry->data.size());
    ALEX_OBS_GAUGE_SET("tier.cache_pinned_bytes", pinned_bytes());
    EvictLocked(shard);
    lock.unlock();
    shard.ready.notify_all();
    return Handle(this, s, entry);
  }

  /// Drops every unpinned cached block of `segment_id`, for a caller
  /// retiring that segment (any still-pinned or in-flight entries age out
  /// through the LRU once its id is never requested again).
  void EraseSegment(uint64_t segment_id) {
    for (CacheShard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (auto it = shard.map.begin(); it != shard.map.end();) {
        Entry* entry = it->second.get();
        if (SegmentOf(entry->key) == segment_id &&
            entry->state == EntryState::kReady && entry->refs == 0) {
          Unlink(shard, entry);
          Bump(shard.bytes, 0 - entry->data.size());
          it = shard.map.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  size_t capacity_bytes() const { return shard_capacity_ * kNumShards; }
  uint64_t hits() const { return Sum(&CacheShard::hits); }
  uint64_t misses() const { return Sum(&CacheShard::misses); }
  uint64_t evictions() const { return Sum(&CacheShard::evictions); }
  size_t bytes() const { return Sum(&CacheShard::bytes); }
  size_t pinned_bytes() const { return Sum(&CacheShard::pinned_bytes); }

 private:
  static constexpr size_t kNumShards = 8;

  enum class EntryState { kLoading, kReady };

  struct Entry {
    uint64_t key = 0;
    std::vector<uint8_t> data;
    EntryState state = EntryState::kLoading;
    uint32_t refs = 0;
    // Intrusive LRU links; meaningful iff ready && refs == 0.
    Entry* lru_prev = nullptr;
    Entry* lru_next = nullptr;
  };

  // Aligned so one shard's lock and stats never share a line with
  // another's.
  struct alignas(64) CacheShard {
    std::mutex mutex;
    std::condition_variable ready;
    std::unordered_map<uint64_t, std::unique_ptr<Entry>> map;
    // Unpinned ready entries only; head = most recent, tail = victim.
    Entry* lru_head = nullptr;
    Entry* lru_tail = nullptr;
    // Written under `mutex` (Bump), read lock-free by the accessors.
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<size_t> bytes{0};
    std::atomic<size_t> pinned_bytes{0};
  };

  // Segment ids are allocated sequentially and blocks are bounded by
  // segment size / block size; both fit comfortably in 32 bits each.
  static uint64_t KeyOf(uint64_t segment_id, uint64_t block) {
    return (segment_id << 32) | (block & 0xFFFFFFFFULL);
  }
  static uint64_t SegmentOf(uint64_t key) { return key >> 32; }
  static size_t ShardOf(uint64_t key) {
    // Fibonacci hash: consecutive blocks of one segment spread across
    // shards instead of piling onto one.
    return static_cast<size_t>((key * 11400714819323198485ULL) >> 61) &
           (kNumShards - 1);
  }

  /// Adds `delta` (unsigned wrap for a decrement) to a shard stat. The
  /// shard mutex orders every writer, so a plain load and store suffice.
  template <typename T>
  static void Bump(std::atomic<T>& stat,
                   typename std::atomic<T>::value_type delta) {
    stat.store(stat.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }

  template <typename T>
  T Sum(std::atomic<T> CacheShard::*stat) const {
    T total = 0;
    for (const CacheShard& shard : shards_) {
      total += (shard.*stat).load(std::memory_order_relaxed);
    }
    return total;
  }

  static void PushFront(CacheShard& shard, Entry* entry) {
    entry->lru_prev = nullptr;
    entry->lru_next = shard.lru_head;
    if (shard.lru_head != nullptr) {
      shard.lru_head->lru_prev = entry;
    } else {
      shard.lru_tail = entry;
    }
    shard.lru_head = entry;
  }

  static void Unlink(CacheShard& shard, Entry* entry) {
    if (entry->lru_prev != nullptr) {
      entry->lru_prev->lru_next = entry->lru_next;
    } else {
      shard.lru_head = entry->lru_next;
    }
    if (entry->lru_next != nullptr) {
      entry->lru_next->lru_prev = entry->lru_prev;
    } else {
      shard.lru_tail = entry->lru_prev;
    }
    entry->lru_prev = nullptr;
    entry->lru_next = nullptr;
  }

  void Pin(CacheShard& shard, Entry* entry) {
    if (entry->refs++ == 0 && entry->state == EntryState::kReady) {
      Unlink(shard, entry);
      Bump(shard.pinned_bytes, entry->data.size());
      ALEX_OBS_GAUGE_SET("tier.cache_pinned_bytes", pinned_bytes());
    }
  }

  void Release(size_t s, Entry* entry) {
    CacheShard& shard = shards_[s];
    std::unique_lock<std::mutex> lock(shard.mutex);
    if (--entry->refs == 0) {
      Bump(shard.pinned_bytes, 0 - entry->data.size());
      ALEX_OBS_GAUGE_SET("tier.cache_pinned_bytes", pinned_bytes());
      PushFront(shard, entry);
      EvictLocked(shard);
    }
  }

  /// Pops unpinned LRU-tail entries until the shard fits its budget.
  /// Entries pinned by handles (not on the list) don't count as
  /// evictable, so a fully-pinned shard may exceed its budget — by
  /// design: never invalidate bytes a reader holds.
  void EvictLocked(CacheShard& shard) {
    while (shard.bytes.load(std::memory_order_relaxed) > shard_capacity_ &&
           shard.lru_tail != nullptr) {
      Entry* victim = shard.lru_tail;
      Unlink(shard, victim);
      Bump(shard.bytes, 0 - victim->data.size());
      Bump(shard.evictions, 1);
      ALEX_OBS_COUNTER_INC("tier.cache_evictions");
      shard.map.erase(victim->key);
    }
  }

  const size_t shard_capacity_;
  CacheShard shards_[kNumShards];
};

}  // namespace alex::tier
