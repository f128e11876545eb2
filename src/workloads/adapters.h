// Uniform adapter interface over the four indexes (ALEX, B+Tree, Learned
// Index, Sharded ALEX) so the workload runner and benches are
// index-agnostic. Adapters are thin: they forward calls and expose the
// paper's two size metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "baselines/btree.h"
#include "baselines/learned_index.h"
#include "core/alex.h"
#include "shard/sharded_alex.h"

namespace alex::workload {

/// Fixed-size opaque payload; Table 1 uses 8-byte payloads for three
/// datasets and 80-byte payloads for YCSB.
template <size_t N>
struct Payload {
  char bytes[N] = {};
};

namespace detail {

/// Count of keys in [lo, hi] for indexes that only expose RangeScan:
/// materialize a chunk, reduce it, resume past the last key seen. This is
/// deliberately the straw-man execution strategy the pushed-down
/// aggregate is benchmarked against — every counted record is copied into
/// `buf` first.
template <typename Index, typename K, typename P>
size_t CountRangeByRescan(Index& index, K lo, K hi,
                          std::vector<std::pair<K, P>>* buf) {
  constexpr size_t kChunk = 1024;
  size_t total = 0;
  K resume = lo;
  bool skip_resume = false;
  while (true) {
    const size_t got = index.RangeScan(resume, kChunk, buf);
    if (got == 0) return total;
    for (const auto& [key, payload] : *buf) {
      (void)payload;
      if (skip_resume && !(resume < key)) continue;  // re-fetched resume key
      if (hi < key) return total;
      ++total;
    }
    if (got < kChunk) return total;  // index exhausted
    resume = buf->back().first;
    skip_resume = true;
  }
}

}  // namespace detail

/// Adapter over core::Alex.
template <typename K, typename P>
class AlexAdapter {
 public:
  using key_type = K;
  using payload_type = P;

  explicit AlexAdapter(const core::Config& config = core::Config())
      : index_(config) {}

  static const char* Name() { return "ALEX"; }

  void BulkLoad(const K* keys, const P* payloads, size_t n) {
    index_.BulkLoad(keys, payloads, n);
  }
  bool Insert(K key, const P& payload) { return index_.Insert(key, payload); }
  bool Find(K key) { return index_.Find(key) != nullptr; }
  bool Erase(K key) { return index_.Erase(key); }
  size_t RangeScan(K start, size_t max_results,
                   std::vector<std::pair<K, P>>* out) {
    return index_.RangeScan(start, max_results, out);
  }
  /// Keys in [lo, hi], via chunked materialize-then-reduce.
  size_t CountRange(K lo, K hi) {
    return detail::CountRangeByRescan(index_, lo, hi, &count_buffer_);
  }
  size_t IndexSizeBytes() const { return index_.IndexSizeBytes(); }
  size_t DataSizeBytes() const { return index_.DataSizeBytes(); }
  size_t size() const { return index_.size(); }

  core::Alex<K, P>& index() { return index_; }

 private:
  core::Alex<K, P> index_;
  std::vector<std::pair<K, P>> count_buffer_;
};

/// Adapter over baseline::BPlusTree.
template <typename K, typename P>
class BTreeAdapter {
 public:
  using key_type = K;
  using payload_type = P;

  explicit BTreeAdapter(size_t node_capacity = 64) : tree_(node_capacity) {}

  static const char* Name() { return "B+Tree"; }

  void BulkLoad(const K* keys, const P* payloads, size_t n) {
    tree_.BulkLoad(keys, payloads, n);
  }
  bool Insert(K key, const P& payload) { return tree_.Insert(key, payload); }
  bool Find(K key) { return tree_.Find(key) != nullptr; }
  bool Erase(K key) { return tree_.Erase(key); }
  size_t RangeScan(K start, size_t max_results,
                   std::vector<std::pair<K, P>>* out) {
    return tree_.RangeScan(start, max_results, out);
  }
  /// Keys in [lo, hi], via chunked materialize-then-reduce.
  size_t CountRange(K lo, K hi) {
    return detail::CountRangeByRescan(tree_, lo, hi, &count_buffer_);
  }
  size_t IndexSizeBytes() const { return tree_.IndexSizeBytes(); }
  size_t DataSizeBytes() const { return tree_.DataSizeBytes(); }
  size_t size() const { return tree_.size(); }

  baseline::BPlusTree<K, P>& index() { return tree_; }

 private:
  baseline::BPlusTree<K, P> tree_;
  std::vector<std::pair<K, P>> count_buffer_;
};

/// Adapter over baseline::LearnedIndex.
template <typename K, typename P>
class LearnedIndexAdapter {
 public:
  using key_type = K;
  using payload_type = P;

  explicit LearnedIndexAdapter(size_t num_models = 1024)
      : index_(num_models) {}

  static const char* Name() { return "Learned Index"; }

  void BulkLoad(const K* keys, const P* payloads, size_t n) {
    index_.BulkLoad(keys, payloads, n);
  }
  bool Insert(K key, const P& payload) { return index_.Insert(key, payload); }
  bool Find(K key) { return index_.Find(key) != nullptr; }
  bool Erase(K key) { return index_.Erase(key); }
  size_t RangeScan(K start, size_t max_results,
                   std::vector<std::pair<K, P>>* out) {
    return index_.RangeScan(start, max_results, out);
  }
  /// Keys in [lo, hi], via chunked materialize-then-reduce.
  size_t CountRange(K lo, K hi) {
    return detail::CountRangeByRescan(index_, lo, hi, &count_buffer_);
  }
  size_t IndexSizeBytes() const { return index_.IndexSizeBytes(); }
  size_t DataSizeBytes() const { return index_.DataSizeBytes(); }
  size_t size() const { return index_.size(); }

  baseline::LearnedIndex<K, P>& index() { return index_; }

 private:
  baseline::LearnedIndex<K, P> index_;
  std::vector<std::pair<K, P>> count_buffer_;
};

/// Adapter over shard::ShardedAlex — the sharded service layer. Unlike
/// the other adapters it is also safe to drive from many threads.
template <typename K, typename P>
class ShardedAlexAdapter {
 public:
  using key_type = K;
  using payload_type = P;

  explicit ShardedAlexAdapter(
      const shard::ShardedOptions& options = shard::ShardedOptions())
      : index_(options) {}

  static const char* Name() { return "Sharded ALEX"; }

  void BulkLoad(const K* keys, const P* payloads, size_t n) {
    index_.BulkLoad(keys, payloads, n);
  }
  bool Insert(K key, const P& payload) { return index_.Insert(key, payload); }
  bool Find(K key) { return index_.Contains(key); }
  bool Erase(K key) { return index_.Erase(key); }
  // Batched entry points (any key order; the shard layer sorts).
  size_t MultiGet(const K* keys, size_t n, P* payloads, bool* found) {
    return index_.MultiGet(keys, n, payloads, found);
  }
  size_t MultiInsert(const K* keys, const P* payloads, size_t n,
                     bool* inserted = nullptr) {
    return index_.MultiInsert(keys, payloads, n, inserted);
  }
  size_t MultiErase(const K* keys, size_t n, bool* erased = nullptr) {
    return index_.MultiErase(keys, n, erased);
  }
  /// The first `max_results` records from `start`: a Scan whose visitor
  /// stops once the buffer is full.
  size_t RangeScan(K start, size_t max_results,
                   std::vector<std::pair<K, P>>* out) {
    out->clear();
    if (max_results == 0) return 0;
    return index_.Scan(start, std::numeric_limits<K>::max(),
                       [&](const K& key, const P& payload) {
                         out->emplace_back(key, payload);
                         return out->size() < max_results;
                       });
  }
  /// Keys in [lo, hi], pushed down below the router: per-shard, per-leaf
  /// bitmap popcounts — nothing is materialized.
  size_t CountRange(K lo, K hi) {
    core::AggSpec<P> spec;
    spec.count_only = true;
    return static_cast<size_t>(index_.Aggregate(lo, hi, spec).count);
  }
  /// Streaming ordered scan (see ShardedAlex::Scan).
  template <typename Visitor>
  size_t Scan(K lo, K hi, Visitor&& visit) {
    return index_.Scan(lo, hi, std::forward<Visitor>(visit));
  }
  /// Pushed-down aggregate (see ShardedAlex::Aggregate).
  core::AggResult<K, P> Aggregate(K lo, K hi,
                                  const core::AggSpec<P>& spec = {}) {
    return index_.Aggregate(lo, hi, spec);
  }
  size_t IndexSizeBytes() const { return index_.IndexSizeBytes(); }
  size_t DataSizeBytes() const { return index_.DataSizeBytes(); }
  size_t size() const { return index_.size(); }

  shard::ShardedAlex<K, P>& index() { return index_; }

 private:
  shard::ShardedAlex<K, P> index_;
};

}  // namespace alex::workload
