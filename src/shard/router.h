// Shard router for the sharded service layer.
//
// The key space is range-partitioned: shard i owns [boundaries[i-1],
// boundaries[i]) with open ends at both extremes. Routing a key is one
// binary search (std::upper_bound) over the boundary array. A learned
// model pays off over a large sorted array (Kraska et al., "The Case for
// Learned Index Structures", SIGMOD 2018); over the handful of boundaries
// a shard table holds, a few comparisons are already the whole cost, and
// a model evaluated first would mostly have to be corrected by them.
//
// Routers are immutable once built and shared read-only across threads; a
// rebalance builds a new router for its replacement table rather than
// mutating the live one.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace alex::shard {

template <typename K>
class ShardRouter {
 public:
  /// A default router has a single shard: everything routes to 0.
  ShardRouter() = default;

  /// Wraps an existing strictly increasing boundary array (a manifest's,
  /// or one spliced by a topology transaction).
  explicit ShardRouter(std::vector<K> boundaries)
      : boundaries_(std::move(boundaries)) {}

  /// Builds a router partitioning `n` strictly-increasing keys into
  /// `num_shards` contiguous ranges of ~n/num_shards keys each;
  /// boundaries[i] = keys[(i+1)*n/num_shards], the first key owned by
  /// shard i+1. Requires n >= num_shards (callers clamp). The fourth
  /// argument is unused: it was the learned model's sample cap, and stays
  /// so callers written against that signature still compile.
  static ShardRouter FitFromSortedKeys(const K* keys, size_t n,
                                       size_t num_shards,
                                       size_t /*unused*/ = 0) {
    ShardRouter router;
    if (num_shards <= 1 || n == 0) return router;
    router.boundaries_.reserve(num_shards - 1);
    for (size_t i = 1; i < num_shards; ++i) {
      router.boundaries_.push_back(keys[i * n / num_shards]);
    }
    return router;
  }

  /// Boundary surgery for a topology transaction: victims [lo, hi) of
  /// the table this array describes are replaced by children whose
  /// internal split keys are `split_keys` (so the child count is
  /// split_keys.size() + 1). The victims' outer edges survive — the
  /// transaction never moves a boundary it did not drain — and only
  /// their internal boundaries are swapped out: a merge passes no split
  /// keys, a split passes its fresh ones, a rebalance passes re-evened
  /// ones. Requires lo < hi <= num_shards and strictly increasing split
  /// keys inside the victims' range.
  static std::vector<K> SpliceBoundaries(const std::vector<K>& boundaries,
                                         size_t lo, size_t hi,
                                         const std::vector<K>& split_keys) {
    // boundaries[i] is the lower bound of shard i+1: indices < lo lie at
    // or below the victims' lower edge, indices [lo, hi-1) are the
    // victims' internal boundaries, index hi-1 onward start at the upper
    // edge.
    std::vector<K> out;
    out.reserve(boundaries.size() - (hi - 1 - lo) + split_keys.size());
    out.insert(out.end(), boundaries.begin(),
               boundaries.begin() + static_cast<std::ptrdiff_t>(lo));
    out.insert(out.end(), split_keys.begin(), split_keys.end());
    out.insert(out.end(),
               boundaries.begin() + static_cast<std::ptrdiff_t>(hi - 1),
               boundaries.end());
    return out;
  }

  size_t num_shards() const { return boundaries_.size() + 1; }
  const std::vector<K>& boundaries() const { return boundaries_; }

  /// Shard owning `key`: the number of boundaries at or below it.
  size_t Route(K key) const {
    return static_cast<size_t>(
        std::upper_bound(boundaries_.begin(), boundaries_.end(), key) -
        boundaries_.begin());
  }

  /// Smallest key owned by shard `s` (s >= 1; shard 0's range is open
  /// below).
  K LowerBoundOf(size_t s) const { return boundaries_[s - 1]; }

  /// Router footprint: the boundary array (reported under index size,
  /// like inner-node models).
  size_t SizeBytes() const { return boundaries_.size() * sizeof(K); }

 private:
  std::vector<K> boundaries_;
};

}  // namespace alex::shard
