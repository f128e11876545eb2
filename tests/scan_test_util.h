// Test helpers over the stoppable Scan of core::ConcurrentAlex and
// shard::ShardedAlex: "the first n records from a key" and "every
// record", copied into a vector of pairs.
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace alex::test_util {

/// Copies the first `max_results` records with key >= `start` into `*out`
/// through a Scan whose visitor stops once `*out` is full. Returns Scan's
/// count, which includes the stopping record, so it equals out->size().
template <typename Index, typename S, typename K, typename P>
size_t ScanFirst(const Index& index, S start, size_t max_results,
                 std::vector<std::pair<K, P>>* out) {
  out->clear();
  if (max_results == 0) return 0;
  return index.Scan(static_cast<K>(start), std::numeric_limits<K>::max(),
                    [&](const K& key, const P& payload) {
                      out->emplace_back(key, payload);
                      return out->size() < max_results;
                    });
}

/// Every record of `index` in ascending key order.
template <typename Index, typename K, typename P>
void ScanAll(const Index& index, std::vector<std::pair<K, P>>* out) {
  out->clear();
  index.Scan(std::numeric_limits<K>::lowest(), std::numeric_limits<K>::max(),
             [&](const K& key, const P& payload) {
               out->emplace_back(key, payload);
             });
}

}  // namespace alex::test_util
