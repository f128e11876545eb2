// Tests for the sharded service layer (src/shard/): learned routing
// (boundary exactness + fallback), cross-shard scans, online rebalance
// under concurrent readers (built to run under TSan), and per-shard
// durability including manifest corruption and missing shard files.
#include "shard/sharded_alex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/serialization.h"
#include "shard/router.h"
#include "util/random.h"
#include "scan_test_util.h"

namespace alex::shard {
namespace {

using Sharded = ShardedAlex<int64_t, int64_t>;
using core::SnapshotStatus;

std::string TempPrefix(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

ShardedOptions Opts(size_t shards) {
  ShardedOptions options;
  options.num_shards = shards;
  return options;
}

/// Reference routing: index of the first boundary greater than `key`.
size_t ReferenceRoute(const std::vector<int64_t>& bounds, int64_t key) {
  return static_cast<size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), key) - bounds.begin());
}

// ---- ShardRouter ----

TEST(ShardRouterTest, DefaultRoutesEverythingToShardZero) {
  ShardRouter<int64_t> router;
  EXPECT_EQ(router.num_shards(), 1u);
  EXPECT_EQ(router.Route(-1000), 0u);
  EXPECT_EQ(router.Route(0), 0u);
  EXPECT_EQ(router.Route(1 << 30), 0u);
}

TEST(ShardRouterTest, AgreesWithBinarySearchEverywhere) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 10000; ++i) keys.push_back(i * 3);
  const auto router =
      ShardRouter<int64_t>::FitFromSortedKeys(keys.data(), keys.size(), 8);
  ASSERT_EQ(router.num_shards(), 8u);
  const std::vector<int64_t>& bounds = router.boundaries();
  ASSERT_EQ(bounds.size(), 7u);
  // Every key (and the gaps between them) routes exactly like the
  // reference binary search, including off-distribution probes.
  for (int64_t probe = -10; probe < 30020; ++probe) {
    ASSERT_EQ(router.Route(probe), ReferenceRoute(bounds, probe))
        << "probe " << probe;
  }
}

TEST(ShardRouterTest, BoundaryKeysRouteToUpperShard) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 4096; ++i) keys.push_back(i * 2);
  const auto router =
      ShardRouter<int64_t>::FitFromSortedKeys(keys.data(), keys.size(), 4);
  const std::vector<int64_t>& bounds = router.boundaries();
  ASSERT_EQ(bounds.size(), 3u);
  for (size_t i = 0; i < bounds.size(); ++i) {
    // The boundary key itself belongs to the upper shard; its predecessor
    // belongs to the lower.
    EXPECT_EQ(router.Route(bounds[i]), i + 1);
    EXPECT_EQ(router.Route(bounds[i] - 1), i);
  }
}

TEST(ShardRouterTest, FallbackKeepsSkewedDistributionsExact) {
  // Heavily skewed keys make the linear model useless; routing must stay
  // exact through the binary-search fallback.
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 2000; ++i) keys.push_back(i);
  for (int64_t i = 0; i < 2000; ++i) {
    keys.push_back(1000000000LL + i * 1000000LL);
  }
  const auto router =
      ShardRouter<int64_t>::FitFromSortedKeys(keys.data(), keys.size(), 8);
  const std::vector<int64_t>& bounds = router.boundaries();
  for (const int64_t key : keys) {
    ASSERT_EQ(router.Route(key), ReferenceRoute(bounds, key));
  }
}

TEST(ShardRouterTest, FitFromBoundariesRoutesExactly) {
  std::vector<int64_t> bounds = {100, 200, 1000, 50000};
  const auto router = ShardRouter<int64_t>::FitFromBoundaries(bounds);
  EXPECT_EQ(router.num_shards(), 5u);
  for (int64_t probe : {-5LL, 0LL, 99LL, 100LL, 150LL, 200LL, 999LL,
                        1000LL, 49999LL, 50000LL, 1000000LL}) {
    ASSERT_EQ(router.Route(probe), ReferenceRoute(bounds, probe))
        << "probe " << probe;
  }
}

// ---- ShardedAlex: routing + point ops ----

TEST(ShardedAlexTest, BulkLoadPartitionsAndFindsEverything) {
  Sharded index(Opts(8));
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 20000; ++i) {
    keys.push_back(i * 2);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  EXPECT_EQ(index.num_shards(), 8u);
  EXPECT_EQ(index.size(), keys.size());
  int64_t v = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(index.Get(keys[i], &v)) << keys[i];
    ASSERT_EQ(v, payloads[i]);
    ASSERT_FALSE(index.Contains(keys[i] + 1));  // odd keys absent
  }
  // Shard assignment is monotone in the key.
  size_t prev_shard = 0;
  for (const int64_t key : keys) {
    const size_t s = index.ShardOf(key);
    ASSERT_GE(s, prev_shard);
    prev_shard = s;
  }
  EXPECT_EQ(prev_shard, 7u);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ShardedAlexTest, PointOpsAtShardBoundaries) {
  Sharded index(Opts(6));
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 12000; ++i) {
    keys.push_back(i * 10);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::vector<int64_t> bounds = index.ShardBoundaries();
  ASSERT_EQ(bounds.size(), 5u);
  int64_t v = 0;
  for (size_t i = 0; i < bounds.size(); ++i) {
    const int64_t b = bounds[i];
    // The boundary key is the first key of the upper shard.
    EXPECT_EQ(index.ShardOf(b), i + 1);
    EXPECT_EQ(index.ShardOf(b - 1), i);
    ASSERT_TRUE(index.Get(b, &v));
    // Inserts that straddle the boundary land in distinct shards and are
    // all retrievable.
    ASSERT_TRUE(index.Insert(b - 1, -1));
    ASSERT_TRUE(index.Insert(b + 1, -2));
    ASSERT_TRUE(index.Get(b - 1, &v));
    EXPECT_EQ(v, -1);
    ASSERT_TRUE(index.Get(b + 1, &v));
    EXPECT_EQ(v, -2);
    // Duplicates are rejected across the same routing path.
    EXPECT_FALSE(index.Insert(b, 0));
    // Update and erase route identically.
    ASSERT_TRUE(index.Update(b + 1, -3));
    ASSERT_TRUE(index.Get(b + 1, &v));
    EXPECT_EQ(v, -3);
    ASSERT_TRUE(index.Erase(b + 1));
    EXPECT_FALSE(index.Contains(b + 1));
  }
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ShardedAlexTest, EmptyAndTinyBulkLoads) {
  Sharded index(Opts(8));
  index.BulkLoad(nullptr, nullptr, 0);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.num_shards(), 1u);
  int64_t v = 0;
  EXPECT_FALSE(index.Get(7, &v));
  EXPECT_TRUE(index.Insert(7, 70));
  EXPECT_TRUE(index.Get(7, &v));
  EXPECT_EQ(v, 70);

  // Fewer keys than shards: the shard count clamps to the key count.
  const int64_t keys[] = {1, 2, 3};
  const int64_t payloads[] = {10, 20, 30};
  index.BulkLoad(keys, payloads, 3);
  EXPECT_EQ(index.num_shards(), 3u);
  EXPECT_EQ(index.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(index.Get(keys[i], &v));
    EXPECT_EQ(v, payloads[i]);
  }
  EXPECT_TRUE(index.CheckInvariants());
}

// ---- Cross-shard scans ----

TEST(ShardedAlexTest, CrossShardScanSpansAtLeastThreeShards) {
  Sharded index(Opts(5));
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 10000; ++i) {
    keys.push_back(i * 2);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  // Start inside shard 0 and scan enough to reach shard 3.
  const int64_t start = 101;  // absent key: scan begins at lower bound
  const size_t want = 7000;
  std::vector<std::pair<int64_t, int64_t>> got;
  ASSERT_EQ(test_util::ScanFirst(index, start, want, &got), want);
  ASSERT_EQ(index.ShardOf(got.front().first), 0u);
  ASSERT_GE(index.ShardOf(got.back().first), 3u);
  // Results are exactly the sorted keys >= start.
  int64_t expected = 102;
  for (const auto& [key, payload] : got) {
    ASSERT_EQ(key, expected);
    ASSERT_EQ(payload, expected / 2);
    expected += 2;
  }
}

TEST(ShardedAlexTest, ScanAcrossOneBoundaryIsSeamless) {
  Sharded index(Opts(4));
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 8000; ++i) {
    keys.push_back(i);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::vector<int64_t> bounds = index.ShardBoundaries();
  ASSERT_FALSE(bounds.empty());
  for (const int64_t b : bounds) {
    std::vector<std::pair<int64_t, int64_t>> got;
    ASSERT_EQ(test_util::ScanFirst(index, b - 5, 10, &got), 10u);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].first, b - 5 + static_cast<int64_t>(i));
    }
  }
}

TEST(ShardedAlexTest, ScanPastTheEndReturnsWhatExists) {
  Sharded index(Opts(3));
  std::vector<int64_t> keys(1000), payloads(1000);
  for (int64_t i = 0; i < 1000; ++i) keys[i] = payloads[i] = i;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  std::vector<std::pair<int64_t, int64_t>> got;
  EXPECT_EQ(test_util::ScanFirst(index, 990, 100, &got), 10u);
  EXPECT_EQ(got.front().first, 990);
  EXPECT_EQ(got.back().first, 999);
  EXPECT_EQ(test_util::ScanFirst(index, 5000, 10, &got), 0u);
}

// ---- Rebalance ----

TEST(ShardedAlexTest, SkewedInsertsTriggerRebalance) {
  ShardedOptions options = Opts(2);
  options.min_rebalance_keys = 512;
  options.rebalance_skew = 1.5;
  Sharded index(options);
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 2000; ++i) {
    keys.push_back(i);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  ASSERT_EQ(index.num_shards(), 2u);
  // Hammer the top of the key space: all inserts land in the last shard.
  for (int64_t i = 0; i < 20000; ++i) {
    ASSERT_TRUE(index.Insert(100000 + i, i));
  }
  EXPECT_GT(index.rebalance_count(), 0u);
  EXPECT_GT(index.num_shards(), 2u);
  EXPECT_EQ(index.size(), 22000u);
  int64_t v = 0;
  for (int64_t i = 0; i < 2000; ++i) ASSERT_TRUE(index.Get(i, &v));
  for (int64_t i = 0; i < 20000; ++i) {
    ASSERT_TRUE(index.Get(100000 + i, &v));
    ASSERT_EQ(v, i);
  }
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ShardedAlexTest, SingleShardGrowthSplitsViaAbsoluteBound) {
  ShardedOptions options = Opts(1);
  options.min_rebalance_keys = 256;
  options.max_shard_keys = 1024;
  Sharded index(options);
  for (int64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(index.Insert(i, i));
  }
  EXPECT_GT(index.num_shards(), 1u);
  EXPECT_EQ(index.size(), 10000u);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ShardedAlexTest, RebalanceUnderConcurrentReaders) {
  // The TSan target: readers and scanners run lock-free while a writer
  // forces repeated shard splits; every committed key stays visible.
  ShardedOptions options = Opts(2);
  options.min_rebalance_keys = 256;
  options.rebalance_skew = 1.5;
  options.max_shard_keys = 2048;
  Sharded index(options);
  std::vector<int64_t> keys, payloads;
  constexpr int64_t kPreload = 4000;
  for (int64_t i = 0; i < kPreload; ++i) {
    keys.push_back(i * 2);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  constexpr int kReaders = 3;
  constexpr int64_t kInserts = 12000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Xoshiro256 rng(100 + r);
      std::vector<std::pair<int64_t, int64_t>> scan;
      int64_t v = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // Preloaded keys must always be visible.
        const int64_t key =
            static_cast<int64_t>(rng.NextUint64(kPreload)) * 2;
        if (!index.Get(key, &v)) {
          read_failures.fetch_add(1, std::memory_order_relaxed);
        }
        if ((rng.NextUint64(16)) == 0) {
          test_util::ScanFirst(index, key, 64, &scan);
          for (size_t i = 1; i < scan.size(); ++i) {
            if (!(scan[i - 1].first < scan[i].first)) {
              read_failures.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  std::thread writer([&] {
    // Monotone inserts above the preload concentrate in the last shard
    // and keep tripping the split threshold.
    for (int64_t i = 0; i < kInserts; ++i) {
      index.Insert(kPreload * 2 + 1 + i, i);
    }
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(read_failures.load(), 0u);
  EXPECT_GT(index.rebalance_count(), 0u);
  EXPECT_EQ(index.size(), static_cast<size_t>(kPreload + kInserts));
  int64_t v = 0;
  for (int64_t i = 0; i < kInserts; ++i) {
    ASSERT_TRUE(index.Get(kPreload * 2 + 1 + i, &v));
    ASSERT_EQ(v, i);
  }
  EXPECT_TRUE(index.CheckInvariants());
}

// ---- Merge + explicit rebalance (the TopologyTxn modules) ----

TEST(ShardedAlexTest, ColdAdjacentShardsMergeViaInverseSkewCheck) {
  ShardedOptions options = Opts(8);
  options.merge_threshold_keys = 2000;
  Sharded index(options);
  std::vector<int64_t> keys, payloads;
  constexpr int64_t kN = 12000;
  for (int64_t i = 0; i < kN; ++i) {
    keys.push_back(i);
    payloads.push_back(i * 5);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  ASSERT_EQ(index.num_shards(), 8u);
  // Erase everything except a survivor stripe: the erase-side inverse
  // skew check must fold the emptied adjacent shards together.
  for (int64_t i = 0; i < kN; ++i) {
    if (i % 16 != 0) {
      ASSERT_TRUE(index.Erase(i));
    }
  }
  EXPECT_GT(index.merge_count(), 0u);
  EXPECT_LT(index.num_shards(), 8u);
  EXPECT_EQ(index.topology_epoch(), index.merge_count());
  EXPECT_EQ(index.size(), static_cast<size_t>(kN / 16));
  int64_t v = 0;
  for (int64_t i = 0; i < kN; i += 16) {
    ASSERT_TRUE(index.Get(i, &v)) << i;
    ASSERT_EQ(v, i * 5);
  }
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ShardedAlexTest, MergeLeavesSurvivorsAndBoundariesConsistent) {
  // Merge down hard (erase nearly everything), then keep using the
  // index: inserts and lookups must route correctly across the merged
  // boundaries.
  ShardedOptions options = Opts(6);
  options.merge_threshold_keys = 4096;
  Sharded index(options);
  std::vector<int64_t> keys(9000), payloads(9000);
  for (int64_t i = 0; i < 9000; ++i) {
    keys[i] = i * 3;
    payloads[i] = i;
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  for (int64_t i = 0; i < 9000; ++i) {
    ASSERT_TRUE(index.Erase(i * 3));
  }
  EXPECT_GT(index.merge_count(), 0u);
  EXPECT_EQ(index.size(), 0u);
  // The shrunken table still accepts and routes fresh writes.
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(index.Insert(i * 7, i));
  }
  int64_t v = 0;
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(index.Get(i * 7, &v));
    ASSERT_EQ(v, i);
  }
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ShardedAlexTest, MergeUnderConcurrentReaders) {
  // The TSan target for the merge module: readers and scanners run
  // lock-free over a survivor stripe while a writer's erases force
  // merges; every surviving key stays visible throughout.
  ShardedOptions options = Opts(8);
  options.merge_threshold_keys = 1500;
  Sharded index(options);
  // 2000 keys per shard: the eraser commits ~1875 erases into each
  // shard, comfortably past the amortized check interval (1024).
  constexpr int64_t kPreload = 16000;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < kPreload; ++i) {
    keys.push_back(i);
    payloads.push_back(i * 3);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  ASSERT_EQ(index.num_shards(), 8u);

  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Xoshiro256 rng(7 + r);
      std::vector<std::pair<int64_t, int64_t>> scan;
      int64_t v = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // Keys divisible by 16 are never erased: always visible.
        const int64_t key =
            static_cast<int64_t>(rng.NextUint64(kPreload / 16)) * 16;
        if (!index.Get(key, &v) || v != key * 3) {
          read_failures.fetch_add(1, std::memory_order_relaxed);
        }
        if (rng.NextUint64(16) == 0) {
          test_util::ScanFirst(index, key, 64, &scan);
          for (size_t i = 1; i < scan.size(); ++i) {
            if (!(scan[i - 1].first < scan[i].first)) {
              read_failures.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  std::thread eraser([&] {
    for (int64_t i = 0; i < kPreload; ++i) {
      if (i % 16 != 0) index.Erase(i);
    }
    stop.store(true, std::memory_order_release);
  });
  eraser.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(read_failures.load(), 0u);
  EXPECT_GT(index.merge_count(), 0u);
  EXPECT_LT(index.num_shards(), 8u);
  EXPECT_EQ(index.size(), static_cast<size_t>(kPreload / 16));
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ShardedAlexTest, ExplicitRebalanceEvensBoundariesInPlace) {
  // Rebalance is the third TopologyTxn module: same shard count, the
  // victims' combined keys re-partitioned evenly.
  Sharded index(Opts(4));
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 8000; ++i) {
    keys.push_back(i);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  ASSERT_EQ(index.num_shards(), 4u);
  // Skew the table: erase almost everything above the first quartile,
  // leaving shard 0 fat and shards 1-3 nearly empty.
  for (int64_t i = 2000; i < 8000; ++i) {
    if (i % 100 != 0) {
      ASSERT_TRUE(index.Erase(i));
    }
  }
  const uint64_t epoch_before = index.topology_epoch();
  ASSERT_TRUE(index.Rebalance(std::numeric_limits<int64_t>::lowest(),
                              std::numeric_limits<int64_t>::max()));
  EXPECT_EQ(index.num_shards(), 4u);
  EXPECT_EQ(index.topology_epoch(), epoch_before + 1);
  EXPECT_EQ(index.merge_count(), 0u);
  // Evened: no shard holds more than ~2x the mean.
  const size_t mean = index.size() / index.num_shards();
  std::vector<std::pair<int64_t, int64_t>> scan;
  const std::vector<int64_t> bounds = index.ShardBoundaries();
  ASSERT_EQ(bounds.size(), 3u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    ASSERT_LT(bounds[i - 1], bounds[i]);
  }
  test_util::ScanAll(index, &scan);
  size_t at = 0;
  for (size_t s = 0; s < 4; ++s) {
    size_t count = 0;
    while (at < scan.size() && index.ShardOf(scan[at].first) == s) {
      ++at;
      ++count;
    }
    EXPECT_LE(count, 2 * mean + 2) << "shard " << s;
  }
  // All contents survived the re-partition.
  EXPECT_EQ(index.size(), 2000u + 60u);
  int64_t v = 0;
  for (int64_t i = 0; i < 2000; ++i) ASSERT_TRUE(index.Get(i, &v));
  EXPECT_TRUE(index.CheckInvariants());

  // A single-shard range is not a rebalance.
  EXPECT_FALSE(index.Rebalance(0, 1));
}

// ---- Durability ----

TEST(ShardedAlexTest, SaveLoadRoundTripAcrossShardCounts) {
  Sharded index(Opts(8));
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 15000; ++i) {
    keys.push_back(i * 3);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(index.Insert(i * 3 + 1, -i));
  }
  const std::string prefix = TempPrefix("sharded-roundtrip");
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);

  // The loader's own shard-count preference is irrelevant: the manifest
  // dictates the table.
  Sharded loaded(Opts(3));
  ASSERT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kOk);
  EXPECT_EQ(loaded.num_shards(), index.num_shards());
  EXPECT_EQ(loaded.size(), index.size());
  EXPECT_EQ(loaded.ShardBoundaries(), index.ShardBoundaries());
  std::vector<std::pair<int64_t, int64_t>> a, b;
  test_util::ScanAll(index, &a);
  test_util::ScanAll(loaded, &b);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(loaded.CheckInvariants());

  std::remove(Sharded::ManifestPath(prefix).c_str());
  for (size_t i = 0; i < index.num_shards(); ++i) {
    std::remove(Sharded::ShardPath(prefix, 1, i).c_str());
  }
}

TEST(ShardedAlexTest, SuccessiveSavesCommitAtomicallyPerGeneration) {
  Sharded index(Opts(2));
  std::vector<int64_t> keys(1000), payloads(1000);
  for (int64_t i = 0; i < 1000; ++i) keys[i] = payloads[i] = i;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::string prefix = TempPrefix("sharded-generations");
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);  // generation 1
  ASSERT_TRUE(index.Insert(5000, 50));
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);  // generation 2

  // The superseded generation's shard files were cleaned up; the new
  // generation is what loads, reflecting the newer state.
  std::FILE* stale = std::fopen(Sharded::ShardPath(prefix, 1, 0).c_str(),
                                "rb");
  EXPECT_EQ(stale, nullptr);
  Sharded loaded(Opts(2));
  ASSERT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kOk);
  EXPECT_EQ(loaded.size(), 1001u);
  EXPECT_TRUE(loaded.Contains(5000));

  std::remove(Sharded::ManifestPath(prefix).c_str());
  for (size_t i = 0; i < 2; ++i) {
    std::remove(Sharded::ShardPath(prefix, 2, i).c_str());
  }
}

TEST(ShardedAlexTest, LoadFromMissingShardFileIsDistinctError) {
  Sharded index(Opts(4));
  std::vector<int64_t> keys(8000), payloads(8000);
  for (int64_t i = 0; i < 8000; ++i) keys[i] = payloads[i] = i;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::string prefix = TempPrefix("sharded-missing");
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  std::remove(Sharded::ShardPath(prefix, 1, 2).c_str());

  Sharded loaded(Opts(4));
  loaded.Insert(42, 42);
  EXPECT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kMissingShard);
  // The failed load left the live index untouched.
  int64_t v = 0;
  EXPECT_TRUE(loaded.Get(42, &v));
  EXPECT_EQ(loaded.size(), 1u);

  std::remove(Sharded::ManifestPath(prefix).c_str());
  for (size_t i = 0; i < 4; ++i) {
    std::remove(Sharded::ShardPath(prefix, 1, i).c_str());
  }
}

TEST(ShardedAlexTest, CorruptManifestChecksumIsDetected) {
  Sharded index(Opts(4));
  std::vector<int64_t> keys(4000), payloads(4000);
  for (int64_t i = 0; i < 4000; ++i) keys[i] = payloads[i] = i;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::string prefix = TempPrefix("sharded-corrupt");
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);

  // Flip one byte in the boundary region (past the header).
  const std::string manifest = Sharded::ManifestPath(prefix);
  std::FILE* f = std::fopen(manifest.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, sizeof(ManifestHeader) + 2, SEEK_SET), 0);
  const unsigned char flip = 0xFF;
  ASSERT_EQ(std::fwrite(&flip, 1, 1, f), 1u);
  std::fclose(f);

  Sharded loaded(Opts(4));
  EXPECT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kChecksumMismatch);

  std::remove(manifest.c_str());
  for (size_t i = 0; i < 4; ++i) {
    std::remove(Sharded::ShardPath(prefix, 1, i).c_str());
  }
}

TEST(ShardedAlexTest, UnsortedManifestBoundariesAreRejected) {
  // A well-checksummed manifest whose boundaries are out of order (a
  // buggy or foreign writer) must not reach the router, whose fallback
  // binary-searches that array.
  ShardManifest<int64_t> manifest;
  manifest.boundaries = {10, 5};
  manifest.shard_keys = {1, 1, 1};
  const std::string path = TempPrefix("bad-manifest") + ".manifest";
  ASSERT_EQ(WriteManifest(path, manifest), SnapshotStatus::kOk);
  ShardManifest<int64_t> loaded;
  EXPECT_EQ(ReadManifest<int64_t>(path, &loaded),
            SnapshotStatus::kUnsortedKeys);
  std::remove(path.c_str());
}

TEST(ShardedAlexTest, SwappedShardFilesAreDetected) {
  // Even partitioning gives every shard the same key count, so a swap of
  // two shard files must be caught by the boundary-range check, not the
  // count check.
  Sharded index(Opts(2));
  std::vector<int64_t> keys(2000), payloads(2000);
  for (int64_t i = 0; i < 2000; ++i) keys[i] = payloads[i] = i;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::string prefix = TempPrefix("sharded-swapped");
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);

  const std::string shard0 = Sharded::ShardPath(prefix, 1, 0);
  const std::string shard1 = Sharded::ShardPath(prefix, 1, 1);
  const std::string stash = shard0 + ".stash";
  ASSERT_EQ(std::rename(shard0.c_str(), stash.c_str()), 0);
  ASSERT_EQ(std::rename(shard1.c_str(), shard0.c_str()), 0);
  ASSERT_EQ(std::rename(stash.c_str(), shard1.c_str()), 0);

  Sharded loaded(Opts(2));
  EXPECT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kManifestMismatch);
  EXPECT_EQ(loaded.size(), 0u);

  std::remove(Sharded::ManifestPath(prefix).c_str());
  for (size_t i = 0; i < 2; ++i) {
    std::remove(Sharded::ShardPath(prefix, 1, i).c_str());
  }
}

TEST(ShardedAlexTest, ShardFileCountMismatchIsDetected) {
  Sharded index(Opts(2));
  std::vector<int64_t> keys(2000), payloads(2000);
  for (int64_t i = 0; i < 2000; ++i) keys[i] = payloads[i] = i;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::string prefix = TempPrefix("sharded-mismatch");
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);

  // Overwrite shard 1's file with a valid snapshot of the wrong size.
  core::ConcurrentAlex<int64_t, int64_t> rogue;
  rogue.Insert(5, 5);
  ASSERT_EQ(rogue.SaveToFile(Sharded::ShardPath(prefix, 1, 1)),
            SnapshotStatus::kOk);

  Sharded loaded(Opts(2));
  EXPECT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kManifestMismatch);

  std::remove(Sharded::ManifestPath(prefix).c_str());
  for (size_t i = 0; i < 2; ++i) {
    std::remove(Sharded::ShardPath(prefix, 1, i).c_str());
  }
}

}  // namespace
}  // namespace alex::shard
