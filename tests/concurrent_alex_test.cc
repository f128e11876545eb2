#include "core/concurrent_alex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "util/random.h"
#include "scan_test_util.h"

namespace alex::core {
namespace {

using Index = ConcurrentAlex<int64_t, int64_t>;

TEST(ConcurrentAlexTest, SingleThreadedSemanticsMatchAlex) {
  Index index;
  EXPECT_TRUE(index.Insert(1, 10));
  EXPECT_FALSE(index.Insert(1, 11));
  int64_t v = 0;
  EXPECT_TRUE(index.Get(1, &v));
  EXPECT_EQ(v, 10);
  EXPECT_TRUE(index.Update(1, 20));
  EXPECT_TRUE(index.Get(1, &v));
  EXPECT_EQ(v, 20);
  index.Put(1, 30);  // overwrite path
  index.Put(2, 40);  // insert path
  EXPECT_TRUE(index.Get(2, &v));
  EXPECT_EQ(v, 40);
  EXPECT_TRUE(index.Erase(1));
  EXPECT_FALSE(index.Contains(1));
  EXPECT_EQ(index.size(), 1u);
}

TEST(ConcurrentAlexTest, BulkLoadAndScan) {
  Index index;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 10000; ++i) {
    keys.push_back(i * 2);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  std::vector<std::pair<int64_t, int64_t>> out;
  EXPECT_EQ(test_util::ScanFirst(index, 100, 5, &out), 5u);
  EXPECT_EQ(out.front().first, 100);
  EXPECT_GT(index.IndexSizeBytes(), 0u);
  EXPECT_GT(index.DataSizeBytes(), 0u);
}

TEST(ConcurrentAlexTest, ParallelReadersSeeConsistentData) {
  Index index;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 50000; ++i) {
    keys.push_back(i);
    payloads.push_back(i * 3);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&index, &errors, t] {
      util::Xoshiro256 rng(t + 1);
      for (int i = 0; i < 20000; ++i) {
        const auto key = static_cast<int64_t>(rng.NextUint64(50000));
        int64_t v = -1;
        if (!index.Get(key, &v) || v != key * 3) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(ConcurrentAlexTest, MixedReadersAndWritersStayConsistent) {
  Index index;
  // Pre-load a disjoint key range readers will hammer.
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 20000; ++i) {
    keys.push_back(i);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};
  // Writers insert keys >= 1e6; splits/expansions run under the exclusive
  // lock while readers keep validating the stable range.
  std::thread writer([&] {
    for (int64_t i = 0; i < 30000; ++i) {
      if (!index.Insert(1000000 + i, i)) {
        errors.fetch_add(1);
      }
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&index, &errors, &stop, t] {
      util::Xoshiro256 rng(100 + t);
      while (!stop.load()) {
        const auto key = static_cast<int64_t>(rng.NextUint64(20000));
        int64_t v = -1;
        if (!index.Get(key, &v) || v != key) {
          errors.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(index.size(), 50000u);
}

TEST(ConcurrentAlexTest, ConcurrentWritersDisjointRangesAllLand) {
  Index index;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&index, t] {
      const int64_t base = static_cast<int64_t>(t) * 1000000;
      for (int64_t i = 0; i < 10000; ++i) {
        index.Insert(base + i, i);
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(index.size(), 40000u);
  int64_t v;
  for (int t = 0; t < 4; ++t) {
    EXPECT_TRUE(index.Get(static_cast<int64_t>(t) * 1000000 + 9999, &v));
    EXPECT_EQ(v, 9999);
  }
}

// The §7 acceptance test for the lock-free read path: the tree-wide
// structure lock no longer exists, so reads must complete while (a) every
// tree-scoped mutex the write path can take (root transition + chain
// splice) is held and (b) an unrelated leaf is exclusively latched. Under
// the old design, (a) alone would have blocked every read; here a read
// takes only its epoch guard plus the target leaf's latch.
TEST(ConcurrentAlexTest, ReadsCompleteWithAllStructuralMutexesHeld) {
  Config config;
  config.max_data_node_keys = 256;  // many leaves
  Index index(config);
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 20000; ++i) {
    keys.push_back(i);
    payloads.push_back(i * 3);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  // Hold everything tree-scoped, plus the leaf that owns key 0.
  auto structural = index.LockStructuralMutexesForTest();
  auto leaf_latch = index.LatchLeafForTest(0);

  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::thread reader([&] {
    // Keys near the top of the range live in different leaves than key 0.
    int64_t v = 0;
    if (!index.Get(19999, &v) || v != 19999 * 3) errors.fetch_add(1);
    if (!index.Contains(15000)) errors.fetch_add(1);
    std::vector<std::pair<int64_t, int64_t>> out;
    if (test_util::ScanFirst(index, 18000, 100, &out) != 100u) {
      errors.fetch_add(1);
    }
    if (!index.Update(16000, -1)) errors.fetch_add(1);
    done.store(true, std::memory_order_release);
  });

  // If any read path still took a tree-wide lock, the reader would hang
  // here; fail with a diagnostic instead of a ctest timeout.
  for (int i = 0; i < 200 && !done.load(std::memory_order_acquire); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(done.load()) << "read path blocked on a structural mutex";
  structural.first.unlock();
  structural.second.unlock();
  leaf_latch.unlock();
  reader.join();
  EXPECT_EQ(errors.load(), 0);
}

// A reader latched onto a leaf must block that leaf's retirement (split),
// and a split of one leaf must not disturb reads of its siblings.
TEST(ConcurrentAlexTest, SplitsRetireVictimsThroughEpochReclamation) {
  Config config;
  config.max_data_node_keys = 64;
  config.split_fanout = 4;
  Index index(config);
  for (int64_t i = 0; i < 5000; ++i) {
    index.Insert(i, i * 3);
  }
  EXPECT_GT(index.GetStats().num_splits, 0u);
  const auto& epochs = index.epoch_manager();
  EXPECT_GT(epochs.freed_count() + epochs.retired_count(), 0u);
  for (int64_t i = 0; i < 5000; ++i) {
    int64_t v = 0;
    ASSERT_TRUE(index.Get(i, &v));
    EXPECT_EQ(v, i * 3);
  }
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ConcurrentAlexTest, StatsSnapshotIsCoherent) {
  Index index;
  for (int64_t i = 0; i < 100; ++i) index.Insert(i, i);
  const Stats stats = index.GetStats();
  EXPECT_EQ(stats.num_inserts, 100u);
}

}  // namespace
}  // namespace alex::core
