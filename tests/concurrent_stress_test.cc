// Multi-threaded stress tests for the lock-free-read ConcurrentAlex:
// N writer + M reader threads over Zipf-distributed keys, asserting
// linearizable Get/Insert/Erase outcomes and no lost updates, plus a
// split-torture test that forces constant leaf splits (tiny
// max_data_node_keys) while readers spin on keys migrating across the
// split boundaries. Designed to run under -fsanitize=thread and
// address,undefined (see .github/workflows/ci.yml); key counts are kept
// modest so the sanitizer runs stay fast.
#include "core/concurrent_alex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/random.h"
#include "util/zipf.h"
#include "scan_test_util.h"

namespace alex::core {
namespace {

using Index = ConcurrentAlex<int64_t, int64_t>;

// Payload is a pure function of the key so any successful Get can be
// validated without knowing which writer stored it.
int64_t PayloadFor(int64_t key) { return key * 3 + 1; }

// Forces frequent splits so the tree-exclusive escalation path is
// exercised, not just the leaf-latch fast path.
Config SplittyConfig() {
  Config config;
  config.max_data_node_keys = 256;
  config.split_fanout = 4;
  return config;
}

// Writers own disjoint key stripes (key % kWriters == writer id), so each
// writer can track its stripe's expected contents exactly: any divergence
// between the index's Insert/Erase return values and the single-threaded
// bookkeeping is a lost or phantom update.
TEST(ConcurrentStressTest, ZipfWritersDisjointStripesNoLostUpdates) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kOpsPerWriter = 8000;
  constexpr uint64_t kKeysPerWriter = 4096;

  Index index(SplittyConfig());
  std::atomic<int> writer_errors{0};
  std::atomic<int> reader_errors{0};
  std::atomic<bool> stop{false};
  std::vector<std::unordered_set<int64_t>> expected(kWriters);

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      util::Xoshiro256 rng(1000 + t);
      util::ScrambledZipfGenerator zipf(kKeysPerWriter, 0.99);
      auto& mine = expected[t];
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const int64_t key =
            static_cast<int64_t>(zipf.Next(rng)) * kWriters + t;
        const bool absent = mine.count(key) == 0;
        // ~2/3 inserts, 1/3 erases: the stripe both grows and shrinks.
        if (rng.NextUint64(3) != 0) {
          const bool ok = index.Insert(key, PayloadFor(key));
          if (ok != absent) writer_errors.fetch_add(1);
          if (ok) mine.insert(key);
        } else {
          const bool ok = index.Erase(key);
          if (ok == absent) writer_errors.fetch_add(1);
          if (ok) mine.erase(key);
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Xoshiro256 rng(2000 + r);
      std::vector<std::pair<int64_t, int64_t>> scan;
      while (!stop.load(std::memory_order_acquire)) {
        const auto key = static_cast<int64_t>(
            rng.NextUint64(kKeysPerWriter * kWriters));
        int64_t v = 0;
        if (index.Get(key, &v) && v != PayloadFor(key)) {
          reader_errors.fetch_add(1);
        }
        if (rng.NextUint64(64) == 0) {
          test_util::ScanFirst(index, key, 50, &scan);
          for (size_t i = 0; i < scan.size(); ++i) {
            if (scan[i].second != PayloadFor(scan[i].first)) {
              reader_errors.fetch_add(1);
            }
            if (i > 0 && !(scan[i - 1].first < scan[i].first)) {
              reader_errors.fetch_add(1);
            }
          }
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(writer_errors.load(), 0);
  EXPECT_EQ(reader_errors.load(), 0);

  // Final state must match the union of the writers' bookkeeping exactly.
  size_t total = 0;
  for (int t = 0; t < kWriters; ++t) {
    total += expected[t].size();
    for (const int64_t key : expected[t]) {
      int64_t v = 0;
      ASSERT_TRUE(index.Get(key, &v)) << "lost update for key " << key;
      EXPECT_EQ(v, PayloadFor(key));
    }
  }
  EXPECT_EQ(index.size(), total);
  EXPECT_TRUE(index.CheckInvariants());
}

// All threads race to insert the same keys: linearizability requires that
// exactly one Insert per key reports success.
TEST(ConcurrentStressTest, RacingInsertsExactlyOneWinnerPerKey) {
  constexpr int kThreads = 8;
  constexpr int64_t kKeys = 2000;

  Index index(SplittyConfig());
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(t);
      // Each thread visits every key in a different order.
      std::vector<int64_t> order(kKeys);
      for (int64_t i = 0; i < kKeys; ++i) order[i] = i;
      for (int64_t i = kKeys - 1; i > 0; --i) {
        std::swap(order[i], order[rng.NextUint64(i + 1)]);
      }
      for (const int64_t key : order) {
        if (index.Insert(key * 7, PayloadFor(key * 7))) {
          successes.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(successes.load(), kKeys);
  EXPECT_EQ(index.size(), static_cast<size_t>(kKeys));
  int64_t v = 0;
  for (int64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(index.Get(i * 7, &v));
    EXPECT_EQ(v, PayloadFor(i * 7));
  }
  EXPECT_TRUE(index.CheckInvariants());
}

// Mirror image: keys pre-loaded, all threads race to erase them; exactly
// one Erase per key may succeed, and the index must end empty.
TEST(ConcurrentStressTest, RacingErasesExactlyOneWinnerPerKey) {
  constexpr int kThreads = 8;
  constexpr int64_t kKeys = 2000;

  Index index(SplittyConfig());
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < kKeys; ++i) {
    keys.push_back(i * 5);
    payloads.push_back(PayloadFor(i * 5));
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int64_t i = 0; i < kKeys; ++i) {
        if (index.Erase(i * 5)) successes.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(successes.load(), kKeys);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.CheckInvariants());
}

// Split torture: leaves are kept tiny so nearly every writer batch forces
// a split, while readers spin on preloaded keys that migrate from the
// victim leaf into its replacement children. Any reader observing a
// preloaded key as absent (or with a wrong payload) caught a broken
// split; any scan out of order caught a broken chain splice. Erasers
// interleave so the erase path crosses splits too. The epoch manager must
// have retired and reclaimed the victims by the end. Must be TSan- and
// ASan-clean.
TEST(ConcurrentStressTest, SplitTortureReadersChaseMigratingKeys) {
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kErasers = 1;
  constexpr int64_t kPreload = 4096;
  constexpr int kInsertsPerWriter = 6000;

  Config config;
  config.max_data_node_keys = 64;  // split after a handful of inserts
  config.split_fanout = 4;
  Index index(config);

  // Preloaded keys are never erased: every Get must succeed forever,
  // across every split that moves them. Spacing of 8 leaves room for the
  // writers' fresh keys inside the same leaves.
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < kPreload; ++i) {
    keys.push_back(i * 8);
    payloads.push_back(PayloadFor(i * 8));
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};

  // Writers insert fresh keys (offsets 1..5 mod 8) straight into the
  // preloaded leaves, driving them over the split bound again and again.
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      util::Xoshiro256 rng(5000 + t);
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        const int64_t base =
            static_cast<int64_t>(rng.NextUint64(kPreload)) * 8;
        const int64_t key = base + 1 + static_cast<int64_t>(t) * 2 +
                            static_cast<int64_t>(rng.NextUint64(2));
        index.Insert(key, PayloadFor(key));
      }
    });
  }
  // Erasers remove only writer-inserted keys, so erase interleaves with
  // splits without invalidating the readers' ground truth.
  std::vector<std::thread> erasers;
  for (int t = 0; t < kErasers; ++t) {
    erasers.emplace_back([&, t] {
      util::Xoshiro256 rng(6000 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const int64_t base =
            static_cast<int64_t>(rng.NextUint64(kPreload)) * 8;
        index.Erase(base + 1 + rng.NextUint64(5));
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Xoshiro256 rng(7000 + r);
      std::vector<std::pair<int64_t, int64_t>> scan;
      while (!stop.load(std::memory_order_acquire)) {
        const int64_t key =
            static_cast<int64_t>(rng.NextUint64(kPreload)) * 8;
        int64_t v = 0;
        if (!index.Get(key, &v) || v != PayloadFor(key)) {
          errors.fetch_add(1);  // preloaded key lost or corrupted
        }
        if (rng.NextUint64(32) == 0) {
          test_util::ScanFirst(index, key, 64, &scan);
          for (size_t i = 0; i < scan.size(); ++i) {
            if (scan[i].second != PayloadFor(scan[i].first)) {
              errors.fetch_add(1);
            }
            if (i > 0 && !(scan[i - 1].first < scan[i].first)) {
              errors.fetch_add(1);
            }
          }
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : erasers) t.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0);
  // Every preloaded key survived the torture.
  for (int64_t i = 0; i < kPreload; ++i) {
    int64_t v = 0;
    ASSERT_TRUE(index.Get(i * 8, &v)) << "lost preloaded key " << (i * 8);
    EXPECT_EQ(v, PayloadFor(i * 8));
  }
  EXPECT_TRUE(index.CheckInvariants());
  // Splits happened and their victims went through EBR (retired and, by
  // now, mostly reclaimed — the destructor drains the rest).
  EXPECT_GT(index.GetStats().num_splits, 0u);
  EXPECT_GT(index.epoch_manager().freed_count() +
                index.epoch_manager().retired_count(),
            0u);
}

// Chaos mode: writers and readers share one contended Zipf key range, with
// splits enabled. The test asserts only properties that hold in every
// linearizable history: observed payloads are valid, scans are sorted, and
// the final size equals the number of keys actually reachable by a scan.
TEST(ConcurrentStressTest, SharedZipfChaosKeepsIndexCoherent) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kOpsPerWriter = 6000;
  constexpr uint64_t kKeySpace = 8192;

  Index index(SplittyConfig());
  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      util::Xoshiro256 rng(3000 + t);
      util::ScrambledZipfGenerator zipf(kKeySpace, 0.99);
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const auto key = static_cast<int64_t>(zipf.Next(rng));
        switch (rng.NextUint64(4)) {
          case 0:
            index.Erase(key);
            break;
          case 1:
            index.Put(key, PayloadFor(key));
            break;
          default:
            index.Insert(key, PayloadFor(key));
            break;
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Xoshiro256 rng(4000 + r);
      while (!stop.load(std::memory_order_acquire)) {
        const auto key = static_cast<int64_t>(rng.NextUint64(kKeySpace));
        int64_t v = 0;
        if (index.Get(key, &v) && v != PayloadFor(key)) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0);
  std::vector<std::pair<int64_t, int64_t>> all;
  test_util::ScanAll(index, &all);
  EXPECT_EQ(index.size(), all.size());
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].first, all[i].first);
  }
  EXPECT_TRUE(index.CheckInvariants());
}

}  // namespace
}  // namespace alex::core
