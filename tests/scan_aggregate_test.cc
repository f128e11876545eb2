// Tests for the scan/aggregate engine: the masked SIMD kernels in
// src/util/simd_scan.h (naive-reference oracle plus direct scalar-vs-AVX2
// byte-identity checks), the epoch-guarded ConcurrentAlex::Scan/Aggregate
// walks against a shadow std::map (including the early-stop contract of a
// bool visitor), the cross-shard ShardedAlex::Scan/Aggregate (ordered
// shard-by-shard streaming across resident and cold shards + parallel
// aggregate partial merges) under forced topology churn, and a
// TSan-targeted torture test that scans continuously while writers split
// leaves and shards (ContinuousScansDuringTopologyChurn).
//
// Determinism contract under test: every kernel result must be
// byte-identical across the scalar and AVX2 paths, so the whole suite is
// re-run by CI with ALEX_FORCE_SCALAR_SEARCH=1 and -DALEX_DISABLE_SIMD=ON.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/concurrent_alex.h"
#include "shard/sharded_alex.h"
#include "tier/segment.h"
#include "util/bitmap.h"
#include "util/random.h"
#include "util/simd_scan.h"

namespace alex {
namespace {

// ---- Kernel oracle: naive per-bit reference ----

/// Naive reference for MaskedAggregate: walks [lo, hi) bit by bit in index
/// order. Sums in a single accumulator, so for floating-point inputs the
/// caller must use exactly-representable values (small integers) to compare
/// exactly against the lane-striped kernel sum.
template <typename T>
util::AggState<T> NaiveAggregate(const std::vector<T>& data,
                                 const util::Bitmap& bitmap, size_t lo,
                                 size_t hi) {
  util::AggState<T> out;
  for (size_t i = lo; i < hi; ++i) {
    if (bitmap.Get(i)) out.Add(data[i]);
  }
  return out;
}

template <typename T>
uint64_t NaiveCountBetween(const std::vector<T>& data,
                           const util::Bitmap& bitmap, size_t lo, size_t hi,
                           T value_lo, T value_hi) {
  uint64_t count = 0;
  for (size_t i = lo; i < hi; ++i) {
    if (!bitmap.Get(i)) continue;
    const T v = data[i];
    if (!(v < value_lo) && !(value_hi < v)) ++count;
  }
  return count;
}

/// Builds a bitmap mixing dense runs (whole words set, so the kernels take
/// the unmasked vector fast path) with sparse per-bit regions.
util::Bitmap RandomBitmap(size_t size, util::Xoshiro256& rng) {
  util::Bitmap bitmap(size);
  size_t i = 0;
  while (i < size) {
    const uint64_t mode = rng.NextUint64(3);
    if (mode == 0) {
      // Dense patch: set every bit in the next 1..3 words.
      const size_t end = std::min(size, i + 64 * (1 + rng.NextUint64(3)));
      for (; i < end; ++i) bitmap.Set(i);
    } else if (mode == 1) {
      // Sparse patch: ~25% fill.
      const size_t end = std::min(size, i + 64 * (1 + rng.NextUint64(3)));
      for (; i < end; ++i) {
        if (rng.NextUint64(4) == 0) bitmap.Set(i);
      }
    } else {
      // Hole.
      i = std::min(size, i + 1 + rng.NextUint64(100));
    }
  }
  return bitmap;
}

template <typename T>
void ExpectAggEq(const util::AggState<T>& got, const util::AggState<T>& want,
                 const char* what) {
  ASSERT_EQ(got.count, want.count) << what;
  EXPECT_EQ(got.sum, want.sum) << what;
  if (want.count > 0) {
    EXPECT_EQ(got.min, want.min) << what;
    EXPECT_EQ(got.max, want.max) << what;
  }
}

template <typename T, typename Gen>
void RunKernelOracle(Gen gen_value, uint64_t seed) {
  util::Xoshiro256 rng(seed);
  for (int round = 0; round < 40; ++round) {
    const size_t size = 1 + rng.NextUint64(1500);
    std::vector<T> data(size);
    for (auto& v : data) v = gen_value(rng);
    const util::Bitmap bitmap = RandomBitmap(size, rng);
    for (int probe = 0; probe < 8; ++probe) {
      size_t lo = rng.NextUint64(size + 1);
      size_t hi = rng.NextUint64(size + 1);
      if (hi < lo) std::swap(lo, hi);
      const auto got =
          util::MaskedAggregate(data.data(), bitmap.words(), lo, hi);
      const auto want = NaiveAggregate(data, bitmap, lo, hi);
      ExpectAggEq(got, want, "MaskedAggregate");
      ASSERT_EQ(got.count, bitmap.PopCountRange(lo, hi));

      T vlo = gen_value(rng);
      T vhi = gen_value(rng);
      if (vhi < vlo) std::swap(vlo, vhi);
      EXPECT_EQ(util::MaskedCountBetween(data.data(), bitmap.words(), lo, hi,
                                         vlo, vhi),
                NaiveCountBetween(data, bitmap, lo, hi, vlo, vhi));
    }
  }
}

TEST(SimdScanKernelTest, AggregateMatchesNaiveInt64) {
  RunKernelOracle<int64_t>(
      [](util::Xoshiro256& rng) {
        return static_cast<int64_t>(rng.NextUint64(2000000)) - 1000000;
      },
      1);
}

TEST(SimdScanKernelTest, AggregateMatchesNaiveUint64) {
  // Include values with the sign bit set to exercise the biased compares.
  RunKernelOracle<uint64_t>([](util::Xoshiro256& rng) { return rng(); }, 2);
}

TEST(SimdScanKernelTest, AggregateMatchesNaiveDouble) {
  // Exactly representable values (integer halves) so the naive sequential
  // sum equals the lane-striped kernel sum bit for bit.
  RunKernelOracle<double>(
      [](util::Xoshiro256& rng) {
        return (static_cast<double>(rng.NextUint64(200000)) - 100000.0) * 0.5;
      },
      3);
}

TEST(SimdScanKernelTest, Int64SumWrapsModulo64Bits) {
  // Integer sums accumulate modulo 2^64 (matching the vector adder);
  // overflow must be well-defined, not UB.
  std::vector<int64_t> data(256, std::numeric_limits<int64_t>::max());
  util::Bitmap bitmap(data.size());
  for (size_t i = 0; i < data.size(); ++i) bitmap.Set(i);
  const auto got =
      util::MaskedAggregate(data.data(), bitmap.words(), 0, data.size());
  uint64_t want = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    want += static_cast<uint64_t>(data[i]);
  }
  EXPECT_EQ(got.sum, want);
  EXPECT_EQ(got.count, data.size());
}

TEST(SimdScanKernelTest, EmptyRangeAndEmptyBitmap) {
  std::vector<int64_t> data(128, 7);
  util::Bitmap empty(data.size());
  const auto none =
      util::MaskedAggregate(data.data(), empty.words(), 0, data.size());
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.sum, 0u);
  util::Bitmap full(data.size());
  for (size_t i = 0; i < data.size(); ++i) full.Set(i);
  EXPECT_EQ(util::MaskedAggregate(data.data(), full.words(), 64, 64).count,
            0u);
  EXPECT_EQ(util::MaskedCountBetween(data.data(), full.words(), 32, 32,
                                     int64_t{0}, int64_t{100}),
            0u);
}

// ---- Scalar vs AVX2 byte identity (direct, full-precision inputs) ----

#if ALEX_SIMD_X86

template <typename T, typename Gen>
void RunByteIdentity(Gen gen_value, uint64_t seed) {
  if (!__builtin_cpu_supports("avx2")) {
    GTEST_SKIP() << "host CPU lacks AVX2";
  }
  util::Xoshiro256 rng(seed);
  for (int round = 0; round < 30; ++round) {
    const size_t size = 1 + rng.NextUint64(2000);
    std::vector<T> data(size);
    for (auto& v : data) v = gen_value(rng);
    const util::Bitmap bitmap = RandomBitmap(size, rng);
    for (int probe = 0; probe < 6; ++probe) {
      size_t lo = rng.NextUint64(size + 1);
      size_t hi = rng.NextUint64(size + 1);
      if (hi < lo) std::swap(lo, hi);
      const auto vec = util::simd_scan_internal::MaskedAggregateAvx2(
          data.data(), bitmap.words(), lo, hi);
      const auto ref = util::simd_scan_internal::MaskedAggregateScalar(
          data.data(), bitmap.words(), lo, hi);
      ASSERT_EQ(vec.count, ref.count);
      // memcmp: bit-for-bit identity, including the sign of zero and the
      // exact rounding of every intermediate double add.
      EXPECT_EQ(std::memcmp(&vec.sum, &ref.sum, sizeof(vec.sum)), 0);
      if (ref.count > 0) {
        EXPECT_EQ(std::memcmp(&vec.min, &ref.min, sizeof(vec.min)), 0);
        EXPECT_EQ(std::memcmp(&vec.max, &ref.max, sizeof(vec.max)), 0);
      }
      T vlo = gen_value(rng);
      T vhi = gen_value(rng);
      if (vhi < vlo) std::swap(vlo, vhi);
      EXPECT_EQ(util::simd_scan_internal::MaskedCountBetweenAvx2(
                    data.data(), bitmap.words(), lo, hi, vlo, vhi),
                util::simd_scan_internal::MaskedCountBetweenScalar(
                    data.data(), bitmap.words(), lo, hi, vlo, vhi));
    }
  }
}

TEST(SimdScanKernelTest, Avx2ByteIdenticalToScalarInt64) {
  RunByteIdentity<int64_t>(
      [](util::Xoshiro256& rng) { return static_cast<int64_t>(rng()); }, 11);
}

TEST(SimdScanKernelTest, Avx2ByteIdenticalToScalarUint64) {
  RunByteIdentity<uint64_t>([](util::Xoshiro256& rng) { return rng(); }, 12);
}

TEST(SimdScanKernelTest, Avx2ByteIdenticalToScalarDouble) {
  // Full-precision doubles: the mirrored 4-lane striping must make the
  // vector sum reduce in exactly the scalar order.
  RunByteIdentity<double>(
      [](util::Xoshiro256& rng) {
        return rng.NextDouble(-1e12, 1e12) + rng.NextDouble();
      },
      13);
}

#endif  // ALEX_SIMD_X86

// ---- ConcurrentAlex Scan/Aggregate vs std::map oracle ----

using core::AggField;
using core::AggSpec;
using core::Config;
using core::NodeLayout;

/// Scans [lo, hi] with a visitor that returns false on its k-th call
/// (k >= 1) and checks the early-stop contract against `expect`, the
/// oracle's records in the range: the visitor is never called again after
/// it returned false, it saw exactly the first min(k, |expect|) records,
/// and Scan returns that count — the stopping record included.
template <typename Index>
void CheckEarlyStop(const Index& index, int64_t lo, int64_t hi,
                    const std::vector<std::pair<int64_t, int64_t>>& expect,
                    size_t k) {
  std::vector<std::pair<int64_t, int64_t>> got;
  bool called_after_stop = false;
  const size_t visited =
      index.Scan(lo, hi, [&](const int64_t& key, const int64_t& payload) {
        if (got.size() >= k) called_after_stop = true;
        got.emplace_back(key, payload);
        return got.size() < k;
      });
  const size_t want = std::min(k, expect.size());
  ASSERT_FALSE(called_after_stop) << "k=" << k;
  ASSERT_EQ(visited, want) << "k=" << k;
  const std::vector<std::pair<int64_t, int64_t>> prefix(
      expect.begin(), expect.begin() + want);
  ASSERT_EQ(got, prefix) << "k=" << k;
}

template <typename Index>
void CheckAgainstOracle(const Index& index,
                        const std::map<int64_t, int64_t>& oracle, int64_t lo,
                        int64_t hi) {
  // Oracle over the closed range [lo, hi].
  uint64_t count = 0;
  uint64_t key_sum = 0;
  int64_t key_min = 0, key_max = 0;
  uint64_t pay_sum = 0;
  int64_t pay_min = 0, pay_max = 0;
  const int64_t filter_lo = -50, filter_hi = 50;
  uint64_t filtered = 0;
  std::vector<std::pair<int64_t, int64_t>> expect;
  for (auto it = oracle.lower_bound(lo);
       it != oracle.end() && !(hi < it->first); ++it) {
    expect.push_back(*it);
    if (count == 0) {
      key_min = key_max = it->first;
      pay_min = pay_max = it->second;
    } else {
      key_min = std::min(key_min, it->first);
      key_max = std::max(key_max, it->first);
      pay_min = std::min(pay_min, it->second);
      pay_max = std::max(pay_max, it->second);
    }
    ++count;
    key_sum += static_cast<uint64_t>(it->first);
    pay_sum += static_cast<uint64_t>(it->second);
    if (it->second >= filter_lo && it->second <= filter_hi) ++filtered;
  }

  // Scan: visitor order and content must match the map exactly.
  std::vector<std::pair<int64_t, int64_t>> got;
  const size_t visited = index.Scan(
      lo, hi, [&](const int64_t& k, const int64_t& p) { got.emplace_back(k, p); });
  ASSERT_EQ(visited, expect.size()) << "[" << lo << ", " << hi << "]";
  ASSERT_EQ(got, expect) << "[" << lo << ", " << hi << "]";

  // A bool visitor stopping on the first, a middle and the last record
  // of the range.
  for (const size_t k : {size_t{1}, expect.size() / 2 + 1, expect.size()}) {
    if (k > 0) CheckEarlyStop(index, lo, hi, expect, k);
  }

  // Aggregate, key field (default spec).
  const auto keys_agg = index.Aggregate(lo, hi);
  ASSERT_EQ(keys_agg.count, count);
  EXPECT_EQ(keys_agg.keys.count, count);
  EXPECT_EQ(keys_agg.keys.sum, key_sum);
  if (count > 0) {
    EXPECT_EQ(keys_agg.keys.min, key_min);
    EXPECT_EQ(keys_agg.keys.max, key_max);
  }

  // count_only skips the value kernels but must agree on cardinality.
  AggSpec<int64_t> count_spec;
  count_spec.count_only = true;
  EXPECT_EQ(index.Aggregate(lo, hi, count_spec).count, count);

  // Payload field.
  AggSpec<int64_t> pay_spec;
  pay_spec.field = AggField::kPayloads;
  const auto pay_agg = index.Aggregate(lo, hi, pay_spec);
  EXPECT_EQ(pay_agg.count, count);
  EXPECT_EQ(pay_agg.payloads.sum, pay_sum);
  if (count > 0) {
    EXPECT_EQ(pay_agg.payloads.min, pay_min);
    EXPECT_EQ(pay_agg.payloads.max, pay_max);
  }

  // Payload-filtered count (SIMD predicate kernel path).
  AggSpec<int64_t> filt_spec;
  filt_spec.count_only = true;
  filt_spec.has_payload_filter = true;
  filt_spec.filter_lo = filter_lo;
  filt_spec.filter_hi = filter_hi;
  EXPECT_EQ(index.Aggregate(lo, hi, filt_spec).count, filtered);

  // Filtered value aggregation (per-slot fallback path).
  AggSpec<int64_t> filt_val_spec = filt_spec;
  filt_val_spec.count_only = false;
  EXPECT_EQ(index.Aggregate(lo, hi, filt_val_spec).count, filtered);
}

void RunOracleForLayout(NodeLayout layout) {
  Config config;
  config.layout = layout;
  core::ConcurrentAlex<int64_t, int64_t> index(config);
  std::map<int64_t, int64_t> oracle;
  util::Xoshiro256 rng(layout == NodeLayout::kGappedArray ? 21 : 22);

  // Duplicate-heavy key space (multiples of 3 in a narrow band) so erases
  // leave gap-fill copies of real keys next to live slots — the bitmap
  // masking must hide them from every kernel.
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 20000; ++i) {
    keys.push_back(i * 3);
    payloads.push_back(static_cast<int64_t>(rng.NextUint64(201)) - 100);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) oracle[keys[i]] = payloads[i];

  for (int round = 0; round < 6; ++round) {
    // Mutate: inserts (between existing keys) and erases.
    for (int i = 0; i < 2000; ++i) {
      const int64_t key = static_cast<int64_t>(rng.NextUint64(70000));
      if (rng.NextUint64(3) == 0) {
        index.Erase(key);
        oracle.erase(key);
      } else {
        const int64_t payload =
            static_cast<int64_t>(rng.NextUint64(201)) - 100;
        if (index.Insert(key, payload)) oracle.emplace(key, payload);
      }
    }
    ASSERT_EQ(index.size(), oracle.size());
    for (int probe = 0; probe < 12; ++probe) {
      int64_t lo = static_cast<int64_t>(rng.NextUint64(75000)) - 2000;
      int64_t hi = lo + static_cast<int64_t>(rng.NextUint64(30000));
      CheckAgainstOracle(index, oracle, lo, hi);
    }
  }
  // Full-range and degenerate probes.
  CheckAgainstOracle(index, oracle, std::numeric_limits<int64_t>::min(),
                     std::numeric_limits<int64_t>::max());
  CheckAgainstOracle(index, oracle, 300, 300);    // single key
  CheckAgainstOracle(index, oracle, 301, 302);    // between keys
  CheckAgainstOracle(index, oracle, -900, -500);  // left of all data
  CheckAgainstOracle(index, oracle, 900000, 900100);  // right of all data
}

TEST(ConcurrentScanAggregateTest, MatchesMapOracleGappedArray) {
  RunOracleForLayout(NodeLayout::kGappedArray);
}

TEST(ConcurrentScanAggregateTest, MatchesMapOraclePackedMemoryArray) {
  RunOracleForLayout(NodeLayout::kPackedMemoryArray);
}

TEST(ConcurrentScanAggregateTest, EmptyIndexAndInvertedRange) {
  core::ConcurrentAlex<int64_t, int64_t> index;
  size_t visits = 0;
  EXPECT_EQ(index.Scan(0, 1000, [&](const int64_t&, const int64_t&) {
    ++visits;
  }),
            0u);
  EXPECT_EQ(visits, 0u);
  EXPECT_EQ(index.Aggregate(0, 1000).count, 0u);
  index.Insert(5, 50);
  // hi < lo: no records, no visits.
  EXPECT_EQ(index.Scan(10, 0, [&](const int64_t&, const int64_t&) {
    ++visits;
  }),
            0u);
  EXPECT_EQ(index.Aggregate(10, 0).count, 0u);
  // Exact single-key hit.
  EXPECT_EQ(index.Aggregate(5, 5).count, 1u);
}

TEST(ConcurrentScanAggregateTest, DoubleKeysAggregateExactly) {
  core::ConcurrentAlex<double, int64_t> index;
  std::vector<double> keys;
  std::vector<int64_t> payloads;
  for (int64_t i = 0; i < 5000; ++i) {
    keys.push_back(static_cast<double>(i) * 0.5);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const auto agg = index.Aggregate(100.0, 199.5);
  EXPECT_EQ(agg.count, 200u);
  EXPECT_EQ(agg.keys.min, 100.0);
  EXPECT_EQ(agg.keys.max, 199.5);
  // Sum of 100.0, 100.5, ..., 199.5 — exactly representable halves.
  EXPECT_EQ(agg.keys.sum, 29950.0);
}

TEST(ConcurrentScanAggregateTest, EarlyStopAtEveryPositionAcrossLeaves) {
  // Small leaves, so a few thousand keys span many of them; stopping at
  // every position covers the first record, records in the middle of a
  // leaf, and the last key of every leaf (where the walk would otherwise
  // unlatch and follow the sibling link).
  Config config;
  config.max_data_node_keys = 64;
  core::ConcurrentAlex<int64_t, int64_t> index(config);
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 3000; ++i) {
    keys.push_back(i * 5);
    payloads.push_back(-i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  ASSERT_GE(index.CollectStructure().leaf_count, 4u);
  std::vector<std::pair<int64_t, int64_t>> expect;
  for (size_t i = 0; i < keys.size(); ++i) {
    expect.emplace_back(keys[i], payloads[i]);
  }
  const int64_t lo = std::numeric_limits<int64_t>::lowest();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  for (size_t k = 1; k <= expect.size() + 1; ++k) {
    CheckEarlyStop(index, lo, hi, expect, k);
  }
  // A bounded range stopping on its last record never reads past it.
  const std::vector<std::pair<int64_t, int64_t>> mid(expect.begin() + 100,
                                                     expect.begin() + 400);
  CheckEarlyStop(index, mid.front().first, mid.back().first, mid,
                 mid.size());
}

// ---- ShardedAlex Scan/Aggregate: ordered streaming ----

using Sharded = shard::ShardedAlex<int64_t, int64_t>;

shard::ShardedOptions ChurnOptions(size_t scan_threads) {
  shard::ShardedOptions options;
  options.num_shards = 6;
  options.max_shard_keys = 4096;  // force splits during the test
  options.scan_threads = scan_threads;
  return options;
}

void RunShardedOracle(size_t scan_threads) {
  Sharded index(ChurnOptions(scan_threads));
  std::map<int64_t, int64_t> oracle;
  util::Xoshiro256 rng(31);
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 60000; ++i) {
    keys.push_back(i * 2);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) oracle[keys[i]] = payloads[i];
  // Insert past max_shard_keys so shard split transactions run, then
  // erase a band to exercise gap-fill remnants across shard boundaries.
  for (int64_t i = 0; i < 30000; ++i) {
    const int64_t key = 120001 + i * 2;
    ASSERT_TRUE(index.Insert(key, -i));
    oracle[key] = -i;
  }
  for (int64_t i = 5000; i < 15000; ++i) {
    index.Erase(i * 2);
    oracle.erase(i * 2);
  }
  EXPECT_TRUE(index.CheckInvariants());

  for (int probe = 0; probe < 20; ++probe) {
    int64_t lo = static_cast<int64_t>(rng.NextUint64(200000)) - 5000;
    int64_t hi = lo + static_cast<int64_t>(rng.NextUint64(90000));
    CheckAgainstOracle(index, oracle, lo, hi);
  }
  // Full range crosses every shard; ordering across shard boundaries is
  // the shard-by-shard concatenation contract under test.
  CheckAgainstOracle(index, oracle, std::numeric_limits<int64_t>::min(),
                     std::numeric_limits<int64_t>::max());
}

TEST(ShardedScanAggregateTest, MatchesMapOracleSequential) {
  RunShardedOracle(1);
}

TEST(ShardedScanAggregateTest, MatchesMapOracleParallel) {
  RunShardedOracle(3);
}

TEST(ShardedScanAggregateTest, ParallelAndSequentialAgreeExactly) {
  // Same data, two scan_threads settings: Scan streams and Aggregate
  // merges must be byte-identical (ascending-order merge contract).
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 50000; ++i) {
    keys.push_back(i * 3 + (i % 7));
    payloads.push_back(i % 1000);
  }
  Sharded seq(ChurnOptions(1));
  Sharded par(ChurnOptions(4));
  seq.BulkLoad(keys.data(), payloads.data(), keys.size());
  par.BulkLoad(keys.data(), payloads.data(), keys.size());
  std::vector<std::pair<int64_t, int64_t>> a, b;
  seq.Scan(1000, 140000,
           [&](const int64_t& k, const int64_t& p) { a.emplace_back(k, p); });
  par.Scan(1000, 140000,
           [&](const int64_t& k, const int64_t& p) { b.emplace_back(k, p); });
  ASSERT_EQ(a, b);
  const auto agg_a = seq.Aggregate(1000, 140000);
  const auto agg_b = par.Aggregate(1000, 140000);
  EXPECT_EQ(agg_a.count, agg_b.count);
  EXPECT_EQ(agg_a.keys.sum, agg_b.keys.sum);
  EXPECT_EQ(agg_a.keys.min, agg_b.keys.min);
  EXPECT_EQ(agg_a.keys.max, agg_b.keys.max);
}

TEST(ShardedScanAggregateTest, EarlyStopAcrossShardAndTierBoundaries) {
  // Four shards over keys 4i; shards 1 and 3 are demoted, so the key
  // order crosses resident -> cold -> resident -> cold. Cold shard 1 then
  // gets an overlay that updates and erases segment keys and adds keys
  // past its segment's last key (an overlay-only tail before the next
  // shard's first key); the last shard gets a tail past all data.
  const std::string prefix =
      std::string(::testing::TempDir()) + "/scan_early_stop";
  shard::ShardedOptions options;
  options.num_shards = 4;
  options.tier_prefix = prefix;
  options.min_rebalance_keys = 1u << 30;  // keep shard indices stable
  const auto remove_segments = [&] {
    for (uint64_t id = 1; id <= 8; ++id) {
      std::remove(tier::SegmentPath(prefix, id).c_str());
    }
  };
  remove_segments();
  std::map<int64_t, int64_t> oracle;
  {
    Sharded index(options);
    std::vector<int64_t> keys, payloads;
    for (int64_t i = 0; i < 2000; ++i) {
      keys.push_back(i * 4);
      payloads.push_back(i);
      oracle[i * 4] = i;
    }
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    ASSERT_EQ(index.DemoteShard(1), core::SnapshotStatus::kOk);
    ASSERT_EQ(index.DemoteShard(3), core::SnapshotStatus::kOk);
    ASSERT_TRUE(index.IsShardCold(1));
    ASSERT_TRUE(index.IsShardCold(3));
    const std::vector<int64_t> bounds = index.ShardBoundaries();
    ASSERT_EQ(bounds.size(), 3u);
    ASSERT_EQ(bounds[1] % 4, 0);  // shard 2 starts on a loaded key
    // Overlay-only tail of shard 1: three keys between its segment's last
    // key (bounds[1] - 4) and shard 2's first key (bounds[1]).
    const int64_t tail_lo = bounds[1] - 3;
    for (int64_t key = tail_lo; key < bounds[1]; ++key) {
      ASSERT_EQ(index.ShardOf(key), 1u);
      ASSERT_TRUE(index.Insert(key, -key));
      oracle[key] = -key;
    }
    // Overlay entries shadowing segment keys: an update and an erase.
    ASSERT_TRUE(index.Update(bounds[0] + 8, 77));
    oracle[bounds[0] + 8] = 77;
    ASSERT_TRUE(index.Erase(bounds[0] + 12));
    oracle.erase(bounds[0] + 12);
    // Tail of the last (cold) shard, past every bulk-loaded key.
    for (int64_t key = 8000; key < 8004; ++key) {
      ASSERT_TRUE(index.Insert(key, key));
      oracle[key] = key;
    }
    ASSERT_TRUE(index.IsShardCold(1));
    ASSERT_TRUE(index.CheckInvariants());

    const std::vector<std::pair<int64_t, int64_t>> expect(oracle.begin(),
                                                          oracle.end());
    const int64_t lo = std::numeric_limits<int64_t>::lowest();
    const int64_t hi = std::numeric_limits<int64_t>::max();
    // Every stop position: the last key of each shard (a shard boundary,
    // including resident -> cold and cold -> resident), the first key of
    // the next shard, and each key of both overlay-only tails.
    for (size_t k = 1; k <= expect.size() + 1; ++k) {
      CheckEarlyStop(index, lo, hi, expect, k);
    }
    // Stop exactly on the last overlay-only key of cold shard 1: shard 2
    // must never be entered.
    const std::vector<std::pair<int64_t, int64_t>> from_tail(
        oracle.find(tail_lo), oracle.end());
    CheckEarlyStop(index, tail_lo, hi, from_tail, 3);
    CheckEarlyStop(index, tail_lo, hi, from_tail, 2);
  }
  remove_segments();
}

// ---- Torture: continuous scans during leaf splits and topology txns ----
// Built to run under TSan (CI filters on the test name). Scanners assert
// the read-committed contract — strictly sorted output, keys within
// bounds, payloads consistent with what the writer stored — while writers
// force leaf splits and shard split/merge transactions.

TEST(ShardedScanAggregateTest, ContinuousScansDuringTopologyChurn) {
  shard::ShardedOptions options;
  options.num_shards = 4;
  options.max_shard_keys = 8192;    // splits fire during the run
  options.merge_threshold_keys = 0;
  options.scan_threads = 2;
  Sharded index(options);
  // Stable preload: keys [0, 40000) * 4, payload = key. Writers only add
  // keys >= kWriterBase, so the preloaded band must always be visible in
  // full.
  constexpr int64_t kPreload = 40000;
  constexpr int64_t kWriterBase = 1000000;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < kPreload; ++i) {
    keys.push_back(i * 4);
    payloads.push_back(i * 4);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread writer([&] {
    for (int64_t i = 0; i < 60000; ++i) {
      if (!index.Insert(kWriterBase + i, kWriterBase + i)) {
        errors.fetch_add(1);
      }
    }
    stop.store(true);
  });
  std::vector<std::thread> scanners;
  for (int t = 0; t < 2; ++t) {
    scanners.emplace_back([&, t] {
      util::Xoshiro256 rng(100 + t);
      while (!stop.load() && errors.load() == 0) {
        const int64_t lo = static_cast<int64_t>(rng.NextUint64(kPreload * 4));
        const int64_t hi = lo + 4000;
        int64_t prev = std::numeric_limits<int64_t>::min();
        size_t n = 0;
        index.Scan(lo, hi, [&](const int64_t& k, const int64_t& p) {
          if (k < lo || hi < k || k <= prev || p != k) errors.fetch_add(1);
          prev = k;
          ++n;
        });
        // The preloaded band is immutable: the scan must see exactly the
        // preloaded multiples of 4 in [lo, hi].
        const int64_t max_key = (kPreload - 1) * 4;
        const int64_t first = (lo + 3) / 4 * 4;
        const int64_t last = std::min(hi, max_key) / 4 * 4;
        const size_t want =
            last < first ? 0 : static_cast<size_t>((last - first) / 4 + 1);
        if (n != want) errors.fetch_add(1);
        const auto agg = index.Aggregate(lo, hi);
        if (agg.count != want) errors.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& t : scanners) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_TRUE(index.CheckInvariants());
  // Everything the writer added is aggregated correctly afterwards.
  const auto after =
      index.Aggregate(kWriterBase, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(after.count, 60000u);
}

}  // namespace
}  // namespace alex
