// Tests for the tiered-storage layer (src/tier/ + the ShardedAlex
// integration): cold-read correctness against a std::map oracle over a
// mixed hot/cold topology, overlay write semantics (tombstones,
// revival), the demote/promote/compact lifecycle, checkpoint + recovery
// with tier preservation, manifest v4 round-trip and v3 cross-version
// loads, crash-injection stray-segment sweeping, the
// compaction-shrinks-replay acceptance criterion, the traffic-driven
// tiering policy, and a TSan target reading cold shards during
// concurrent tier transitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/serialization.h"
#include "shard/manifest.h"
#include "shard/sharded_alex.h"
#include "tier/segment.h"
#include "wal/log_reader.h"
#include "wal/wal_format.h"
#include "scan_test_util.h"

namespace alex::shard {
namespace {

using Sharded = ShardedAlex<int64_t, int64_t>;
using core::AggField;
using core::AggSpec;
using core::SnapshotStatus;

std::string TempPrefix(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Options with the cold tier enabled at `prefix` (no WAL required) and
/// topology churn disabled so shard indices stay stable.
ShardedOptions TierOpts(size_t shards, const std::string& prefix) {
  ShardedOptions options;
  options.num_shards = shards;
  options.tier_prefix = prefix;
  options.min_rebalance_keys = 1u << 30;
  return options;
}

/// Best-effort cleanup of every file a tiered test can leave behind.
void Cleanup(const std::string& prefix) {
  std::remove(Sharded::ManifestPath(prefix).c_str());
  for (uint64_t gen = 1; gen <= 8; ++gen) {
    for (size_t i = 0; i < 8; ++i) {
      std::remove(Sharded::ShardPath(prefix, gen, i).c_str());
    }
  }
  for (uint64_t id = 1; id <= 64; ++id) {
    std::remove(tier::SegmentPath(prefix, id).c_str());
    std::remove((tier::SegmentPath(prefix, id) + ".tmp").c_str());
  }
  for (const wal::WalSegmentFile& f : wal::ListWalSegments(prefix)) {
    std::remove(f.path.c_str());
  }
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

/// Loads `n` keys with stride 3 and payload = key * 2 + 1, returning the
/// oracle map.
std::map<int64_t, int64_t> BulkLoadStride3(Sharded* index, int64_t n) {
  std::vector<int64_t> keys(n), payloads(n);
  std::map<int64_t, int64_t> oracle;
  for (int64_t i = 0; i < n; ++i) {
    keys[i] = i * 3;
    payloads[i] = keys[i] * 2 + 1;
    oracle[keys[i]] = payloads[i];
  }
  index->BulkLoad(keys.data(), payloads.data(), keys.size());
  return oracle;
}

/// Full-surface equivalence check between the index and the oracle:
/// point reads (hits and misses), batched reads, ordered scans, range
/// scans, and pushed-down aggregates over ranges spanning hot and cold
/// shards alike.
void ExpectMatchesOracle(const Sharded& index,
                         const std::map<int64_t, int64_t>& oracle) {
  ASSERT_EQ(index.size(), oracle.size());
  ASSERT_TRUE(index.CheckInvariants());

  // Point reads: every oracle key hits with the right payload; keys
  // absent from the oracle (the stride-3 gaps) miss.
  for (const auto& [k, v] : oracle) {
    int64_t got = 0;
    ASSERT_TRUE(index.Get(k, &got)) << "key " << k;
    ASSERT_EQ(got, v) << "key " << k;
    if (oracle.count(k + 1) == 0) {
      ASSERT_FALSE(index.Contains(k + 1)) << "gap after " << k;
    }
  }

  // Batched reads in caller (unsorted) order, interleaving misses.
  std::vector<int64_t> probe;
  size_t expect_hits = 0;
  for (const auto& [k, v] : oracle) {
    probe.push_back(k);
    probe.push_back(k + 1);  // usually a stride-3 gap, sometimes a hit
  }
  std::mt19937_64 rng(7);
  std::shuffle(probe.begin(), probe.end(), rng);
  for (const int64_t k : probe) expect_hits += oracle.count(k);
  std::vector<int64_t> got_payloads(probe.size());
  std::vector<uint8_t> found_bytes(probe.size());
  bool* found = reinterpret_cast<bool*>(found_bytes.data());
  const size_t hits =
      index.MultiGet(probe.data(), probe.size(), got_payloads.data(), found);
  EXPECT_EQ(hits, expect_hits);
  for (size_t i = 0; i < probe.size(); ++i) {
    const auto it = oracle.find(probe[i]);
    ASSERT_EQ(found[i], it != oracle.end()) << "key " << probe[i];
    if (found[i]) {
      ASSERT_EQ(got_payloads[i], it->second);
    }
  }

  // Ordered scan over the full range must replay the oracle exactly.
  std::vector<std::pair<int64_t, int64_t>> scanned;
  const size_t visited =
      index.Scan(std::numeric_limits<int64_t>::lowest(),
                 std::numeric_limits<int64_t>::max(),
                 [&](const int64_t& k, const int64_t& p) {
                   scanned.emplace_back(k, p);
                 });
  EXPECT_EQ(visited, oracle.size());
  ASSERT_EQ(scanned.size(), oracle.size());
  size_t i = 0;
  for (const auto& kv : oracle) {
    ASSERT_EQ(scanned[i].first, kv.first);
    ASSERT_EQ(scanned[i].second, kv.second);
    ++i;
  }

  // A scan stopped after a bounded result count, resuming mid-keyspace.
  if (!oracle.empty()) {
    const int64_t mid = std::next(oracle.begin(), oracle.size() / 2)->first;
    std::vector<std::pair<int64_t, int64_t>> ranged;
    const size_t want = std::min<size_t>(100, oracle.size());
    test_util::ScanFirst(index, mid, want, &ranged);
    ASSERT_EQ(ranged.size(),
              std::min<size_t>(want, std::distance(oracle.find(mid),
                                                   oracle.end())));
    auto it = oracle.find(mid);
    for (const auto& kv : ranged) {
      ASSERT_EQ(kv.first, it->first);
      ASSERT_EQ(kv.second, it->second);
      ++it;
    }
  }

  // Aggregates over a range spanning shards: keys field, payloads
  // field, count-only, and a payload filter.
  if (!oracle.empty()) {
    const int64_t lo = std::next(oracle.begin(), oracle.size() / 4)->first;
    const int64_t hi =
        std::next(oracle.begin(), (3 * oracle.size()) / 4)->first;
    uint64_t count = 0;
    int64_t key_sum = 0, pay_sum = 0;
    int64_t key_min = 0, key_max = 0;
    uint64_t filtered = 0;
    const int64_t filter_lo = lo, filter_hi = hi;
    for (auto it = oracle.lower_bound(lo);
         it != oracle.end() && it->first <= hi; ++it) {
      if (count == 0) key_min = it->first;
      key_max = it->first;
      key_sum += it->first;
      pay_sum += it->second;
      if (it->second >= filter_lo && it->second <= filter_hi) ++filtered;
      ++count;
    }
    const auto keys_agg = index.Aggregate(lo, hi);
    EXPECT_EQ(keys_agg.count, count);
    EXPECT_EQ(keys_agg.keys.count, count);
    EXPECT_EQ(keys_agg.keys.sum, key_sum);
    if (count > 0) {
      EXPECT_EQ(keys_agg.keys.min, key_min);
      EXPECT_EQ(keys_agg.keys.max, key_max);
    }
    AggSpec<int64_t> pay_spec;
    pay_spec.field = AggField::kPayloads;
    const auto pay_agg = index.Aggregate(lo, hi, pay_spec);
    EXPECT_EQ(pay_agg.count, count);
    EXPECT_EQ(pay_agg.payloads.sum, pay_sum);
    AggSpec<int64_t> count_spec;
    count_spec.count_only = true;
    EXPECT_EQ(index.Aggregate(lo, hi, count_spec).count, count);
    AggSpec<int64_t> filt_spec;
    filt_spec.count_only = true;
    filt_spec.has_payload_filter = true;
    filt_spec.filter_lo = filter_lo;
    filt_spec.filter_hi = filter_hi;
    EXPECT_EQ(index.Aggregate(lo, hi, filt_spec).count, filtered);
  }
}

// ---- Cold-read correctness ----

TEST(TieredAlexTest, ColdReadsMatchOracleAcrossMixedTopology) {
  const std::string prefix = TempPrefix("tier-oracle");
  Sharded index(TierOpts(4, prefix));
  const auto oracle = BulkLoadStride3(&index, 6000);

  // Demote alternating shards: every cross-shard op now straddles the
  // resident/cold boundary in both directions.
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
  ASSERT_EQ(index.DemoteShard(3), SnapshotStatus::kOk);
  EXPECT_TRUE(index.IsShardCold(1));
  EXPECT_TRUE(index.IsShardCold(3));
  EXPECT_FALSE(index.IsShardCold(0));
  EXPECT_EQ(index.cold_shard_count(), 2u);
  EXPECT_GT(index.ColdBytes(), 0u);
  EXPECT_EQ(index.demotion_count(), 2u);

  ExpectMatchesOracle(index, oracle);
  // Cold point reads route through the block cache.
  EXPECT_GT(index.block_cache().hits() + index.block_cache().misses(), 0u);
  Cleanup(prefix);
}

TEST(TieredAlexTest, ColdWritesLandInDeltaOverlay) {
  const std::string prefix = TempPrefix("tier-overlay");
  Sharded index(TierOpts(2, prefix));
  auto oracle = BulkLoadStride3(&index, 2000);
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);

  // Pick keys squarely inside the cold shard's range.
  const int64_t cold_key = 5100;      // loaded (5100 = 1700 * 3)
  const int64_t fresh_key = 5101;     // gap key, not loaded
  ASSERT_TRUE(index.IsShardCold(index.ShardOf(cold_key)));

  // Insert a new key: lands in the overlay, duplicate insert fails.
  ASSERT_TRUE(index.Insert(fresh_key, -1));
  EXPECT_FALSE(index.Insert(fresh_key, -2));
  oracle[fresh_key] = -1;
  // Duplicate insert of a segment-resident key fails too.
  EXPECT_FALSE(index.Insert(cold_key, -3));

  // Update: shadows the segment record; updating a miss fails.
  ASSERT_TRUE(index.Update(cold_key, 42));
  oracle[cold_key] = 42;
  EXPECT_FALSE(index.Update(5102, 0));  // gap key, never present

  // Erase a segment key (tombstone), then revive it via re-insert.
  const int64_t doomed = 5400;  // 1800 * 3
  ASSERT_TRUE(index.Erase(doomed));
  EXPECT_FALSE(index.Contains(doomed));
  EXPECT_FALSE(index.Erase(doomed));  // double erase
  oracle.erase(doomed);
  ASSERT_TRUE(index.Insert(doomed, 77));  // tombstone revival
  oracle[doomed] = 77;

  // Erase an overlay-only key: the entry disappears outright.
  ASSERT_TRUE(index.Erase(fresh_key));
  oracle.erase(fresh_key);
  EXPECT_FALSE(index.Contains(fresh_key));

  // Batched writes spanning the hot/cold boundary.
  std::vector<int64_t> batch_keys, batch_payloads;
  for (int64_t k = 2995; k < 3010; ++k) {  // straddles both shards
    if (oracle.count(k) != 0) continue;
    batch_keys.push_back(k);
    batch_payloads.push_back(k + 1);
    oracle[k] = k + 1;
  }
  EXPECT_EQ(index.MultiInsert(batch_keys.data(), batch_payloads.data(),
                              batch_keys.size()),
            batch_keys.size());
  EXPECT_EQ(index.MultiErase(batch_keys.data(), 2), 2u);
  oracle.erase(batch_keys[0]);
  oracle.erase(batch_keys[1]);

  EXPECT_TRUE(index.IsShardCold(1));
  ExpectMatchesOracle(index, oracle);
  Cleanup(prefix);
}

// ---- Lifecycle ----

TEST(TieredAlexTest, DemotePromoteCompactLifecycle) {
  const std::string prefix = TempPrefix("tier-lifecycle");
  Sharded index(TierOpts(2, prefix));
  auto oracle = BulkLoadStride3(&index, 2000);

  // Demote is idempotent; promote on a resident shard is a no-op.
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
  EXPECT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
  EXPECT_EQ(index.demotion_count(), 1u);
  EXPECT_EQ(index.PromoteShard(0), SnapshotStatus::kOk);
  EXPECT_EQ(index.promotion_count(), 0u);

  // Dirty the overlay, then compact: contents unchanged, still cold,
  // and a second compaction finds nothing to fold.
  ASSERT_TRUE(index.Update(5100, 42));
  oracle[5100] = 42;
  ASSERT_TRUE(index.Erase(5400));
  oracle.erase(5400);
  EXPECT_EQ(index.Compact(), 1u);
  EXPECT_EQ(index.compaction_count(), 1u);
  EXPECT_TRUE(index.IsShardCold(1));
  ExpectMatchesOracle(index, oracle);
  EXPECT_EQ(index.Compact(), 0u);  // clean overlay: nothing to do

  // Promote: back to a resident tree with identical contents.
  ASSERT_EQ(index.PromoteShard(1), SnapshotStatus::kOk);
  EXPECT_FALSE(index.IsShardCold(1));
  EXPECT_EQ(index.cold_shard_count(), 0u);
  EXPECT_EQ(index.ColdBytes(), 0u);
  EXPECT_EQ(index.promotion_count(), 1u);
  ExpectMatchesOracle(index, oracle);
  Cleanup(prefix);
}

TEST(TieredAlexTest, FullyErasedColdShardCompactsToEmptyResident) {
  const std::string prefix = TempPrefix("tier-erase-all");
  Sharded index(TierOpts(2, prefix));
  auto oracle = BulkLoadStride3(&index, 800);
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);

  // Erase every record the cold shard holds.
  std::vector<int64_t> doomed;
  for (const auto& [k, v] : oracle) {
    if (index.ShardOf(k) == 1) doomed.push_back(k);
  }
  ASSERT_FALSE(doomed.empty());
  for (const int64_t k : doomed) {
    ASSERT_TRUE(index.Erase(k));
    oracle.erase(k);
  }
  // Segments cannot be empty, so compaction lands the shard back in the
  // resident tier with zero keys.
  ASSERT_EQ(index.CompactShard(1), SnapshotStatus::kOk);
  EXPECT_FALSE(index.IsShardCold(1));
  ExpectMatchesOracle(index, oracle);
  Cleanup(prefix);
}

TEST(TieredAlexTest, EmptyShardCannotBeDemoted) {
  const std::string prefix = TempPrefix("tier-empty");
  Sharded index(TierOpts(2, prefix));
  // Nothing loaded: there is no record stream to seal into a segment.
  EXPECT_NE(index.DemoteShard(0), SnapshotStatus::kOk);
  EXPECT_FALSE(index.IsShardCold(0));
  Cleanup(prefix);
}

// ---- Checkpoint + recovery ----

TEST(TieredAlexTest, CheckpointPreservesTierAcrossLoad) {
  const std::string prefix = TempPrefix("tier-checkpoint");
  std::map<int64_t, int64_t> oracle;
  {
    Sharded index(TierOpts(2, prefix));
    oracle = BulkLoadStride3(&index, 2000);
    ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
    // Dirty both tiers after demotion so the checkpoint has to fold the
    // cold shard's overlay into its snapshot image.
    ASSERT_TRUE(index.Insert(1, 111));  // hot shard
    oracle[1] = 111;
    ASSERT_TRUE(index.Update(5100, 42));  // cold shard
    oracle[5100] = 42;
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  }

  Sharded loaded(TierOpts(2, prefix));
  wal::RecoveryReport report;
  ASSERT_EQ(loaded.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(report.records_replayed, 0u);  // no WAL in play
  EXPECT_TRUE(loaded.IsShardCold(1));
  EXPECT_FALSE(loaded.IsShardCold(0));
  ExpectMatchesOracle(loaded, oracle);

  // The reloaded cold shard accepts overlay writes as before.
  ASSERT_TRUE(loaded.Update(5100, 43));
  oracle[5100] = 43;
  ExpectMatchesOracle(loaded, oracle);
  Cleanup(prefix);
}

TEST(TieredAlexTest, RecoveryReplaysColdShardWalTail) {
  const std::string prefix = TempPrefix("tier-replay");
  Sharded index(TierOpts(2, prefix));
  auto oracle = BulkLoadStride3(&index, 2000);
  ASSERT_EQ(index.EnableWal(prefix), wal::WalStatus::kOk);
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);

  // Logged writes past the anchor checkpoint, on both tiers: an
  // insert + update + erase mix that recovery must replay into the
  // cold shard's overlay.
  ASSERT_TRUE(index.Insert(1, 111));  // hot
  oracle[1] = 111;
  ASSERT_TRUE(index.Update(5100, 42));  // cold, shadows segment
  oracle[5100] = 42;
  ASSERT_TRUE(index.Erase(5400));  // cold, tombstone
  oracle.erase(5400);
  ASSERT_TRUE(index.Insert(5101, -5));  // cold, fresh overlay key
  oracle[5101] = -5;

  // Crash-recover into a second instance: the demotion predates the
  // anchor checkpoint's manifest, so the tail replays into whatever
  // tier the manifest recorded for each shard.
  Sharded recovered(TierOpts(2, prefix));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_GE(report.records_replayed, 4u);
  ExpectMatchesOracle(recovered, oracle);
  Cleanup(prefix);
}

TEST(TieredAlexTest, CompactionShrinksReplayChain) {
  const std::string prefix = TempPrefix("tier-compact-replay");
  Sharded index(TierOpts(2, prefix));
  auto oracle = BulkLoadStride3(&index, 2000);
  ASSERT_EQ(index.EnableWal(prefix), wal::WalStatus::kOk);
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);

  // A burst of logged cold-tier writes accumulates overlay entries and
  // a matching WAL tail.
  constexpr int64_t kBurst = 500;
  for (int64_t i = 0; i < kBurst; ++i) {
    const int64_t k = 5100 + i * 3;  // cold shard keys
    if (oracle.count(k) != 0) {
      ASSERT_TRUE(index.Update(k, -i));
    } else {
      ASSERT_TRUE(index.Insert(k, -i));
    }
    oracle[k] = -i;
  }

  // Recovery before compaction replays the whole burst.
  size_t replayed_before = 0;
  {
    Sharded probe(TierOpts(2, prefix));
    wal::RecoveryReport report;
    ASSERT_EQ(probe.LoadFrom(prefix, &report), SnapshotStatus::kOk);
    replayed_before = report.records_replayed;
    EXPECT_GE(replayed_before, static_cast<size_t>(kBurst));
    ExpectMatchesOracle(probe, oracle);
  }

  // Compact (folds the overlay into a fresh segment) and checkpoint:
  // the next recovery starts from the compacted segment and replays
  // nothing — the checkpoint-to-checkpoint chain shrank to zero.
  EXPECT_EQ(index.Compact(), 1u);
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  {
    Sharded probe(TierOpts(2, prefix));
    wal::RecoveryReport report;
    ASSERT_EQ(probe.LoadFrom(prefix, &report), SnapshotStatus::kOk);
    EXPECT_LT(report.records_replayed, replayed_before);
    EXPECT_EQ(report.records_replayed, 0u);
    EXPECT_TRUE(probe.IsShardCold(1));
    ExpectMatchesOracle(probe, oracle);
  }
  Cleanup(prefix);
}

// ---- Manifest formats ----

/// Writes `manifest` in the v3 on-disk format (no tier arrays, no
/// next-segment-id watermark) — the layout v3-era builds produced.
void WriteV3Manifest(const std::string& path,
                     const ShardManifest<int64_t>& manifest) {
  ManifestHeader header;
  header.magic = internal::kManifestMagic;
  header.version = 3;
  header.key_size = sizeof(int64_t);
  header.num_shards = manifest.num_shards();
  header.total_keys = manifest.total_keys();
  header.generation = manifest.generation;
  header.next_wal_id = manifest.next_wal_id;
  header.topology_epoch = manifest.topology_epoch;
  header.router_slope = manifest.router_model.slope();
  header.router_intercept = manifest.router_model.intercept();
  std::vector<uint64_t> wal_ids = manifest.wal_ids;
  std::vector<uint64_t> checkpoint_lsns = manifest.checkpoint_lsns;
  wal_ids.resize(manifest.num_shards(), 0);
  checkpoint_lsns.resize(manifest.num_shards(), 0);

  uint64_t checksum = internal::Fnv1a(&header, sizeof(header),
                                      core::internal::kFnvOffsetBasis);
  checksum = internal::Fnv1a(manifest.boundaries.data(),
                             manifest.boundaries.size() * sizeof(int64_t),
                             checksum);
  checksum = internal::Fnv1a(manifest.shard_keys.data(),
                             manifest.shard_keys.size() * sizeof(uint64_t),
                             checksum);
  checksum = internal::Fnv1a(wal_ids.data(),
                             wal_ids.size() * sizeof(uint64_t), checksum);
  checksum = internal::Fnv1a(checkpoint_lsns.data(),
                             checkpoint_lsns.size() * sizeof(uint64_t),
                             checksum);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(&header, sizeof(header), 1, f), 1u);
  if (!manifest.boundaries.empty()) {
    ASSERT_EQ(std::fwrite(manifest.boundaries.data(), sizeof(int64_t),
                          manifest.boundaries.size(), f),
              manifest.boundaries.size());
  }
  ASSERT_EQ(std::fwrite(manifest.shard_keys.data(), sizeof(uint64_t),
                        manifest.shard_keys.size(), f),
            manifest.shard_keys.size());
  ASSERT_EQ(std::fwrite(wal_ids.data(), sizeof(uint64_t), wal_ids.size(),
                        f),
            wal_ids.size());
  ASSERT_EQ(std::fwrite(checkpoint_lsns.data(), sizeof(uint64_t),
                        checkpoint_lsns.size(), f),
            checkpoint_lsns.size());
  ASSERT_EQ(std::fwrite(&checksum, sizeof(checksum), 1, f), 1u);
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(TieredAlexTest, ManifestV4RoundTripsTierState) {
  ShardManifest<int64_t> manifest;
  manifest.boundaries = {1000};
  manifest.shard_keys = {400, 600};
  manifest.wal_ids = {3, 4};
  manifest.checkpoint_lsns = {17, 23};
  manifest.tier_tags = {internal::kTierResident, internal::kTierCold};
  manifest.segment_ids = {0, 9};
  manifest.next_segment_id = 10;
  manifest.generation = 2;
  const std::string path = TempPrefix("tier-manifest-v4") + ".manifest";
  ASSERT_EQ(WriteManifest(path, manifest), SnapshotStatus::kOk);

  ShardManifest<int64_t> loaded;
  ASSERT_EQ(ReadManifest<int64_t>(path, &loaded), SnapshotStatus::kOk);
  EXPECT_EQ(loaded.tier_tags, manifest.tier_tags);
  EXPECT_EQ(loaded.segment_ids, manifest.segment_ids);
  EXPECT_EQ(loaded.next_segment_id, 10u);
  EXPECT_TRUE(loaded.IsCold(1));
  EXPECT_FALSE(loaded.IsCold(0));

  // A tier tag outside {resident, cold} is rejected even when the
  // checksum validates (foreign-writer defense).
  manifest.tier_tags = {7, internal::kTierCold};
  ASSERT_EQ(WriteManifest(path, manifest), SnapshotStatus::kOk);
  EXPECT_EQ(ReadManifest<int64_t>(path, &loaded),
            SnapshotStatus::kManifestMismatch);
  std::remove(path.c_str());
}

TEST(TieredAlexTest, V3ManifestLoadsAllResident) {
  // Unit level: a v3 body reads back with implicit all-resident tiers.
  ShardManifest<int64_t> manifest;
  manifest.boundaries = {500};
  manifest.shard_keys = {2, 2};
  const std::string path = TempPrefix("tier-manifest-v3") + ".manifest";
  WriteV3Manifest(path, manifest);
  ShardManifest<int64_t> loaded;
  ASSERT_EQ(ReadManifest<int64_t>(path, &loaded), SnapshotStatus::kOk);
  ASSERT_EQ(loaded.tier_tags.size(), 2u);
  EXPECT_FALSE(loaded.IsCold(0));
  EXPECT_FALSE(loaded.IsCold(1));
  EXPECT_EQ(loaded.next_segment_id, 0u);
  std::remove(path.c_str());

  // Full stack: rewrite a fresh v4 checkpoint's manifest in the v3
  // format and load the whole snapshot through it.
  const std::string prefix = TempPrefix("tier-v3-load");
  Sharded index(TierOpts(2, prefix));
  const auto oracle = BulkLoadStride3(&index, 1000);
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  ShardManifest<int64_t> saved;
  ASSERT_EQ(ReadManifest<int64_t>(Sharded::ManifestPath(prefix), &saved),
            SnapshotStatus::kOk);
  WriteV3Manifest(Sharded::ManifestPath(prefix), saved);

  Sharded loaded_index(TierOpts(2, prefix));
  ASSERT_EQ(loaded_index.LoadFrom(prefix), SnapshotStatus::kOk);
  ExpectMatchesOracle(loaded_index, oracle);
  Cleanup(prefix);
}

// ---- Crash injection + corruption ----

TEST(TieredAlexTest, CheckpointSweepsStraySegments) {
  const std::string prefix = TempPrefix("tier-stray");
  {
    Sharded index(TierOpts(2, prefix));
    BulkLoadStride3(&index, 2000);
    ASSERT_EQ(index.EnableWal(prefix), wal::WalStatus::kOk);
    // Demote after the anchor checkpoint: the segment file lands on
    // disk, but the committed manifest still calls the shard resident —
    // exactly the state a crash between segment write and manifest
    // rename leaves behind.
    ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
    ASSERT_TRUE(FileExists(tier::SegmentPath(prefix, 1)));
  }
  // More crash debris: an unreferenced segment with a high id and a
  // torn temp file from an interrupted segment write.
  const std::string stray_seg = tier::SegmentPath(prefix, 9);
  const std::string stray_tmp = tier::SegmentPath(prefix, 3) + ".tmp";
  for (const std::string& path : {stray_seg, stray_tmp}) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("debris", f);
    std::fclose(f);
  }

  Sharded recovered(TierOpts(2, prefix));
  ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
  // The manifest predates the demotion, so the shard comes back
  // resident; the orphaned segment is still on disk (LoadFrom never
  // deletes), and the next checkpoint sweeps all three strays.
  EXPECT_FALSE(recovered.IsShardCold(1));
  EXPECT_TRUE(FileExists(tier::SegmentPath(prefix, 1)));
  ASSERT_EQ(recovered.SaveTo(prefix), SnapshotStatus::kOk);
  EXPECT_FALSE(FileExists(tier::SegmentPath(prefix, 1)));
  EXPECT_FALSE(FileExists(stray_seg));
  EXPECT_FALSE(FileExists(stray_tmp));

  // The stray scan raised the id watermark past the debris: a fresh
  // demotion allocates above it instead of recycling swept names.
  ASSERT_EQ(recovered.DemoteShard(1), SnapshotStatus::kOk);
  EXPECT_TRUE(FileExists(tier::SegmentPath(prefix, 10)));
  Cleanup(prefix);
}

TEST(TieredAlexTest, CorruptOrMissingSegmentIsRejectedDistinctly) {
  const std::string prefix = TempPrefix("tier-corrupt");
  Sharded index(TierOpts(2, prefix));
  BulkLoadStride3(&index, 2000);
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  ShardManifest<int64_t> manifest;
  ASSERT_EQ(ReadManifest<int64_t>(Sharded::ManifestPath(prefix), &manifest),
            SnapshotStatus::kOk);
  ASSERT_TRUE(manifest.IsCold(1));
  const std::string seg_path =
      tier::SegmentPath(prefix, manifest.segment_ids[1]);
  ASSERT_TRUE(FileExists(seg_path));

  // Flip one byte in the last data block: the per-block checksum trips
  // and the load reports segment corruption, not a generic mismatch.
  {
    std::FILE* f = std::fopen(seg_path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -8, SEEK_END), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, -8, SEEK_END), 0);
    ASSERT_EQ(std::fputc(c ^ 0xFF, f), c ^ 0xFF);
    std::fclose(f);
  }
  {
    Sharded probe(TierOpts(2, prefix));
    EXPECT_EQ(probe.LoadFrom(prefix), SnapshotStatus::kSegmentCorrupt);
    EXPECT_EQ(probe.size(), 0u);  // failed load left it untouched
  }

  // A manifest-referenced segment the filesystem lacks is the same
  // distinct error as a missing shard snapshot.
  ASSERT_EQ(std::remove(seg_path.c_str()), 0);
  {
    Sharded probe(TierOpts(2, prefix));
    EXPECT_EQ(probe.LoadFrom(prefix), SnapshotStatus::kMissingShard);
  }
  Cleanup(prefix);
}

// ---- Tiering policy ----

TEST(TieredAlexTest, TieringTickDemotesIdleShardsAndPromotesHotOnes) {
  const std::string prefix = TempPrefix("tier-policy");
  ShardedOptions options = TierOpts(4, prefix);
  options.tier_min_window_ops = 16;
  options.tier_min_demote_keys = 16;
  Sharded index(options);
  const auto oracle = BulkLoadStride3(&index, 4000);

  // Concentrate all traffic on shard 0: the idle shards demote, the
  // hot one stays resident.
  std::vector<int64_t> shard0_keys, shard3_keys;
  for (const auto& [k, v] : oracle) {
    if (index.ShardOf(k) == 0) shard0_keys.push_back(k);
    if (index.ShardOf(k) == 3) shard3_keys.push_back(k);
  }
  ASSERT_FALSE(shard0_keys.empty());
  ASSERT_FALSE(shard3_keys.empty());
  int64_t sink = 0;
  for (int round = 0; round < 4; ++round) {
    for (const int64_t k : shard0_keys) index.Get(k, &sink);
  }
  EXPECT_EQ(index.TieringTick(), 3u);
  EXPECT_FALSE(index.IsShardCold(0));
  EXPECT_TRUE(index.IsShardCold(1));
  EXPECT_TRUE(index.IsShardCold(2));
  EXPECT_TRUE(index.IsShardCold(3));

  // Shift the traffic onto (cold) shard 3: sustained reads earn it a
  // promotion back to the resident tier.
  for (int round = 0; round < 4; ++round) {
    for (const int64_t k : shard3_keys) index.Get(k, &sink);
  }
  EXPECT_GE(index.TieringTick(), 1u);
  EXPECT_FALSE(index.IsShardCold(3));
  EXPECT_GE(index.promotion_count(), 1u);
  ExpectMatchesOracle(index, oracle);
  Cleanup(prefix);
}

TEST(TieredAlexTest, BackgroundTieringThreadStartsAndStops) {
  const std::string prefix = TempPrefix("tier-thread");
  ShardedOptions options = TierOpts(2, prefix);
  options.tier_min_window_ops = 8;
  options.tier_min_demote_keys = 8;
  Sharded index(options);
  const auto oracle = BulkLoadStride3(&index, 1000);

  index.StartTiering(/*interval_ms=*/5);
  index.StartTiering(5);  // idempotent
  std::vector<int64_t> shard0_keys;
  for (const auto& [k, v] : oracle) {
    if (index.ShardOf(k) == 0) shard0_keys.push_back(k);
  }
  int64_t sink = 0;
  for (int round = 0; round < 50; ++round) {
    for (const int64_t k : shard0_keys) index.Get(k, &sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  index.StopTiering();
  index.StopTiering();  // idempotent
  ExpectMatchesOracle(index, oracle);
  Cleanup(prefix);
}

// ---- Concurrency (TSan target) ----

TEST(TieredAlexTest, ColdReadsDuringConcurrentTierTransitions) {
  const std::string prefix = TempPrefix("tier-race");
  Sharded index(TierOpts(2, prefix));
  constexpr int64_t kN = 3000;
  std::vector<int64_t> keys(kN), payloads(kN);
  for (int64_t i = 0; i < kN; ++i) {
    keys[i] = i * 3;
    payloads[i] = i * 6 + 1;
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  // Readers hammer point lookups and scans; bulk-loaded payloads never
  // change, so any torn read is a hard failure.
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t i = static_cast<int64_t>(rng() % kN);
        int64_t got = 0;
        ASSERT_TRUE(index.Get(keys[i], &got));
        ASSERT_EQ(got, payloads[i]);
        if ((rng() & 7) == 0) {
          const int64_t lo = keys[i];
          size_t seen = 0;
          int64_t prev = std::numeric_limits<int64_t>::lowest();
          index.Scan(lo, lo + 300, [&](const int64_t& k, const int64_t&) {
            ASSERT_GT(k, prev);
            prev = k;
            ++seen;
          });
          ASSERT_GE(seen, 1u);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // A writer churns overlay-only keys (gap keys, disjoint from the
  // bulk-loaded set) so tier transitions race live overlay mutation.
  std::thread writer([&] {
    std::mt19937_64 rng(999);
    while (!stop.load(std::memory_order_relaxed)) {
      const int64_t k = static_cast<int64_t>(rng() % kN) * 3 + 1;
      if (!index.Insert(k, -k)) index.Erase(k);
    }
  });

  // Main thread cycles both shards through demote → promote while the
  // readers and writer run.
  for (int cycle = 0; cycle < 25; ++cycle) {
    for (size_t s = 0; s < 2; ++s) {
      ASSERT_EQ(index.DemoteShard(s), SnapshotStatus::kOk);
    }
    for (size_t s = 0; s < 2; ++s) {
      ASSERT_EQ(index.PromoteShard(s), SnapshotStatus::kOk);
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_TRUE(index.CheckInvariants());
  // Every bulk-loaded record survived the churn.
  for (int64_t i = 0; i < kN; ++i) {
    int64_t got = 0;
    ASSERT_TRUE(index.Get(keys[i], &got));
    ASSERT_EQ(got, payloads[i]);
  }
  Cleanup(prefix);
}

}  // namespace
}  // namespace alex::shard
