// End-to-end crash-recovery tests for the WAL-integrated sharded index:
// the kill-and-recover acceptance scenario, recovery edge cases (empty
// log, replay idempotence, torn tail, mid-segment corruption, recovery
// across a shard split), sync-policy coverage, concurrent writers
// against the logged write path (a TSan target), writers racing the
// anchor checkpoint of EnableWal and a logging BulkLoad, crashes before
// those checkpoints sweep the logs they superseded, the sorted-run
// recovery of every shard shape against a seeded sequential oracle, and
// the report's per-phase timing.
#include "shard/sharded_alex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/timer.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"
#include "wal/wal_format.h"
#include "scan_test_util.h"
#include "prefix_test_util.h"

namespace alex::shard {
namespace {

using Sharded = ShardedAlex<int64_t, int64_t>;
using core::SnapshotStatus;
using wal::SyncPolicy;
using wal::WalStatus;

std::string TempPrefix(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

wal::WalOptions Wal(SyncPolicy policy) {
  wal::WalOptions options;
  options.sync_policy = policy;
  return options;
}

ShardedOptions Opts(size_t shards) {
  ShardedOptions options;
  options.num_shards = shards;
  return options;
}

/// Asserts `index` holds exactly keys [0, n) with payload key*7.
void ExpectDenseContents(Sharded& index, int64_t n) {
  ASSERT_EQ(index.size(), static_cast<size_t>(n));
  int64_t v = 0;
  for (int64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(index.Get(k, &v)) << "key " << k;
    ASSERT_EQ(v, k * 7) << "key " << k;
  }
  EXPECT_TRUE(index.CheckInvariants());
}

// ---- The acceptance scenario ----

TEST(WalRecoveryTest, KillAndRecoverAcrossACheckpoint) {
  // Write N keys under kAlways, checkpoint, write M more, "crash" (drop
  // the index without SaveTo), recover: all N+M keys must come back.
  const std::string prefix = TempPrefix("recover-acceptance");
  test_util::RemovePrefixFiles(prefix);
  constexpr int64_t kN = 2000, kM = 500;
  {
    Sharded index(Opts(4));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    for (int64_t k = 0; k < kN; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);  // checkpoint
    for (int64_t k = kN; k < kN + kM; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
    EXPECT_EQ(index.last_wal_error(), WalStatus::kOk);
  }  // index dropped: the M post-checkpoint keys exist only in the log

  Sharded recovered(Opts(4));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(report.status, WalStatus::kOk);
  EXPECT_EQ(report.records_replayed, static_cast<size_t>(kM));
  ExpectDenseContents(recovered, kN + kM);
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, TornFinalRecordLosesAtMostThatRecord) {
  const std::string prefix = TempPrefix("recover-torn");
  test_util::RemovePrefixFiles(prefix);
  constexpr int64_t kN = 400;
  {
    ShardedOptions options = Opts(1);  // one shard -> one log file
    Sharded index(options);
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    for (int64_t k = 0; k < kN; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
  }
  // Tear the final record mid-write.
  const std::vector<wal::WalSegmentFile> segments =
      wal::ListWalSegments(prefix);
  ASSERT_EQ(segments.size(), 1u);
  std::FILE* f = std::fopen(segments[0].path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(::truncate(segments[0].path.c_str(), size - 7), 0);

  Sharded recovered(Opts(1));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_TRUE(report.tail_truncated);
  ExpectDenseContents(recovered, kN - 1);  // exactly the torn key lost
  int64_t v = 0;
  EXPECT_FALSE(recovered.Get(kN - 1, &v));

  // The torn tail was physically truncated: a second recovery replays a
  // clean log to the same state (replay idempotence after repair).
  Sharded again(Opts(1));
  ASSERT_EQ(again.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_FALSE(report.tail_truncated);
  ExpectDenseContents(again, kN - 1);
  test_util::RemovePrefixFiles(prefix);
}

// ---- Edge cases ----

TEST(WalRecoveryTest, EmptyLogRecoversTheSnapshotExactly) {
  const std::string prefix = TempPrefix("recover-emptylog");
  test_util::RemovePrefixFiles(prefix);
  constexpr int64_t kN = 1000;
  {
    Sharded index(Opts(3));
    std::vector<int64_t> keys, payloads;
    for (int64_t k = 0; k < kN; ++k) {
      keys.push_back(k);
      payloads.push_back(k * 7);
    }
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    // EnableWal's anchor checkpoint is the only durability act; no write
    // ever reaches the logs.
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kBatch)),
              WalStatus::kOk);
  }
  Sharded recovered(Opts(3));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(report.records_replayed, 0u);
  ExpectDenseContents(recovered, kN);
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, ReplayIsIdempotentAcrossRepeatedLoads) {
  const std::string prefix = TempPrefix("recover-idem");
  test_util::RemovePrefixFiles(prefix);
  constexpr int64_t kN = 600;
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kNone)),
              WalStatus::kOk);
    for (int64_t k = 0; k < kN; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
    // Mixed mutations on top: updates, erases, failed duplicates.
    ASSERT_TRUE(index.Update(10, 70));
    ASSERT_TRUE(index.Erase(11));
    EXPECT_FALSE(index.Insert(12, -1));  // duplicate: logged but a no-op
  }
  Sharded first(Opts(2)), second(Opts(2));
  ASSERT_EQ(first.LoadFrom(prefix), SnapshotStatus::kOk);
  ASSERT_EQ(second.LoadFrom(prefix), SnapshotStatus::kOk);  // replay #2
  EXPECT_EQ(first.size(), second.size());
  EXPECT_EQ(first.size(), static_cast<size_t>(kN - 1));
  std::vector<std::pair<int64_t, int64_t>> a, b;
  test_util::ScanAll(first, &a);
  test_util::ScanAll(second, &b);
  EXPECT_EQ(a, b);
  int64_t v = 0;
  ASSERT_TRUE(second.Get(10, &v));
  EXPECT_EQ(v, 70);  // update survived
  EXPECT_FALSE(second.Contains(11));  // erase survived
  ASSERT_TRUE(second.Get(12, &v));
  EXPECT_EQ(v, 12 * 7);  // duplicate insert stayed a no-op
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, ChecksumFlipMidSegmentFailsRecoveryUntouched) {
  const std::string prefix = TempPrefix("recover-flip");
  test_util::RemovePrefixFiles(prefix);
  {
    Sharded index(Opts(1));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    for (int64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(index.Insert(k, k));
    }
  }
  const std::vector<wal::WalSegmentFile> segments =
      wal::ListWalSegments(prefix);
  ASSERT_EQ(segments.size(), 1u);
  // Flip a byte early in the record stream (well before the tail span).
  std::FILE* f = std::fopen(segments[0].path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const long offset =
      static_cast<long>(sizeof(wal::WalSegmentHeader)) + 100;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);

  Sharded recovered(Opts(1));
  recovered.Insert(42, 42);
  wal::RecoveryReport report;
  EXPECT_EQ(recovered.LoadFrom(prefix, &report),
            SnapshotStatus::kWalReplayFailed);
  EXPECT_TRUE(report.status == WalStatus::kChecksumMismatch ||
              report.status == WalStatus::kBadRecordType ||
              report.status == WalStatus::kBadRecordLength)
      << report.status;
  EXPECT_FALSE(report.detail.empty());
  // The failed recovery left the live index untouched.
  int64_t v = 0;
  EXPECT_TRUE(recovered.Get(42, &v));
  EXPECT_EQ(recovered.size(), 1u);
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, RecoversAcrossShardSplits) {
  // Force online splits while logging: the victims' sealed segments and
  // the replacements' fresh segments must chain through recovery.
  const std::string prefix = TempPrefix("recover-split");
  test_util::RemovePrefixFiles(prefix);
  constexpr int64_t kN = 12000;
  uint64_t splits = 0;
  {
    ShardedOptions options = Opts(1);
    options.min_rebalance_keys = 256;
    options.max_shard_keys = 1024;
    Sharded index(options);
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kNone)),
              WalStatus::kOk);
    for (int64_t k = 0; k < kN; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
    splits = index.rebalance_count();
    ASSERT_GT(splits, 0u) << "test needs actual splits to exercise";
    EXPECT_EQ(index.last_wal_error(), WalStatus::kOk);
    // Several lineages must exist on disk (sealed parents + children).
    EXPECT_GT(wal::ListWalSegments(prefix).size(), 1u);
  }
  Sharded recovered(Opts(1));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(report.status, WalStatus::kOk);
  ExpectDenseContents(recovered, kN);
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, CheckpointRotationPrunesSegmentsAndStaysRecoverable) {
  const std::string prefix = TempPrefix("recover-rotate");
  test_util::RemovePrefixFiles(prefix);
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kBatch)),
              WalStatus::kOk);
    for (int64_t k = 0; k < 500; ++k) ASSERT_TRUE(index.Insert(k, k * 7));
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
    for (int64_t k = 500; k < 800; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
    for (int64_t k = 800; k < 900; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
    // Two checkpoints rotated twice: only the current segments remain.
    EXPECT_EQ(wal::ListWalSegments(prefix).size(), index.num_shards());
  }
  Sharded recovered(Opts(2));
  ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
  ExpectDenseContents(recovered, 900);
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, EnableAfterRecoverResumesLoggingCleanly) {
  // The documented restart lifecycle: LoadFrom + EnableWal + more writes
  // + a second crash must recover everything.
  const std::string prefix = TempPrefix("recover-resume");
  test_util::RemovePrefixFiles(prefix);
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    for (int64_t k = 0; k < 300; ++k) ASSERT_TRUE(index.Insert(k, k * 7));
  }
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.LoadFrom(prefix), SnapshotStatus::kOk);
    EXPECT_FALSE(index.wal_enabled());  // recovery does not auto-resume
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    EXPECT_TRUE(index.wal_enabled());
    EXPECT_EQ(index.EnableWal(prefix), WalStatus::kAlreadyEnabled);
    for (int64_t k = 300; k < 500; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
  }
  Sharded recovered(Opts(2));
  ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
  ExpectDenseContents(recovered, 500);
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, PlainSaveAfterRecoverySweepsReplayedSegments) {
  // After a recovery, a plain SaveTo (no EnableWal) commits a manifest
  // with no checkpoint LSNs; the replayed segments must be swept with
  // it, or the next load would replay them from LSN 0 over the newer
  // snapshot (resurrecting erased keys).
  const std::string prefix = TempPrefix("recover-plainsave");
  test_util::RemovePrefixFiles(prefix);
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    for (int64_t k = 0; k < 300; ++k) ASSERT_TRUE(index.Insert(k, k * 7));
  }
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.LoadFrom(prefix), SnapshotStatus::kOk);
    // Post-recovery, unlogged: erase a key, then snapshot without
    // re-enabling the WAL.
    ASSERT_TRUE(index.Erase(299));
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
    EXPECT_TRUE(wal::ListWalSegments(prefix).empty());
  }
  Sharded loaded(Opts(2));
  ASSERT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kOk);
  ExpectDenseContents(loaded, 299);  // the erase survived; no stale replay
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, BulkLoadWhileLoggingAutoCheckpoints) {
  const std::string prefix = TempPrefix("recover-bulk");
  test_util::RemovePrefixFiles(prefix);
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kBatch)),
              WalStatus::kOk);
    ASSERT_TRUE(index.Insert(123456789, 1));  // pre-bulk write
    std::vector<int64_t> keys, payloads;
    for (int64_t k = 0; k < 2000; ++k) {
      keys.push_back(k);
      payloads.push_back(k * 7);
    }
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    EXPECT_EQ(index.last_wal_error(), WalStatus::kOk);
    for (int64_t k = 2000; k < 2100; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
  }
  Sharded recovered(Opts(2));
  ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
  // The bulk load replaced everything (including the pre-bulk key).
  ExpectDenseContents(recovered, 2100);
  int64_t v = 0;
  EXPECT_FALSE(recovered.Get(123456789, &v));
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, RecoveryFromLogsAloneWithoutManifest) {
  // A by-hand lineage with no snapshot at all: LoadFrom must recover
  // from an empty state plus the logs.
  const std::string prefix = TempPrefix("recover-nomanifest");
  test_util::RemovePrefixFiles(prefix);
  {
    wal::ShardLog<int64_t, int64_t> log(prefix, 1, 0, 1, 0,
                                        Wal(SyncPolicy::kNone));
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    for (int64_t k = 0; k < 50; ++k) {
      const int64_t v = k * 7;
      ASSERT_EQ(log.Log(wal::WalRecordType::kInsert, k, &v),
                WalStatus::kOk);
    }
  }
  Sharded recovered(Opts(2));
  ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
  ExpectDenseContents(recovered, 50);
  test_util::RemovePrefixFiles(prefix);
}

// ---- Boundary-preserving recovery ----

TEST(WalRecoveryTest, RecoveryPreservesShardBoundaries) {
  // The acceptance round trip: save → crash → load must restore the
  // exact pre-crash boundary array (the topology the workload carved
  // out), with each shard replaying its own log tail — not a
  // repartition of a merged map.
  const std::string prefix = TempPrefix("recover-boundaries");
  test_util::RemovePrefixFiles(prefix);
  std::vector<int64_t> bounds_at_checkpoint;
  constexpr int64_t kN = 6000, kM = 900;
  {
    Sharded index(Opts(4));
    std::vector<int64_t> keys, payloads;
    for (int64_t k = 0; k < kN; ++k) {
      keys.push_back(k);
      payloads.push_back(k * 7);
    }
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    bounds_at_checkpoint = index.ShardBoundaries();
    ASSERT_EQ(bounds_at_checkpoint.size(), 3u);
    // Post-checkpoint tail: writes into every shard's log.
    for (int64_t k = kN; k < kN + kM; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
    ASSERT_TRUE(index.Update(10, 10 * 7));
    ASSERT_TRUE(index.Erase(kN + kM - 1));
    ASSERT_TRUE(index.Insert(kN + kM - 1, (kN + kM - 1) * 7));
  }  // crash

  Sharded recovered(Opts(4));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(recovered.ShardBoundaries(), bounds_at_checkpoint);
  EXPECT_EQ(recovered.num_shards(), 4u);
  ExpectDenseContents(recovered, kN + kM);
  // The per-shard breakdown names every shard and sums to the
  // aggregate; the post-checkpoint tail landed in the last shard.
  ASSERT_EQ(report.shards.size(), 4u);
  size_t replayed = 0;
  for (size_t i = 0; i < report.shards.size(); ++i) {
    EXPECT_EQ(report.shards[i].shard, i);
    EXPECT_NE(report.shards[i].wal_id, 0u);
    EXPECT_FALSE(report.shards[i].tail_truncated);
    replayed += report.shards[i].records_replayed;
  }
  EXPECT_EQ(replayed, report.records_replayed);
  // The tail routed almost entirely to the last shard; the lone
  // Update(10) is shard 0's whole tail; shards 1-2 were idle.
  EXPECT_EQ(report.shards[0].records_replayed, 1u);
  EXPECT_EQ(report.shards[1].records_replayed, 0u);
  EXPECT_EQ(report.shards[2].records_replayed, 0u);
  EXPECT_EQ(report.shards[3].records_replayed,
            static_cast<size_t>(kM) + 2);
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, MergeAndSplitInterleavingLineageReplay) {
  // Topology churn after the checkpoint: splits create single-parent
  // children, merges create multi-parent children (the kTopology
  // record), and recovery must chain both kinds back to the manifest's
  // anchors — restoring the checkpoint topology with no key lost.
  const std::string prefix = TempPrefix("recover-interleave");
  test_util::RemovePrefixFiles(prefix);
  std::vector<int64_t> bounds_at_checkpoint;
  uint64_t splits = 0, merges = 0;
  constexpr int64_t kN = 6000;
  {
    ShardedOptions options = Opts(4);
    options.min_rebalance_keys = 512;
    options.max_shard_keys = 2048;
    options.merge_threshold_keys = 512;
    Sharded index(options);
    std::vector<int64_t> keys, payloads;
    for (int64_t k = 0; k < kN; ++k) {
      keys.push_back(k * 2);
      payloads.push_back(k * 7);
    }
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kNone)),
              WalStatus::kOk);
    bounds_at_checkpoint = index.ShardBoundaries();
    // Splits: hammer the top of the key space past the absolute bound.
    for (int64_t k = 0; k < 4000; ++k) {
      ASSERT_TRUE(index.Insert(kN * 2 + k, k));
    }
    // Merges: empty out the bottom shards.
    for (int64_t k = 0; k < kN; ++k) {
      ASSERT_TRUE(index.Erase(k * 2));
    }
    // More writes on the merged children's logs.
    for (int64_t k = 0; k < 500; ++k) {
      ASSERT_TRUE(index.Insert(k * 2 + 1, k));
    }
    splits = index.rebalance_count();
    merges = index.merge_count();
    ASSERT_GT(splits, 0u) << "test needs splits to interleave";
    ASSERT_GT(merges, 0u) << "test needs merges to interleave";
    EXPECT_EQ(index.last_wal_error(), WalStatus::kOk);
    EXPECT_EQ(index.topology_epoch(), splits + merges);
  }  // crash

  Sharded recovered(Opts(4));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(report.status, WalStatus::kOk);
  // Boundary-preserving: the recovered topology is the checkpoint's
  // (the post-checkpoint churn is collapsed back into it).
  EXPECT_EQ(recovered.ShardBoundaries(), bounds_at_checkpoint);
  // Contents are the crash-time state: 4000 high keys + 500 odd keys.
  EXPECT_EQ(recovered.size(), 4500u);
  int64_t v = 0;
  for (int64_t k = 0; k < 4000; ++k) {
    ASSERT_TRUE(recovered.Get(kN * 2 + k, &v)) << k;
    ASSERT_EQ(v, k);
  }
  for (int64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(recovered.Get(k * 2 + 1, &v)) << k;
    ASSERT_EQ(v, k);
  }
  EXPECT_FALSE(recovered.Contains(0));
  EXPECT_TRUE(recovered.CheckInvariants());
  // The epoch the checkpoint captured (0 — churn came after) survived;
  // post-crash the counter restarts from the manifest's value.
  EXPECT_EQ(recovered.topology_epoch(), 0u);
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, PerShardReportNamesTheShardThatLostItsTail) {
  // Two shards, both with post-checkpoint writes; tear the tail of
  // shard 1's log. The per-shard report must flag exactly shard 1.
  const std::string prefix = TempPrefix("recover-pershard");
  test_util::RemovePrefixFiles(prefix);
  {
    Sharded index(Opts(2));
    std::vector<int64_t> keys, payloads;
    for (int64_t k = 0; k < 2000; ++k) {
      keys.push_back(k);
      payloads.push_back(k * 7);
    }
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    // One write into each shard's log, in shard order.
    ASSERT_TRUE(index.Insert(-5, -5 * 7));      // shard 0
    ASSERT_TRUE(index.Insert(100000, 1));       // shard 1
    ASSERT_TRUE(index.Insert(100001, 2));       // shard 1
  }
  // Tear the last record of the *second* shard's (higher wal id) log.
  const std::vector<wal::WalSegmentFile> segments =
      wal::ListWalSegments(prefix);
  ASSERT_EQ(segments.size(), 2u);
  ASSERT_LT(segments[0].wal_id, segments[1].wal_id);
  std::FILE* f = std::fopen(segments[1].path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(::truncate(segments[1].path.c_str(), size - 5), 0);

  Sharded recovered(Opts(2));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_TRUE(report.tail_truncated);
  ASSERT_EQ(report.shards.size(), 2u);
  EXPECT_FALSE(report.shards[0].tail_truncated);
  EXPECT_TRUE(report.shards[1].tail_truncated);
  EXPECT_EQ(report.shards[0].records_replayed, 1u);
  EXPECT_EQ(report.shards[1].records_replayed, 1u);  // lost 100001
  int64_t v = 0;
  EXPECT_TRUE(recovered.Get(-5, &v));
  EXPECT_TRUE(recovered.Get(100000, &v));
  EXPECT_FALSE(recovered.Get(100001, &v));  // the torn, unacked write
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, CommitWaitHistogramSurvivesTopologyChanges) {
  // Splits seal the victims' logs; their commit-wait samples must fold
  // into the aggregate instead of vanishing with the sealed logs.
  const std::string prefix = TempPrefix("recover-commitwait");
  test_util::RemovePrefixFiles(prefix);
  ShardedOptions options = Opts(1);
  options.min_rebalance_keys = 256;
  options.max_shard_keys = 1024;
  Sharded index(options);
  ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kNone)),
            WalStatus::kOk);
  constexpr int64_t kN = 4000;
  for (int64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(index.Insert(k, k));
  }
  ASSERT_GT(index.rebalance_count(), 0u);
  // One sample per acknowledged logged commit — sealed logs included.
  EXPECT_EQ(index.CommitWaitHistogram().total(),
            static_cast<uint64_t>(kN));
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, TopologyEpochSurvivesCheckpointAndRecovery) {
  const std::string prefix = TempPrefix("recover-epoch");
  test_util::RemovePrefixFiles(prefix);
  uint64_t epoch = 0;
  {
    ShardedOptions options = Opts(1);
    options.min_rebalance_keys = 256;
    options.max_shard_keys = 1024;
    Sharded index(options);
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kNone)),
              WalStatus::kOk);
    for (int64_t k = 0; k < 6000; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
    epoch = index.topology_epoch();
    ASSERT_GT(epoch, 0u);
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);  // checkpoint
  }
  Sharded recovered(Opts(1));
  ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
  EXPECT_EQ(recovered.topology_epoch(), epoch);
  ExpectDenseContents(recovered, 6000);
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, ConcurrentLoggedWritersRecoverCompletely) {
  // The TSan target: 4 writers race Insert through the group-committed
  // log; every acknowledged key must survive recovery.
  const std::string prefix = TempPrefix("recover-concurrent");
  test_util::RemovePrefixFiles(prefix);
  constexpr int kThreads = 4;
  constexpr int64_t kPerThread = 500;
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&index, t] {
        for (int64_t i = 0; i < kPerThread; ++i) {
          const int64_t key = t * kPerThread + i;
          ASSERT_TRUE(index.Insert(key, key * 7));
        }
      });
    }
    for (auto& w : writers) w.join();
    EXPECT_EQ(index.last_wal_error(), WalStatus::kOk);
  }
  Sharded recovered(Opts(2));
  ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
  ExpectDenseContents(recovered, kThreads * kPerThread);
  test_util::RemovePrefixFiles(prefix);
}

/// True when a WAL segment at `prefix` holds a data record in a log newer
/// than every log the committed manifest anchors (in any log, when no
/// manifest is committed). A crash now would leave an orphan lineage that
/// holds records: with a manifest LoadFrom fails with kSegmentGap, and
/// without one the logs-only path recovers them minus the baseline.
bool UnanchoredRecordsOnDisk(const std::string& prefix) {
  ShardManifest<int64_t> manifest;
  uint64_t newest_anchor = 0;
  if (ReadManifest<int64_t>(Sharded::ManifestPath(prefix), &manifest) ==
      SnapshotStatus::kOk) {
    for (const uint64_t id : manifest.wal_ids) {
      newest_anchor = std::max(newest_anchor, id);
    }
  }
  for (const wal::WalSegmentFile& f : wal::ListWalSegments(prefix)) {
    if (f.wal_id <= newest_anchor) continue;
    wal::WalSegmentInfo info;
    std::vector<wal::WalRecord<int64_t, int64_t>> records;
    if (wal::ReadWalSegment(f.path, &info, &records) == WalStatus::kOk &&
        !records.empty()) {
      return true;
    }
  }
  return false;
}

TEST(WalRecoveryTest, NoWriteIsAcknowledgedBeforeItsLogIsAnchored) {
  // EnableWal and a logging BulkLoad attach fresh logs that only their
  // anchor checkpoint makes recoverable. A writer inserting throughout
  // checks the files after every acknowledged insert: no acknowledged
  // record may sit in a log the committed manifest does not anchor.
  // Timed (the writer must land in the window), so it runs a few rounds.
  constexpr int kRounds = 5;
  constexpr int64_t kKeys = 4000;
  std::vector<int64_t> keys, payloads;
  for (int64_t k = 0; k < kKeys; ++k) {
    keys.push_back(2 * k);
    payloads.push_back(2 * k * 7);
  }
  for (int round = 0; round < kRounds; ++round) {
    const std::string prefix =
        TempPrefix("recover-anchor") + "-" + std::to_string(round);
    test_util::RemovePrefixFiles(prefix);
    Sharded index(Opts(8));
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> acked{0};
    std::atomic<uint64_t> unanchored{0};
    std::thread writer([&] {
      for (int64_t k = 1; !stop.load(); k += 2) {
        if (!index.Insert(k, k * 7)) continue;
        acked.fetch_add(1);
        if (UnanchoredRecordsOnDisk(prefix)) unanchored.fetch_add(1);
      }
    });
    while (acked.load() == 0) std::this_thread::yield();
    EXPECT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);  // not ASSERT: the writer must be joined
    const uint64_t after_enable = acked.load();
    while (acked.load() < after_enable + 2) std::this_thread::yield();
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    const uint64_t after_load = acked.load();
    while (acked.load() < after_load + 2) std::this_thread::yield();
    stop.store(true);
    writer.join();
    EXPECT_EQ(index.last_wal_error(), WalStatus::kOk);
    EXPECT_EQ(unanchored.load(), 0u) << "round " << round;
    test_util::RemovePrefixFiles(prefix);
  }
}

/// Copies every WAL segment at `prefix` aside; RestoreSweptSegments puts
/// back the ones removed since, recreating the on-disk state of a crash
/// between a checkpoint's manifest rename and its segment sweep.
std::vector<std::string> StashSegments(const std::string& prefix) {
  std::vector<std::string> paths;
  for (const wal::WalSegmentFile& f : wal::ListWalSegments(prefix)) {
    std::filesystem::copy_file(
        f.path, f.path + ".stash",
        std::filesystem::copy_options::overwrite_existing);
    paths.push_back(f.path);
  }
  return paths;
}

size_t RestoreSweptSegments(const std::vector<std::string>& paths) {
  size_t restored = 0;
  for (const std::string& path : paths) {
    if (!std::filesystem::exists(path)) {
      std::filesystem::copy_file(path + ".stash", path);
      ++restored;
    }
    std::filesystem::remove(path + ".stash");
  }
  return restored;
}

TEST(WalRecoveryTest, CrashBeforeALoggingBulkLoadSweepsTheOldLogsRecovers) {
  // A logging BulkLoad seals the old logs, anchors fresh ones with a
  // checkpoint, then sweeps the old ones. A crash before the sweep leaves
  // them on disk: they hold records, the new manifest does not know them,
  // and no known log names them as a parent — but their ids are below
  // the manifest's wal-id counter, so the checkpoint superseded them.
  // Recovery must skip them, not fail on an orphan.
  const std::string prefix = TempPrefix("recover-bulkload-sweep");
  test_util::RemovePrefixFiles(prefix);
  std::vector<int64_t> keys, payloads;
  for (int64_t k = 0; k < 3000; ++k) {
    keys.push_back(k * 3);
    payloads.push_back(k);
  }
  {
    Sharded index(Opts(4));
    index.BulkLoad(keys.data(), payloads.data(), 1000);
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kNone)),
              WalStatus::kOk);
    for (int64_t k = 1; k < 800; k += 3) {
      ASSERT_TRUE(index.Insert(k, -k));  // in the soon-superseded logs
    }
    const std::vector<std::string> stash = StashSegments(prefix);
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    ASSERT_EQ(index.last_wal_error(), WalStatus::kOk);
    ASSERT_GT(RestoreSweptSegments(stash), 0u) << "the load swept no log";
    ASSERT_TRUE(index.Insert(-5, 5));  // a post-load write, in a new log
  }  // crash
  Sharded recovered(Opts(4));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(report.status, WalStatus::kOk);
  EXPECT_GT(report.lineages_skipped, 0u);
  EXPECT_EQ(report.records_replayed, 1u);
  ASSERT_EQ(recovered.size(), keys.size() + 1);
  int64_t v = 0;
  EXPECT_FALSE(recovered.Contains(1));  // stale pre-load write not replayed
  ASSERT_TRUE(recovered.Get(-5, &v));
  EXPECT_EQ(v, 5);
  ASSERT_TRUE(recovered.Get(2997, &v));
  EXPECT_EQ(v, 999);
  EXPECT_TRUE(recovered.CheckInvariants());
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, CrashBeforeEnableWalSweepsTheReplayedLogsRecovers) {
  // The same window after a restart: EnableWal's anchor checkpoint
  // supersedes the logs LoadFrom just replayed, and a crash before its
  // sweep leaves them beside the new manifest.
  const std::string prefix = TempPrefix("recover-enable-sweep");
  test_util::RemovePrefixFiles(prefix);
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kNone)),
              WalStatus::kOk);
    for (int64_t k = 0; k < 400; ++k) ASSERT_TRUE(index.Insert(k, k * 7));
  }  // crash 1
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.LoadFrom(prefix), SnapshotStatus::kOk);
    const std::vector<std::string> stash = StashSegments(prefix);
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kNone)),
              WalStatus::kOk);
    ASSERT_GT(RestoreSweptSegments(stash), 0u) << "EnableWal swept no log";
    for (int64_t k = 400; k < 500; ++k) ASSERT_TRUE(index.Insert(k, k * 7));
    ASSERT_TRUE(index.Update(3, 21));  // same value, still a logged write
  }  // crash 2
  Sharded recovered(Opts(2));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_GT(report.lineages_skipped, 0u);
  EXPECT_EQ(report.records_replayed, 101u);
  ExpectDenseContents(recovered, 500);
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, FoldedRecoveryMatchesSequentialOracle) {
  // One seeded random history, checked op by op against a std::map
  // oracle, recovers four shard shapes at once:
  //   shard 0  resident-tagged over a segment (merged into a bulk load);
  //   shard 1  cold-tagged (its tail becomes the overlay);
  //   shard 2  zero keys at the checkpoint (no segment);
  //   shards 2-3 rebalanced after the checkpoint, so the children's logs
  //            are range-filtered back into both manifest shards.
  // Ops hit even keys; the bulk load holds multiples of 4 — so duplicate
  // inserts, updates and erases of missing keys, and revive-after-erase
  // are all common. Stale pre-checkpoint segments are left on disk so
  // every shard also skips records.
  const std::string prefix = TempPrefix("recover-fold-oracle");
  test_util::RemovePrefixFiles(prefix);
  constexpr int64_t kSpace = 16000;
  ShardedOptions options = Opts(4);
  options.recovery_threads = 4;
  options.tier_prefix = prefix;
  std::mt19937_64 rng(1802);  // pinned
  std::map<int64_t, int64_t> oracle;
  std::vector<int64_t> bounds;
  const auto shard_of = [&](int64_t key) {
    return static_cast<size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), key) - bounds.begin());
  };
  std::vector<size_t> skipped(4, 0), replayed(4, 0);
  std::set<int64_t> cold_segment_keys, cold_changed;
  // One random logged op, its result checked against the oracle; counted
  // per checkpoint shard in `logged`.
  const auto random_op = [&](Sharded* index, std::vector<size_t>* logged) {
    const int64_t key = static_cast<int64_t>(rng() % (kSpace / 2)) * 2;
    const int64_t payload = static_cast<int64_t>(rng() % 100000);
    bool applied = false, expected = false;
    switch (rng() % 3) {
      case 0:
        applied = index->Insert(key, payload);
        expected = oracle.emplace(key, payload).second;
        break;
      case 1:
        applied = index->Update(key, payload);
        expected = oracle.count(key) != 0;
        if (expected) oracle[key] = payload;
        break;
      default:
        applied = index->Erase(key);
        expected = oracle.erase(key) != 0;
        break;
    }
    ASSERT_EQ(applied, expected) << "key " << key;
    ++(*logged)[shard_of(key)];
    if (applied && cold_segment_keys.count(key) != 0) cold_changed.insert(key);
  };
  const auto keys_in = [&](size_t shard) {
    size_t n = 0;
    for (const auto& [key, payload] : oracle) n += shard_of(key) == shard;
    return n;
  };
  size_t live_cold_delta = 0;
  {
    Sharded index(options);
    std::vector<int64_t> keys, payloads;
    for (int64_t k = 0; k < kSpace; k += 4) {
      keys.push_back(k);
      payloads.push_back(k);
      oracle[k] = k;
    }
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    bounds = index.ShardBoundaries();
    ASSERT_EQ(bounds.size(), 3u);
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kNone)),
              WalStatus::kOk);
    ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
    for (auto it = oracle.lower_bound(bounds[1]);
         it != oracle.end() && it->first < bounds[2];) {
      ASSERT_TRUE(index.Erase(it->first));
      ++skipped[2];
      it = oracle.erase(it);
    }
    for (int i = 0; i < 3000; ++i) random_op(&index, &skipped);
    // Drop the cleared shard's new keys so it checkpoints empty.
    for (auto it = oracle.lower_bound(bounds[1]);
         it != oracle.end() && it->first < bounds[2];) {
      ASSERT_TRUE(index.Erase(it->first));
      ++skipped[2];
      it = oracle.erase(it);
    }
    // A clean overlay: the checkpoint then references this segment, so
    // the live cold shard and the recovered one share a base.
    ASSERT_EQ(index.CompactShard(1), SnapshotStatus::kOk);
    const std::vector<std::string> stash = StashSegments(prefix);
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
    ASSERT_GT(RestoreSweptSegments(stash), 0u);
    for (const auto& [key, payload] : oracle) {
      if (shard_of(key) == 1) cold_segment_keys.insert(key);
    }
    for (int i = 0; i < 4000; ++i) random_op(&index, &replayed);
    ASSERT_TRUE(index.Rebalance(bounds[1], kSpace));
    ASSERT_NE(index.ShardBoundaries()[2], bounds[2]);
    for (int i = 0; i < 3000; ++i) random_op(&index, &replayed);
    ASSERT_EQ(index.last_wal_error(), WalStatus::kOk);
    ASSERT_TRUE(index.IsShardCold(1));
    live_cold_delta = index.ShardDeltaEntries(1);
    ASSERT_EQ(index.ShardTierSize(1), keys_in(1));
  }  // crash

  ShardManifest<int64_t> manifest;
  ASSERT_EQ(ReadManifest<int64_t>(Sharded::ManifestPath(prefix), &manifest),
            SnapshotStatus::kOk);
  ASSERT_EQ(manifest.shard_keys[2], 0u);  // the zero-key shape
  ASSERT_TRUE(manifest.IsCold(1));

  Sharded recovered(options);
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(recovered.ShardBoundaries(), bounds);
  std::vector<std::pair<int64_t, int64_t>> contents;
  test_util::ScanAll(recovered, &contents);
  const std::vector<std::pair<int64_t, int64_t>> expected(oracle.begin(),
                                                          oracle.end());
  EXPECT_EQ(contents, expected);
  EXPECT_TRUE(recovered.CheckInvariants());
  // The cold overlay is the one record-by-record replay builds: the live
  // shard's (built by the write path's Shard::Replay), and by rule a
  // segment key has an entry iff a record changed it, any other key iff
  // it ends present.
  size_t overlay_only = 0;
  for (const auto& [key, payload] : oracle) {
    overlay_only += shard_of(key) == 1 && cold_segment_keys.count(key) == 0;
  }
  ASSERT_GT(cold_changed.size(), 0u);
  ASSERT_GT(overlay_only, 0u);
  EXPECT_TRUE(recovered.IsShardCold(1));
  EXPECT_EQ(recovered.ShardDeltaEntries(1), live_cold_delta);
  EXPECT_EQ(recovered.ShardDeltaEntries(1),
            cold_changed.size() + overlay_only);
  size_t total_replayed = 0, total_skipped = 0;
  for (size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    EXPECT_EQ(recovered.IsShardCold(i), i == 1);
    EXPECT_EQ(recovered.ShardTierSize(i), keys_in(i));
    if (i != 1) {
      EXPECT_EQ(recovered.ShardDeltaEntries(i), 0u);
    }
    ASSERT_GT(replayed[i], 0u);
    ASSERT_GT(skipped[i], 0u);
    EXPECT_EQ(report.shards[i].records_replayed, replayed[i]);
    EXPECT_EQ(report.shards[i].records_skipped, skipped[i]);
    total_replayed += replayed[i];
    total_skipped += skipped[i];
  }
  EXPECT_EQ(report.records_replayed, total_replayed);
  EXPECT_EQ(report.records_skipped, total_skipped);
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, ReportTimesReadFoldAndBuildWithinTheLoad) {
  // The three phase durations are filled on both recovery paths (with a
  // manifest, and from the logs alone) and, being parts of LoadFrom,
  // sum to no more than its wall time.
  const std::string prefix = TempPrefix("recover-phases");
  test_util::RemovePrefixFiles(prefix);
  constexpr int64_t kN = 20000;
  {
    Sharded index(Opts(4));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kNone)),
              WalStatus::kOk);
    for (int64_t k = 0; k < kN; ++k) ASSERT_TRUE(index.Insert(k, k * 7));
  }  // crash
  for (const bool with_manifest : {true, false}) {
    SCOPED_TRACE(with_manifest ? "manifest" : "logs alone");
    if (!with_manifest) std::remove(Sharded::ManifestPath(prefix).c_str());
    Sharded recovered(Opts(4));
    wal::RecoveryReport report;
    const util::Timer timer;
    ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
    const double wall_s = timer.ElapsedSeconds();
    EXPECT_EQ(report.records_replayed, static_cast<size_t>(kN));
    EXPECT_GT(report.read_s, 0.0);
    EXPECT_GT(report.fold_s, 0.0);
    EXPECT_GT(report.build_s, 0.0);
    EXPECT_LE(report.read_s + report.fold_s + report.build_s, wall_s);
    ExpectDenseContents(recovered, kN);
  }
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryTest, AllSyncPoliciesRoundTrip) {
  for (const SyncPolicy policy :
       {SyncPolicy::kNone, SyncPolicy::kBatch, SyncPolicy::kAlways}) {
    const std::string prefix =
        TempPrefix("recover-policy") + "-" + wal::ToString(policy);
    test_util::RemovePrefixFiles(prefix);
    {
      Sharded index(Opts(2));
      ASSERT_EQ(index.EnableWal(prefix, Wal(policy)), WalStatus::kOk);
      for (int64_t k = 0; k < 400; ++k) {
        ASSERT_TRUE(index.Insert(k, k * 7));
      }
    }
    Sharded recovered(Opts(2));
    ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk)
        << wal::ToString(policy);
    ExpectDenseContents(recovered, 400);
    test_util::RemovePrefixFiles(prefix);
  }
}

// ---- A process crash with the log's segment still mapped ----

/// Inserts past two growths of a shard log's mapped segment, so the
/// first chunk and two doublings all hold acknowledged records.
constexpr int64_t kPastTwoGrowths = static_cast<int64_t>(
    2 * wal::kSegmentChunkBytes /
    wal::WalRecordBytes<int64_t, int64_t>(wal::WalRecordType::kInsert)) +
    1000;

/// Death-test child: logs kPastTwoGrowths inserts through a one-shard
/// index, then dies by SIGKILL with the log still open. Exits with a
/// code instead when a step fails before the kill.
[[noreturn]] void InsertThenKill(const std::string& prefix,
                                 SyncPolicy policy) {
  Sharded index(Opts(1));
  if (index.EnableWal(prefix, Wal(policy)) != WalStatus::kOk) std::_Exit(2);
  for (int64_t k = 0; k < kPastTwoGrowths; ++k) {
    if (!index.Insert(k, k * 7)) std::_Exit(3);
  }
  std::raise(SIGKILL);
  std::_Exit(4);
}

/// Kills a child mid-log under `policy`, then recovers in this process:
/// every acknowledged write must come back. Under kBatch and kNone an
/// acknowledged write is in the page cache, not yet synced; the child's
/// stores into the mapped segment outlive it, and recovery reads the
/// segment's zero tail as a clean end. (One death test per TEST: the
/// threadsafe style re-runs the test body up to the death statement in
/// the child.)
void ExpectProcessCrashKeepsEveryAcknowledgedWrite(SyncPolicy policy) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string prefix =
      TempPrefix("recover-sigkill") + "-" + wal::ToString(policy);
  test_util::RemovePrefixFiles(prefix);
  EXPECT_EXIT(InsertThenKill(prefix, policy),
              ::testing::KilledBySignal(SIGKILL), "");
  Sharded recovered(Opts(1));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_FALSE(report.tail_truncated);
  EXPECT_EQ(report.records_replayed, static_cast<size_t>(kPastTwoGrowths));
  ExpectDenseContents(recovered, kPastTwoGrowths);
  test_util::RemovePrefixFiles(prefix);
}

TEST(WalRecoveryDeathTest, ProcessCrashUnderBatchKeepsEveryAckedWrite) {
  ExpectProcessCrashKeepsEveryAcknowledgedWrite(SyncPolicy::kBatch);
}

TEST(WalRecoveryDeathTest, ProcessCrashUnderNoneKeepsEveryAckedWrite) {
  ExpectProcessCrashKeepsEveryAcknowledgedWrite(SyncPolicy::kNone);
}

}  // namespace
}  // namespace alex::shard
