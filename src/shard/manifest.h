// On-disk manifest for a sharded checkpoint.
//
// A ShardedAlex checkpoint is one segment file (tier/segment.h) per
// non-empty shard plus this manifest, which records the routing state
// needed to reassemble the index: the boundary array (routing is a binary
// search over it, so the boundaries are the whole router), and the
// per-shard key counts (so a load can detect a segment that was swapped or
// rebuilt independently of its manifest).
//
// Layout (format v7): ManifestHeader, boundaries (num_shards-1 keys),
// per-shard key counts (num_shards uint64s), per-shard WAL ids and
// checkpoint LSNs (num_shards uint64s each; all zero when the WAL is
// disabled), per-shard tier tags and segment ids (num_shards uint64s
// each), the next segment id to allocate (one uint64), then a trailing
// CRC32C checksum over everything before it. Every shard with keys has a
// `.seg-<id>` segment file, resident and cold alike; the tier tag (0 =
// resident, 1 = cold) only says which form the shard is rebuilt in. A
// shard with zero keys has no file and loads as an empty resident shard,
// so a cold tag with zero keys is malformed. Manifests v3 and v4 pointed
// resident shards at a second, per-shard snapshot format, v5 used an
// FNV-1a checksum, and v3-v6 carried a learned router model in the
// header; all are rejected with kBadVersion, never misloaded.
// The WAL fields make the manifest the checkpoint record: shard i's
// segment captures exactly the effects of its log's records up to
// checkpoint_lsns[i], so recovery replays only what came after — per
// shard: the boundary array plus the per-shard wal lineage anchors are
// what let LoadFrom rebuild each shard independently with the exact
// pre-crash boundaries (boundary-preserving recovery) instead of
// repartitioning a merged map. The header also records the topology
// epoch (how many topology transactions — splits, merges, rebalances —
// the index has committed), so the counter survives restarts. Reading
// validates magic, version, key size, the declared lengths against the
// actual file size, and the checksum — each failure maps to a distinct
// core::SnapshotStatus.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

#include "core/serialization.h"

namespace alex::shard {

namespace internal {

// "ALEXSHRD" in ASCII.
inline constexpr uint64_t kManifestMagic = 0x414C455853485244ULL;
// Version 2 added the per-shard WAL ids and checkpoint LSNs; version 3
// the topology epoch; version 4 the per-shard tier tags, segment ids and
// next-segment-id watermark; version 5 made every shard's file a segment;
// version 6 replaced the FNV-1a checksum with CRC32C, keeping v5's layout;
// version 7 dropped the router model from the header. Only v7 is readable.
inline constexpr uint32_t kManifestVersion = 7;

/// Tier tag values stored in ShardManifest::tier_tags.
inline constexpr uint64_t kTierResident = 0;
inline constexpr uint64_t kTierCold = 1;

}  // namespace internal

/// Fixed manifest header.
struct ManifestHeader {
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t key_size = 0;
  uint64_t num_shards = 0;
  uint64_t total_keys = 0;
  // Checkpoint counter: one more than the manifest this one replaced.
  uint64_t generation = 0;
  // Lower bound on the next WAL id a recovered index may allocate (the
  // directory scan can only raise it); 0 when the WAL is disabled.
  uint64_t next_wal_id = 0;
  // Topology transactions (splits, merges, rebalances) committed over
  // the index's lifetime; restored by LoadFrom so the epoch is monotone
  // across restarts.
  uint64_t topology_epoch = 0;
};

namespace internal {

/// CRC32C (core/serialization.h) over the header, the boundaries, the
/// per-shard arrays and the next-segment-id watermark, in file order.
template <typename K>
uint32_t ManifestChecksum(
    const ManifestHeader& header, const std::vector<K>& boundaries,
    std::initializer_list<const std::vector<uint64_t>*> per_shard,
    uint64_t next_segment_id) {
  uint32_t crc = core::internal::Crc32c(&header, sizeof(header), 0);
  crc = core::internal::Crc32c(boundaries.data(),
                               boundaries.size() * sizeof(K), crc);
  for (const std::vector<uint64_t>* array : per_shard) {
    crc = core::internal::Crc32c(array->data(),
                                 array->size() * sizeof(uint64_t), crc);
  }
  return core::internal::Crc32c(&next_segment_id, sizeof(next_segment_id),
                                crc);
}

}  // namespace internal

/// In-memory manifest contents.
template <typename K>
struct ShardManifest {
  std::vector<K> boundaries;         ///< num_shards - 1 shard lower bounds
  std::vector<uint64_t> shard_keys;  ///< key count per shard
  /// Per-shard WAL id (0 = shard is not logging) and the LSN up to which
  /// that log's effects are captured by this checkpoint. Either empty (WAL
  /// never enabled) or exactly num_shards long.
  std::vector<uint64_t> wal_ids;
  std::vector<uint64_t> checkpoint_lsns;
  /// Per-shard storage tier (internal::kTierResident / kTierCold) and the
  /// id of the segment file holding its records (unused for a shard with
  /// zero keys). Either empty (every shard resident) or exactly
  /// num_shards long.
  std::vector<uint64_t> tier_tags;
  std::vector<uint64_t> segment_ids;
  uint64_t generation = 0;
  uint64_t next_wal_id = 0;
  uint64_t topology_epoch = 0;
  /// Lower bound on the next segment id to allocate (the directory
  /// scan can only raise it).
  uint64_t next_segment_id = 0;

  size_t num_shards() const { return shard_keys.size(); }
  bool IsCold(size_t shard) const {
    return shard < tier_tags.size() &&
           tier_tags[shard] == internal::kTierCold;
  }
  uint64_t total_keys() const {
    uint64_t total = 0;
    for (const uint64_t n : shard_keys) total += n;
    return total;
  }
};

template <typename K>
core::SnapshotStatus WriteManifest(const std::string& path,
                                   const ShardManifest<K>& manifest) {
  static_assert(std::is_trivially_copyable_v<K>,
                "keys must be trivially copyable");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return core::SnapshotStatus::kIoError;
  ManifestHeader header;
  header.magic = internal::kManifestMagic;
  header.version = internal::kManifestVersion;
  header.key_size = sizeof(K);
  header.num_shards = manifest.num_shards();
  header.total_keys = manifest.total_keys();
  header.generation = manifest.generation;
  header.next_wal_id = manifest.next_wal_id;
  header.topology_epoch = manifest.topology_epoch;

  // The WAL arrays are optional in memory (an index that never enabled
  // the WAL leaves them empty) but fixed-size on disk: pad with zeros.
  std::vector<uint64_t> wal_ids = manifest.wal_ids;
  std::vector<uint64_t> checkpoint_lsns = manifest.checkpoint_lsns;
  wal_ids.resize(manifest.num_shards(), 0);
  checkpoint_lsns.resize(manifest.num_shards(), 0);
  // Likewise the tier arrays: empty in memory means all-resident.
  std::vector<uint64_t> tier_tags = manifest.tier_tags;
  std::vector<uint64_t> segment_ids = manifest.segment_ids;
  tier_tags.resize(manifest.num_shards(), internal::kTierResident);
  segment_ids.resize(manifest.num_shards(), 0);

  const uint64_t checksum = internal::ManifestChecksum(
      header, manifest.boundaries,
      {&manifest.shard_keys, &wal_ids, &checkpoint_lsns, &tier_tags,
       &segment_ids},
      manifest.next_segment_id);

  bool ok = std::fwrite(&header, sizeof(header), 1, f) == 1;
  if (ok && !manifest.boundaries.empty()) {
    ok = std::fwrite(manifest.boundaries.data(), sizeof(K),
                     manifest.boundaries.size(),
                     f) == manifest.boundaries.size();
  }
  if (ok && !manifest.shard_keys.empty()) {
    ok = std::fwrite(manifest.shard_keys.data(), sizeof(uint64_t),
                     manifest.shard_keys.size(),
                     f) == manifest.shard_keys.size();
  }
  if (ok && !wal_ids.empty()) {
    ok = std::fwrite(wal_ids.data(), sizeof(uint64_t), wal_ids.size(),
                     f) == wal_ids.size();
    ok = ok && std::fwrite(checkpoint_lsns.data(), sizeof(uint64_t),
                           checkpoint_lsns.size(),
                           f) == checkpoint_lsns.size();
  }
  if (ok && !tier_tags.empty()) {
    ok = std::fwrite(tier_tags.data(), sizeof(uint64_t), tier_tags.size(),
                     f) == tier_tags.size();
    ok = ok && std::fwrite(segment_ids.data(), sizeof(uint64_t),
                           segment_ids.size(), f) == segment_ids.size();
  }
  ok = ok && std::fwrite(&manifest.next_segment_id, sizeof(uint64_t), 1,
                         f) == 1;
  ok = ok && std::fwrite(&checksum, sizeof(checksum), 1, f) == 1;
  ok = std::fclose(f) == 0 && ok;
  return ok ? core::SnapshotStatus::kOk : core::SnapshotStatus::kIoError;
}

template <typename K>
core::SnapshotStatus ReadManifest(const std::string& path,
                                  ShardManifest<K>* out) {
  static_assert(std::is_trivially_copyable_v<K>,
                "keys must be trivially copyable");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return core::SnapshotStatus::kIoError;
  core::internal::FileCloser closer{f};
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return core::SnapshotStatus::kIoError;
  }
  const long end = std::ftell(f);
  if (end < 0) return core::SnapshotStatus::kIoError;
  if (std::fseek(f, 0, SEEK_SET) != 0) {
    return core::SnapshotStatus::kIoError;
  }
  const uint64_t file_size = static_cast<uint64_t>(end);

  ManifestHeader header;
  if (std::fread(&header, sizeof(header), 1, f) != 1) {
    return core::SnapshotStatus::kTruncated;
  }
  if (header.magic != internal::kManifestMagic) {
    return core::SnapshotStatus::kBadMagic;
  }
  if (header.version != internal::kManifestVersion) {
    return core::SnapshotStatus::kBadVersion;
  }
  if (header.key_size != sizeof(K)) {
    return core::SnapshotStatus::kKeySizeMismatch;
  }
  if (header.num_shards == 0) return core::SnapshotStatus::kTruncated;
  // Validate the declared length against the file before allocating. The
  // division-based bound comes first so the exact byte count below cannot
  // overflow on a corrupt shard count.
  // The next-segment-id watermark and the checksum close the file.
  const uint64_t tail_bytes = 2 * sizeof(uint64_t);
  if (file_size < sizeof(header) + tail_bytes) {
    return core::SnapshotStatus::kTruncated;
  }
  const uint64_t body_budget = file_size - sizeof(header) - tail_bytes;
  // Per shard the body holds one boundary key (except the first shard)
  // plus per-shard uint64s: key count, wal id, checkpoint LSN, tier tag
  // and segment id.
  const uint64_t words_per_shard = 5;
  if (header.num_shards - 1 >
      body_budget / (sizeof(K) + words_per_shard * sizeof(uint64_t))) {
    return core::SnapshotStatus::kTruncated;
  }
  const uint64_t body_bytes =
      (header.num_shards - 1) * sizeof(K) +
      header.num_shards * words_per_shard * sizeof(uint64_t);
  if (body_budget < body_bytes) {
    return core::SnapshotStatus::kTruncated;
  }

  out->boundaries.resize(header.num_shards - 1);
  out->shard_keys.resize(header.num_shards);
  out->wal_ids.resize(header.num_shards);
  out->checkpoint_lsns.resize(header.num_shards);
  if (!out->boundaries.empty() &&
      std::fread(out->boundaries.data(), sizeof(K), out->boundaries.size(),
                 f) != out->boundaries.size()) {
    return core::SnapshotStatus::kTruncated;
  }
  if (std::fread(out->shard_keys.data(), sizeof(uint64_t),
                 out->shard_keys.size(), f) != out->shard_keys.size()) {
    return core::SnapshotStatus::kTruncated;
  }
  if (std::fread(out->wal_ids.data(), sizeof(uint64_t),
                 out->wal_ids.size(), f) != out->wal_ids.size()) {
    return core::SnapshotStatus::kTruncated;
  }
  if (std::fread(out->checkpoint_lsns.data(), sizeof(uint64_t),
                 out->checkpoint_lsns.size(),
                 f) != out->checkpoint_lsns.size()) {
    return core::SnapshotStatus::kTruncated;
  }
  out->tier_tags.resize(header.num_shards);
  out->segment_ids.resize(header.num_shards);
  if (std::fread(out->tier_tags.data(), sizeof(uint64_t),
                 out->tier_tags.size(), f) != out->tier_tags.size()) {
    return core::SnapshotStatus::kTruncated;
  }
  if (std::fread(out->segment_ids.data(), sizeof(uint64_t),
                 out->segment_ids.size(), f) != out->segment_ids.size()) {
    return core::SnapshotStatus::kTruncated;
  }
  uint64_t next_segment_id = 0;
  if (std::fread(&next_segment_id, sizeof(next_segment_id), 1, f) != 1) {
    return core::SnapshotStatus::kTruncated;
  }
  uint64_t stored_checksum = 0;
  if (std::fread(&stored_checksum, sizeof(stored_checksum), 1, f) != 1) {
    return core::SnapshotStatus::kTruncated;
  }
  const uint32_t checksum = internal::ManifestChecksum(
      header, out->boundaries,
      {&out->shard_keys, &out->wal_ids, &out->checkpoint_lsns,
       &out->tier_tags, &out->segment_ids},
      next_segment_id);
  if (checksum != stored_checksum) {
    return core::SnapshotStatus::kChecksumMismatch;
  }
  if (header.total_keys != out->total_keys()) {
    return core::SnapshotStatus::kChecksumMismatch;
  }
  // Strictly increasing boundaries are the router's precondition (its
  // binary search runs over this array); a checksummed-but-
  // malformed manifest from a foreign writer must not misroute.
  for (size_t i = 1; i < out->boundaries.size(); ++i) {
    if (!(out->boundaries[i - 1] < out->boundaries[i])) {
      return core::SnapshotStatus::kUnsortedKeys;
    }
  }
  // A tag outside {resident, cold}, or a cold shard with no records
  // (zero-key shards have no segment to be cold in), is malformed.
  for (size_t i = 0; i < out->tier_tags.size(); ++i) {
    if (out->tier_tags[i] != internal::kTierResident &&
        (out->tier_tags[i] != internal::kTierCold ||
         out->shard_keys[i] == 0)) {
      return core::SnapshotStatus::kManifestMismatch;
    }
  }
  out->generation = header.generation;
  out->next_wal_id = header.next_wal_id;
  out->topology_epoch = header.topology_epoch;
  out->next_segment_id = next_segment_id;
  return core::SnapshotStatus::kOk;
}

}  // namespace alex::shard
