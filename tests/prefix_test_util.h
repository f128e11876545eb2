// Test helpers over the files a ShardedAlex keeps at a prefix: the
// manifest, one segment per non-empty shard, the WAL segments, and the
// .tmp files a crashed writer leaves beside them; plus the checksum those
// formats used before CRC32C, to build genuine old-version files.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "shard/manifest.h"
#include "tier/segment.h"
#include "wal/wal_format.h"

namespace alex::test_util {

/// The 64-bit FNV-1a digest of segment v1, WAL v1 and manifests v3-v5,
/// chainable like core::internal::Crc32c. Version tests seal old headers
/// with it, so each reaches the reader exactly as such a file would.
inline constexpr uint64_t kLegacyDigestSeed = 1469598103934665603ULL;

inline uint64_t LegacyDigest(const void* data, size_t n,
                             uint64_t hash = kLegacyDigestSeed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Removes every file of `prefix`: each directory entry named
/// `<base>.<anything>`. Best effort, for test setup and teardown.
inline void RemovePrefixFiles(const std::string& prefix) {
  std::string dir, base;
  wal::SplitPrefixPath(prefix, &dir, &base);
  std::vector<std::string> names;
  if (!wal::ListDirectory(dir, &names)) return;
  const std::string stem = base + ".";
  for (const std::string& name : names) {
    if (name.compare(0, stem.size(), stem) == 0) {
      std::remove((dir + "/" + name).c_str());
    }
  }
}

/// Path of the segment the committed manifest at `prefix` names for
/// `shard`; empty when the manifest cannot be read.
template <typename K = int64_t>
std::string ShardSegmentPath(const std::string& prefix, size_t shard) {
  shard::ShardManifest<K> manifest;
  if (shard::ReadManifest<K>(prefix + ".manifest", &manifest) !=
          core::SnapshotStatus::kOk ||
      shard >= manifest.num_shards()) {
    return "";
  }
  return tier::SegmentPath(prefix, manifest.segment_ids[shard]);
}

}  // namespace alex::test_util
