// Persistence status surface and checksum primitive shared by every
// on-disk format of the repo (paper §7, "Secondary Storage": ALEX's leaves
// map naturally onto pages). Sorted runs live in exactly one format, the
// cold-tier segment (tier/segment.h); the sharded index's checkpoint is a
// set of segments plus a manifest (shard/manifest.h), and the WAL has its
// own record format (wal/wal_format.h). This header holds what they
// share: the SnapshotStatus outcome every loader reports, the FNV-1a
// digest they checksum with, and an RAII file handle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <ostream>

namespace alex::core {

/// Outcome of a persistence read/write. Everything except kOk identifies one
/// specific way a file can be unusable; benches and the shard layer
/// surface the name to the operator instead of a bare `false`.
enum class SnapshotStatus {
  kOk,
  kIoError,              ///< open/write failed (missing file, bad path, disk)
  kBadMagic,             ///< not a file of the expected format at all
  kBadVersion,           ///< written by an incompatible format version
  kKeySizeMismatch,      ///< sizeof(K) differs from the writer's
  kPayloadSizeMismatch,  ///< sizeof(P) differs from the writer's
  kTruncated,            ///< file shorter than its header claims
  kChecksumMismatch,     ///< stored checksum does not match the contents
  kUnsortedKeys,         ///< keys/boundaries not strictly increasing
  kMissingShard,         ///< a manifest references a segment that is gone
  kManifestMismatch,     ///< a segment disagrees with its manifest entry
  kWalReplayFailed,      ///< the WAL tail could not be replayed (see the
                         ///< wal::RecoveryReport for the distinct WalStatus)
  kSegmentCorrupt,       ///< a segment failed a block or metadata
                         ///< checksum (tier/segment.h)
};

inline const char* SnapshotStatusName(SnapshotStatus status) {
  switch (status) {
    case SnapshotStatus::kOk: return "ok";
    case SnapshotStatus::kIoError: return "io-error";
    case SnapshotStatus::kBadMagic: return "bad-magic";
    case SnapshotStatus::kBadVersion: return "bad-version";
    case SnapshotStatus::kKeySizeMismatch: return "key-size-mismatch";
    case SnapshotStatus::kPayloadSizeMismatch:
      return "payload-size-mismatch";
    case SnapshotStatus::kTruncated: return "truncated";
    case SnapshotStatus::kChecksumMismatch: return "checksum-mismatch";
    case SnapshotStatus::kUnsortedKeys: return "unsorted-keys";
    case SnapshotStatus::kMissingShard: return "missing-shard";
    case SnapshotStatus::kManifestMismatch: return "manifest-mismatch";
    case SnapshotStatus::kWalReplayFailed: return "wal-replay-failed";
    case SnapshotStatus::kSegmentCorrupt: return "segment-corrupt";
  }
  return "unknown";
}

/// Spelled like the WAL's ToString(WalStatus) so call sites and test
/// output read uniformly.
inline const char* ToString(SnapshotStatus status) {
  return SnapshotStatusName(status);
}

/// Lets gtest and diagnostics print status names instead of raw ints.
inline std::ostream& operator<<(std::ostream& os, SnapshotStatus status) {
  return os << SnapshotStatusName(status);
}

namespace internal {

/// RAII fclose so every early return in the readers closes the handle.
struct FileCloser {
  std::FILE* f;
  ~FileCloser() {
    if (f != nullptr) std::fclose(f);
  }
};

/// FNV-1a, chainable: pass the previous return value as `hash` to extend
/// a running digest. Shared by the segment block and metadata checksums
/// (tier/segment.h), the manifest checksum (shard/manifest.h) and the WAL
/// record checksums (wal/wal_format.h).
inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

inline uint64_t Fnv1a(const void* data, size_t n, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace internal
}  // namespace alex::core
