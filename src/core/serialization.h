// Persistence status surface and checksum primitive shared by every
// on-disk format of the repo (paper §7, "Secondary Storage": ALEX's leaves
// map naturally onto pages). Sorted runs live in exactly one format, the
// cold-tier segment (tier/segment.h); the sharded index's checkpoint is a
// set of segments plus a manifest (shard/manifest.h), and the WAL has its
// own record format (wal/wal_format.h). This header holds what they
// share: the SnapshotStatus outcome every loader reports, the CRC32C
// checksum they all use, and an RAII file handle.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>

#include "util/simd_isa.h"

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

// CRC32C (Castagnoli), reflected polynomial. Two implementations return
// identical values: a portable table-driven byte loop, and the SSE4.2
// `crc32` instruction, 8 bytes per step, compiled when ALEX_SIMD_X86.
inline constexpr uint32_t kCrc32cPoly = 0x82F63B78u;

inline constexpr std::array<uint32_t, 256> MakeCrc32cTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kCrc32cPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

inline uint32_t Crc32cPortable(const void* data, size_t n, uint32_t crc) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ bytes[i]) & 0xFFu];
  }
  return ~crc;
}

#if ALEX_SIMD_X86

__attribute__((target("sse4.2"))) inline uint32_t Crc32cHardware(
    const void* data, size_t n, uint32_t crc) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t wide = ~crc;
  for (; n >= sizeof(uint64_t); n -= sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    wide = _mm_crc32_u64(wide, word);
    bytes += sizeof(word);
  }
  auto narrow = static_cast<uint32_t>(wide);
  for (; n > 0; --n) narrow = _mm_crc32_u8(narrow, *bytes++);
  return ~narrow;
}

/// True when the CPU reports SSE4.2. Evaluated once.
inline bool HasHardwareCrc32c() {
  static const bool supported = __builtin_cpu_supports("sse4.2") != 0;
  return supported;
}

#endif  // ALEX_SIMD_X86

/// CRC32C of `n` bytes, chainable: seed with 0 and pass the previous
/// return value as `crc` to extend a running checksum, so
/// Crc32c(tail, n, Crc32c(head, m, 0)) equals the checksum of head + tail.
/// The one checksum of every on-disk format: segment blocks, metadata and
/// header (tier/segment.h), the manifest (shard/manifest.h) and WAL
/// records and segment headers (wal/wal_format.h), which store the 32-bit
/// value zero-extended in their u64 checksum fields. Takes the SSE4.2 path
/// when the CPU has it.
inline uint32_t Crc32c(const void* data, size_t n, uint32_t crc) {
#if ALEX_SIMD_X86
  if (HasHardwareCrc32c()) return Crc32cHardware(data, n, crc);
#endif
  return Crc32cPortable(data, n, crc);
}

}  // namespace internal
}  // namespace alex::core
