// Tests for the persistence status surface shared by every on-disk
// format (core/serialization.h): stable status names, stream output, and
// the chainable CRC32C the segment, manifest and WAL checksums are built
// on. The decoders themselves are tested with their formats
// (tier_segment_test, sharded_alex_test, tiered_alex_test, wal_test).
#include "core/serialization.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace alex::core {
namespace {

TEST(SerializationRobustnessTest, StatusNamesAreStable) {
  EXPECT_STREQ(SnapshotStatusName(SnapshotStatus::kOk), "ok");
  EXPECT_STREQ(SnapshotStatusName(SnapshotStatus::kTruncated),
               "truncated");
  EXPECT_STREQ(SnapshotStatusName(SnapshotStatus::kMissingShard),
               "missing-shard");
}

TEST(SerializationRobustnessTest, EveryStatusHasADistinctName) {
  std::set<std::string> names;
  const int last = static_cast<int>(SnapshotStatus::kSegmentCorrupt);
  for (int i = 0; i <= last; ++i) {
    const std::string name = ToString(static_cast<SnapshotStatus>(i));
    EXPECT_NE(name, "unknown") << i;
    EXPECT_TRUE(names.insert(name).second) << name;
  }
  std::ostringstream os;
  os << SnapshotStatus::kUnsortedKeys;
  EXPECT_EQ(os.str(), "unsorted-keys");
}

TEST(SerializationRobustnessTest, Crc32cKnownAnswersAndChaining) {
  // RFC 3720 (iSCSI) appendix B.4 vectors, plus the classic check value.
  std::vector<uint32_t (*)(const void*, size_t, uint32_t)> impls = {
      internal::Crc32cPortable};
#if ALEX_SIMD_X86
  if (internal::HasHardwareCrc32c()) impls.push_back(internal::Crc32cHardware);
#endif
  impls.push_back(internal::Crc32c);
  const std::string check = "123456789";
  std::vector<uint8_t> zeros(32, 0x00);
  std::vector<uint8_t> ones(32, 0xFF);
  std::vector<uint8_t> ascending(32);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<uint8_t>(i);
  }
  for (const auto crc32c : impls) {
    EXPECT_EQ(crc32c(check.data(), check.size(), 0), 0xE3069283u);
    EXPECT_EQ(crc32c(zeros.data(), zeros.size(), 0), 0x8A9136AAu);
    EXPECT_EQ(crc32c(ones.data(), ones.size(), 0), 0x62A8AB43u);
    EXPECT_EQ(crc32c(ascending.data(), ascending.size(), 0), 0x46DD794Eu);
    EXPECT_EQ(crc32c(nullptr, 0, 0), 0u);
  }

  // Every implementation agrees with the portable one on every length,
  // from a misaligned start, and chains across every split point of the
  // longest buffer, including head and tail taken by different
  // implementations.
  constexpr size_t kMaxLen = 4200;
  std::mt19937_64 rng(20200614);
  std::vector<uint8_t> buffer(kMaxLen + 8);
  for (uint8_t& byte : buffer) byte = static_cast<uint8_t>(rng());
  for (size_t n = 0; n <= kMaxLen; ++n) {
    const uint8_t* data = buffer.data() + n % 8;
    const uint32_t expect = internal::Crc32cPortable(data, n, 0);
    for (const auto crc32c : impls) {
      ASSERT_EQ(crc32c(data, n, 0), expect) << "length " << n;
    }
  }
  const uint8_t* data = buffer.data();
  const uint32_t whole = internal::Crc32cPortable(data, kMaxLen, 0);
  for (size_t split = 0; split <= kMaxLen; ++split) {
    for (const auto head : impls) {
      for (const auto tail : impls) {
        ASSERT_EQ(tail(data + split, kMaxLen - split, head(data, split, 0)),
                  whole)
            << "split " << split;
      }
    }
  }
  EXPECT_NE(internal::Crc32c(data, kMaxLen - 1, 0), whole);
}

}  // namespace
}  // namespace alex::core
