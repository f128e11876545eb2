// Tests for the persistence status surface shared by every on-disk
// format (core/serialization.h): stable status names, stream output, and
// the chainable FNV-1a digest the segment, manifest and WAL checksums are
// built on. The decoders themselves are tested with their formats
// (tier_segment_test, sharded_alex_test, tiered_alex_test, wal_test).
#include "core/serialization.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>

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

TEST(SerializationRobustnessTest, Fnv1aChainsAcrossSplits) {
  const std::string data = "adaptive learned index";
  const uint64_t whole =
      internal::Fnv1a(data.data(), data.size(), internal::kFnvOffsetBasis);
  const uint64_t head =
      internal::Fnv1a(data.data(), 8, internal::kFnvOffsetBasis);
  EXPECT_EQ(internal::Fnv1a(data.data() + 8, data.size() - 8, head), whole);
  EXPECT_NE(internal::Fnv1a(data.data(), data.size() - 1,
                            internal::kFnvOffsetBasis),
            whole);
}

}  // namespace
}  // namespace alex::core
