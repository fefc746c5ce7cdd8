// Tests for the VOS-like target store: payload semantics, extent-tree
// overlap handling, KV records, enumeration, punch, and space accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "placement/oid.h"
#include "vos/extent_tree.h"
#include "vos/payload.h"
#include "vos/target_store.h"

namespace daosim::vos {
namespace {

using placement::makeOid;
using placement::ObjClass;

TEST(Payload, RealBytesRoundTrip) {
  auto p = Payload::fromString("hello world");
  EXPECT_EQ(p.size(), 11u);
  EXPECT_TRUE(p.hasBytes());
  EXPECT_EQ(p.toString(), "hello world");
}

TEST(Payload, SliceIsZeroCopyView) {
  auto p = Payload::fromString("hello world");
  auto s = p.slice(6, 5);
  EXPECT_EQ(s.toString(), "world");
  auto clamped = p.slice(8, 100);
  EXPECT_EQ(clamped.toString(), "rld");
  auto beyond = p.slice(100, 5);
  EXPECT_EQ(beyond.size(), 0u);
}

TEST(Payload, SyntheticKeepsSizeAndTag) {
  auto p = Payload::synthetic(1 << 20, 42);
  EXPECT_EQ(p.size(), 1u << 20);
  EXPECT_FALSE(p.hasBytes());
  EXPECT_EQ(p.tag(), 42u);
  auto s = p.slice(100, 200);
  EXPECT_EQ(s.size(), 200u);
  EXPECT_FALSE(s.hasBytes());
}

TEST(Payload, EqualityBytesAndTags) {
  EXPECT_EQ(Payload::fromString("abc"), Payload::fromString("abc"));
  EXPECT_NE(Payload::fromString("abc"), Payload::fromString("abd"));
  EXPECT_EQ(Payload::synthetic(10, 1), Payload::synthetic(10, 1));
  EXPECT_NE(Payload::synthetic(10, 1), Payload::synthetic(10, 2));
  EXPECT_NE(Payload::synthetic(10, 1), Payload::synthetic(11, 1));
}

TEST(Payload, PatternIsDeterministic) {
  auto a = patternPayload(1000, 7);
  auto b = patternPayload(1000, 7);
  auto c = patternPayload(1000, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Payload, StripBytes) {
  auto p = Payload::fromString("data");
  auto s = p.stripBytes();
  EXPECT_EQ(s.size(), 4u);
  EXPECT_FALSE(s.hasBytes());
}

TEST(ExtentTree, WriteReadBack) {
  ExtentTree t;
  t.write(0, Payload::fromString("abcdef"));
  auto r = t.read(0, 6);
  EXPECT_EQ(r.data.toString(), "abcdef");
  EXPECT_EQ(r.bytes_found, 6u);
  EXPECT_EQ(t.end(), 6u);
}

TEST(ExtentTree, HolesReadAsZeros) {
  ExtentTree t;
  t.write(4, Payload::fromString("xy"));
  auto r = t.read(0, 8);
  EXPECT_EQ(r.bytes_found, 2u);
  ASSERT_EQ(r.data.size(), 8u);
  auto b = r.data.bytes();
  EXPECT_EQ(static_cast<char>(b[0]), '\0');
  EXPECT_EQ(static_cast<char>(b[4]), 'x');
  EXPECT_EQ(static_cast<char>(b[5]), 'y');
  EXPECT_EQ(static_cast<char>(b[6]), '\0');
}

TEST(ExtentTree, OverwriteMiddleSplitsExtent) {
  ExtentTree t;
  t.write(0, Payload::fromString("aaaaaaaaaa"));  // [0,10)
  t.write(3, Payload::fromString("BBB"));         // [3,6)
  auto r = t.read(0, 10);
  EXPECT_EQ(r.data.toString(), "aaaBBBaaaa");
  EXPECT_EQ(r.bytes_found, 10u);
  EXPECT_EQ(t.extentCount(), 3u);
  EXPECT_EQ(t.bytesStored(), 10u);
}

TEST(ExtentTree, OverwriteHeadAndTail) {
  ExtentTree t;
  t.write(2, Payload::fromString("mmmm"));  // [2,6)
  t.write(0, Payload::fromString("HHH"));   // [0,3) overlaps head
  t.write(5, Payload::fromString("TT"));    // [5,7) overlaps tail
  auto r = t.read(0, 7);
  EXPECT_EQ(r.data.toString(), "HHHmmTT");
  EXPECT_EQ(t.end(), 7u);
  EXPECT_EQ(t.bytesStored(), 7u);
}

TEST(ExtentTree, OverwriteSwallowsContainedExtents) {
  ExtentTree t;
  t.write(0, Payload::fromString("aa"));
  t.write(4, Payload::fromString("bb"));
  t.write(8, Payload::fromString("cc"));
  t.write(0, Payload::fromString("XXXXXXXXXX"));  // [0,10) covers all
  auto r = t.read(0, 10);
  EXPECT_EQ(r.data.toString(), "XXXXXXXXXX");
  EXPECT_EQ(t.extentCount(), 1u);
  EXPECT_EQ(t.bytesStored(), 10u);
}

TEST(ExtentTree, TruncateShrinksAndExtends) {
  ExtentTree t;
  t.write(0, Payload::fromString("abcdefgh"));
  t.truncate(4);
  EXPECT_EQ(t.end(), 4u);
  EXPECT_EQ(t.read(0, 4).data.toString(), "abcd");
  EXPECT_EQ(t.read(4, 4).bytes_found, 0u);
  t.truncate(16);
  EXPECT_EQ(t.end(), 16u);
  EXPECT_EQ(t.read(0, 4).data.toString(), "abcd");
}

TEST(ExtentTree, SyntheticPayloadPropagates) {
  ExtentTree t;
  t.write(0, Payload::synthetic(100, 5));
  auto r = t.read(0, 100);
  EXPECT_EQ(r.bytes_found, 100u);
  EXPECT_FALSE(r.data.hasBytes());
  EXPECT_EQ(r.data.size(), 100u);
}

TEST(ExtentTree, ZeroLengthOps) {
  ExtentTree t;
  t.write(5, Payload{});
  EXPECT_TRUE(t.empty());
  auto r = t.read(0, 0);
  EXPECT_EQ(r.data.size(), 0u);
}

TEST(U64Dkey, RoundTripAndOrdering) {
  EXPECT_EQ(dkeyU64(u64Dkey(0)), 0u);
  EXPECT_EQ(dkeyU64(u64Dkey(123456789)), 123456789u);
  EXPECT_EQ(dkeyU64(u64Dkey(~0ULL)), ~0ULL);
  EXPECT_LT(u64Dkey(1), u64Dkey(2));
  EXPECT_LT(u64Dkey(255), u64Dkey(256));  // big-endian keeps numeric order
}

class TargetStoreTest : public ::testing::Test {
 protected:
  TargetStore store_;
  ContId cont_ = 1;
  placement::ObjectId oid_ = makeOid(ObjClass::S1, 100);
};

TEST_F(TargetStoreTest, KvPutGetRemove) {
  store_.valuePut(cont_, oid_, "key1", "v", Payload::fromString("value1"));
  const Payload* p = store_.valueGet(cont_, oid_, "key1", "v");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->toString(), "value1");

  store_.valuePut(cont_, oid_, "key1", "v", Payload::fromString("value2"));
  EXPECT_EQ(store_.valueGet(cont_, oid_, "key1", "v")->toString(), "value2");
  EXPECT_EQ(store_.bytesStored(), 6u);

  EXPECT_TRUE(store_.valueRemove(cont_, oid_, "key1", "v"));
  EXPECT_EQ(store_.valueGet(cont_, oid_, "key1", "v"), nullptr);
  EXPECT_FALSE(store_.valueRemove(cont_, oid_, "key1", "v"));
  EXPECT_EQ(store_.bytesStored(), 0u);
}

TEST_F(TargetStoreTest, MissingLookupsReturnNull) {
  EXPECT_EQ(store_.valueGet(cont_, oid_, "nope", "v"), nullptr);
  EXPECT_EQ(store_.valueGet(99, oid_, "nope", "v"), nullptr);
  EXPECT_FALSE(store_.objectExists(cont_, oid_));
}

TEST_F(TargetStoreTest, ExtentWriteReadAcrossDkeys) {
  store_.extentWrite(cont_, oid_, u64Dkey(0), "a", 0,
                     Payload::fromString("chunk0"));
  store_.extentWrite(cont_, oid_, u64Dkey(1), "a", 0,
                     Payload::fromString("chunk1"));
  EXPECT_EQ(store_.extentRead(cont_, oid_, u64Dkey(0), "a", 0, 6)
                .data.toString(),
            "chunk0");
  EXPECT_EQ(store_.extentRead(cont_, oid_, u64Dkey(1), "a", 0, 6)
                .data.toString(),
            "chunk1");
  EXPECT_EQ(store_.extentEnd(cont_, oid_, u64Dkey(0), "a"), 6u);
  EXPECT_EQ(store_.extentEnd(cont_, oid_, u64Dkey(2), "a"), 0u);
}

TEST_F(TargetStoreTest, ListKeys) {
  store_.valuePut(cont_, oid_, "b", "v", Payload::fromString("1"));
  store_.valuePut(cont_, oid_, "a", "v", Payload::fromString("2"));
  store_.valuePut(cont_, oid_, "c", "v", Payload::fromString("3"));
  auto keys = store_.listDkeys(cont_, oid_);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));  // sorted
  auto akeys = store_.listAkeys(cont_, oid_, "a");
  EXPECT_EQ(akeys, (std::vector<std::string>{"v"}));
}

TEST_F(TargetStoreTest, PunchObjectReclaimsSpace) {
  store_.valuePut(cont_, oid_, "k", "v", Payload::fromString("xxxx"));
  store_.extentWrite(cont_, oid_, u64Dkey(0), "a", 0,
                     Payload::fromString("yyyy"));
  EXPECT_EQ(store_.bytesStored(), 8u);
  EXPECT_TRUE(store_.punchObject(cont_, oid_));
  EXPECT_EQ(store_.bytesStored(), 0u);
  EXPECT_FALSE(store_.objectExists(cont_, oid_));
  EXPECT_FALSE(store_.punchObject(cont_, oid_));
}

TEST_F(TargetStoreTest, PunchDkey) {
  store_.valuePut(cont_, oid_, "k1", "v", Payload::fromString("aa"));
  store_.valuePut(cont_, oid_, "k2", "v", Payload::fromString("bb"));
  auto is_k1 = [](std::string_view dkey) { return dkey == "k1"; };
  EXPECT_TRUE(store_.punchDkeys(cont_, oid_, is_k1));
  EXPECT_EQ(store_.valueGet(cont_, oid_, "k1", "v"), nullptr);
  ASSERT_NE(store_.valueGet(cont_, oid_, "k2", "v"), nullptr);
  EXPECT_EQ(store_.bytesStored(), 2u);
  EXPECT_FALSE(store_.punchDkeys(cont_, oid_, is_k1));
}

// Chunk dkeys 0..n-1 with akeys "0" and "p"; punching every chunk from 5 up
// in one call leaves exactly chunks 0..4, each findable.
TEST_F(TargetStoreTest, PunchDkeysByPredicateInOnePass) {
  constexpr std::uint64_t kChunks = 4 * TargetStore::kScanRecords;
  for (std::uint64_t i = 0; i < kChunks; ++i) {
    store_.extentWrite(cont_, oid_, u64Dkey(i), "0", 0, patternPayload(10, i));
    store_.valuePut(cont_, oid_, u64Dkey(i), "p", Payload::fromString("x"));
  }
  EXPECT_TRUE(store_.punchDkeys(cont_, oid_, [](std::string_view dkey) {
    return dkeyU64(dkey) >= 5;
  }));
  std::vector<std::string> expect;
  for (std::uint64_t i = 0; i < 5; ++i) expect.push_back(u64Dkey(i));
  EXPECT_EQ(store_.listDkeys(cont_, oid_), expect);
  EXPECT_EQ(store_.bytesStored(), 5 * 11u);
  for (std::uint64_t i = 0; i < kChunks; ++i) {
    EXPECT_EQ(store_.extentEnd(cont_, oid_, u64Dkey(i), "0"),
              i < 5 ? 10u : 0u);
    EXPECT_EQ(store_.valueGet(cont_, oid_, u64Dkey(i), "p") != nullptr, i < 5);
  }
}

// Each remove moves the last record into the hole; every survivor must stay
// findable, through the scan and through the index.
TEST_F(TargetStoreTest, RemovingRecordsOneByOneKeepsTheRestFindable) {
  constexpr std::size_t kKeys = 4 * TargetStore::kScanRecords;
  for (std::size_t i = 0; i < kKeys; ++i) {
    store_.valuePut(cont_, oid_, "d" + std::to_string(i % 7),
                    std::to_string(i), Payload::fromString(std::to_string(i)));
  }
  std::vector<bool> live(kKeys, true);
  for (std::size_t n = 0; n < kKeys; ++n) {
    const std::size_t gone = (n * 13) % kKeys;  // 13 is coprime to kKeys
    EXPECT_TRUE(store_.valueRemove(
        cont_, oid_, "d" + std::to_string(gone % 7), std::to_string(gone)));
    live[gone] = false;
    for (std::size_t i = 0; i < kKeys; ++i) {
      const Payload* p = store_.valueGet(
          cont_, oid_, "d" + std::to_string(i % 7), std::to_string(i));
      ASSERT_EQ(p != nullptr, live[i]) << n << " " << i;
      if (p != nullptr) {
        EXPECT_EQ(p->toString(), std::to_string(i));
      }
    }
  }
  EXPECT_TRUE(store_.listDkeys(cont_, oid_).empty());
  EXPECT_EQ(store_.bytesStored(), 0u);
}

TEST_F(TargetStoreTest, DestroyContainer) {
  store_.valuePut(1, oid_, "k", "v", Payload::fromString("aa"));
  store_.valuePut(2, oid_, "k", "v", Payload::fromString("bb"));
  store_.destroyContainer(1);
  EXPECT_EQ(store_.valueGet(1, oid_, "k", "v"), nullptr);
  ASSERT_NE(store_.valueGet(2, oid_, "k", "v"), nullptr);
  EXPECT_EQ(store_.bytesStored(), 2u);
  EXPECT_EQ(store_.containerCount(), 1u);
}

TEST_F(TargetStoreTest, NoRetainModeStripsExtentBytesButKeepsKvRecords) {
  TargetStore lean(/*retain_data=*/false);
  // KV records are metadata: bytes are always retained.
  lean.valuePut(cont_, oid_, "k", "v", Payload::fromString("abcdef"));
  const Payload* p = lean.valueGet(cont_, oid_, "k", "v");
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->hasBytes());
  EXPECT_EQ(p->toString(), "abcdef");
  // Extent (bulk) payloads are stripped to size-only.
  lean.extentWrite(cont_, oid_, u64Dkey(0), "a", 0, patternPayload(1024, 1));
  EXPECT_EQ(lean.extentEnd(cont_, oid_, u64Dkey(0), "a"), 1024u);
  EXPECT_EQ(lean.bytesStored(), 1030u);
  auto r = lean.extentRead(cont_, oid_, u64Dkey(0), "a", 0, 1024);
  EXPECT_FALSE(r.data.hasBytes());
  EXPECT_EQ(r.bytes_found, 1024u);
}

TEST_F(TargetStoreTest, AccountingSurvivesOverwrites) {
  store_.extentWrite(cont_, oid_, u64Dkey(0), "a", 0, patternPayload(1000, 1));
  store_.extentWrite(cont_, oid_, u64Dkey(0), "a", 500,
                     patternPayload(1000, 2));
  EXPECT_EQ(store_.bytesStored(), 1500u);
  store_.extentTruncate(cont_, oid_, u64Dkey(0), "a", 200);
  EXPECT_EQ(store_.bytesStored(), 200u);
  EXPECT_EQ(store_.extentEnd(cont_, oid_, u64Dkey(0), "a"), 200u);
}

TEST_F(TargetStoreTest, ObjectCountAcrossContainers) {
  store_.valuePut(1, makeOid(ObjClass::S1, 1), "k", "v", Payload::fromString("x"));
  store_.valuePut(1, makeOid(ObjClass::S1, 2), "k", "v", Payload::fromString("x"));
  store_.valuePut(2, makeOid(ObjClass::S1, 3), "k", "v", Payload::fromString("x"));
  EXPECT_EQ(store_.objectCount(), 3u);
}

TEST_F(TargetStoreTest, ContainerStaysCountedUntilDestroyed) {
  const placement::ObjectId other = makeOid(ObjClass::S1, 101);
  EXPECT_EQ(store_.valueGet(7, oid_, "k", "v"), nullptr);  // lookups add none
  EXPECT_EQ(store_.containerCount(), 0u);
  store_.valuePut(1, oid_, "k", "v", Payload::fromString("a"));
  store_.extentTruncate(2, other, u64Dkey(0), "0", 10);
  EXPECT_EQ(store_.containerCount(), 2u);
  EXPECT_TRUE(store_.punchObject(1, oid_));
  EXPECT_EQ(store_.objectCount(), 1u);
  EXPECT_EQ(store_.containerCount(), 2u);  // empty, but not destroyed
  store_.destroyContainer(1);
  EXPECT_EQ(store_.containerCount(), 1u);
  store_.destroyContainer(1);  // absent: no-op
  store_.destroyContainer(2);
  EXPECT_EQ(store_.containerCount(), 0u);
  EXPECT_EQ(store_.objectCount(), 0u);
  EXPECT_EQ(store_.bytesStored(), 0u);
}

TEST_F(TargetStoreTest, ValueRemoveKeepsEmptiedObject) {
  store_.valuePut(cont_, oid_, "k", "v", Payload::fromString("a"));
  EXPECT_TRUE(store_.valueRemove(cont_, oid_, "k", "v"));
  EXPECT_TRUE(store_.objectExists(cont_, oid_));
  EXPECT_TRUE(store_.listDkeys(cont_, oid_).empty());
  EXPECT_EQ(store_.objectCount(), 1u);
  EXPECT_EQ(store_.containerCount(), 1u);
}

// Concatenating dkey and akey would make these four one key.
TEST_F(TargetStoreTest, KeysSplitAtTheDkeyAkeyBoundaryStayDistinct) {
  const std::vector<std::pair<std::string, std::string>> keys = {
      {"ab", ""}, {"a", "b"}, {"", "ab"}, {"a", ""}};
  auto check = [&] {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const Payload* p =
          store_.valueGet(cont_, oid_, keys[i].first, keys[i].second);
      ASSERT_NE(p, nullptr) << i;
      EXPECT_EQ(p->toString(), std::to_string(i));
    }
    EXPECT_EQ(store_.listAkeys(cont_, oid_, "a"),
              (std::vector<std::string>{"", "b"}));
    EXPECT_EQ(store_.listAkeys(cont_, oid_, "ab"),
              (std::vector<std::string>{""}));
  };
  for (std::size_t i = 0; i < keys.size(); ++i) {
    store_.valuePut(cont_, oid_, keys[i].first, keys[i].second,
                    Payload::fromString(std::to_string(i)));
  }
  check();  // scanned
  for (std::size_t i = 0; i <= TargetStore::kScanRecords; ++i) {
    store_.valuePut(cont_, oid_, "z" + std::to_string(i), "v",
                    Payload::fromString("-"));
  }
  check();  // indexed
  EXPECT_TRUE(store_.valueRemove(cont_, oid_, "a", "b"));
  EXPECT_EQ(store_.valueGet(cont_, oid_, "a", "b"), nullptr);
  ASSERT_NE(store_.valueGet(cont_, oid_, "ab", ""), nullptr);
  EXPECT_EQ(store_.valueGet(cont_, oid_, "ab", "")->toString(), "0");
}

TEST_F(TargetStoreTest, ReverseInsertsEnumerateSorted) {
  constexpr std::size_t kDkeys = 3 * TargetStore::kScanRecords;
  std::vector<std::string> dkeys;
  for (std::size_t i = 0; i < kDkeys; ++i) dkeys.push_back(u64Dkey(i));
  for (std::size_t i = kDkeys; i-- > 0;) {
    for (const char* akey : {"c", "b", "a"}) {
      store_.extentWrite(cont_, oid_, dkeys[i], akey, 0,
                         Payload::fromString(akey));
    }
  }
  EXPECT_EQ(store_.listDkeys(cont_, oid_), dkeys);
  EXPECT_EQ(store_.listAkeys(cont_, oid_, dkeys[5]),
            (std::vector<std::string>{"a", "b", "c"}));
  std::vector<std::pair<std::string, std::string>> got, expect;
  for (const std::string& dkey : dkeys) {
    for (const char* akey : {"a", "b", "c"}) expect.emplace_back(dkey, akey);
  }
  // forEachRecord promises no order, only every record once.
  store_.forEachRecord(cont_, oid_, [&](const TargetStore::RecordView& v) {
    ASSERT_NE(v.tree, nullptr);
    got.emplace_back(*v.dkey, *v.akey);
  });
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
}

}  // namespace
}  // namespace daosim::vos
