// Randomized property tests against reference models.
//
//  * ExtentTree vs a byte-level reference (one optional byte per offset):
//    random writes, truncates and reads must agree byte-for-byte across
//    thousands of operations, also when appends interleave with truncates
//    and when overwrites and truncates land inside hundreds of appended
//    extents; the extents stay sorted, disjoint and non-empty throughout.
//  * DFS namespace vs a reference map of paths: random mkdir/create/write/
//    rename/unlink sequences must leave both in the same state, checked
//    through lookups, stats and readdirs.
//  * Bandwidth accounting invariants of the SPMD harness.
//  * TargetStore vs a flat reference map keyed by (container, object, dkey,
//    akey): random puts, removes, extent writes/truncates and punches over
//    enough objects to grow the object table repeatedly and delete across
//    its wrap-around point, and over objects holding enough records to be
//    indexed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <variant>
#include <vector>

#include "daos/client.h"
#include "daos/system.h"
#include "dfs/dfs.h"
#include "hw/cluster.h"
#include "placement/oid.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "vos/extent_tree.h"
#include "vos/payload.h"
#include "vos/target_store.h"

namespace daosim {
namespace {

using sim::Task;
using vos::ExtentTree;
using vos::Payload;

// --- ExtentTree vs byte map -------------------------------------------

/// A byte-level reference for ExtentTree: one slot per offset, empty for a
/// hole.
struct ExtentReference {
  std::vector<std::optional<std::byte>> bytes;
  std::uint64_t end = 0;

  void write(std::uint64_t off, const Payload& p) {
    auto data = p.bytes();
    if (bytes.size() < off + data.size()) bytes.resize(off + data.size());
    for (std::uint64_t i = 0; i < data.size(); ++i) {
      bytes[off + i] = data[static_cast<std::size_t>(i)];
    }
    end = std::max(end, off + data.size());
  }
  void truncate(std::uint64_t size) {
    if (bytes.size() > size) bytes.resize(size);
    end = size;
  }
  /// Bytes that are not holes.
  std::uint64_t stored() const {
    return std::count_if(bytes.begin(), bytes.end(),
                         [](const auto& b) { return b.has_value(); });
  }
  /// Asserts that `tree` reads [off, off+len) as the reference does.
  void checkRead(const ExtentTree& tree, std::uint64_t off,
                 std::uint64_t len, int op) const {
    auto r = tree.read(off, len);
    ASSERT_EQ(r.data.size(), len);
    auto got = r.data.bytes();
    std::uint64_t found = 0;
    for (std::uint64_t i = 0; i < len; ++i) {
      const std::optional<std::byte> b =
          off + i < bytes.size() ? bytes[off + i] : std::nullopt;
      ASSERT_EQ(got[static_cast<std::size_t>(i)], b.value_or(std::byte{0}))
          << "op " << op << " offset " << off + i;
      if (b) ++found;
    }
    ASSERT_EQ(r.bytes_found, found) << "op " << op;
  }
};

/// Asserts ExtentTree's structural invariants: extents strictly sorted by
/// offset, non-empty and disjoint, the last ending at or before end(), and
/// their sizes summing to bytesStored().
void checkStructure(const ExtentTree& tree, int op) {
  std::uint64_t sum = 0;
  const ExtentTree::Extent* prev = nullptr;
  for (const auto& e : tree.extents()) {
    ASSERT_GT(e.data.size(), 0u) << "op " << op << " extent at " << e.offset;
    if (prev != nullptr) {
      ASSERT_LT(prev->offset, e.offset) << "op " << op;
      ASSERT_LE(prev->offset + prev->data.size(), e.offset) << "op " << op;
    }
    sum += e.data.size();
    prev = &e;
  }
  if (prev != nullptr) {
    ASSERT_LE(prev->offset + prev->data.size(), tree.end()) << "op " << op;
  }
  ASSERT_EQ(sum, tree.bytesStored()) << "op " << op;
}

class ExtentFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtentFuzz, MatchesByteLevelReference) {
  sim::Rng rng(GetParam());
  ExtentTree tree;
  ExtentReference reference;
  constexpr std::uint64_t kSpace = 4096;

  for (int op = 0; op < 2000; ++op) {
    const auto kind = rng.uniform(0, 9);
    if (kind < 6) {  // write
      const std::uint64_t off = rng.uniform(0, kSpace);
      const std::uint64_t len = rng.uniform(1, 200);
      Payload p = vos::patternPayload(len, rng());
      reference.write(off, p);
      tree.write(off, std::move(p));
    } else if (kind < 8) {  // read + compare
      const std::uint64_t off = rng.uniform(0, kSpace);
      const std::uint64_t len = rng.uniform(1, 300);
      ASSERT_NO_FATAL_FAILURE(reference.checkRead(tree, off, len, op));
    } else if (kind == 8) {  // truncate
      const std::uint64_t size = rng.uniform(0, kSpace);
      tree.truncate(size);
      reference.truncate(size);
    } else {  // end() check
      ASSERT_EQ(tree.end(), reference.end) << "op " << op;
    }
    ASSERT_NO_FATAL_FAILURE(checkStructure(tree, op));
  }

  // Final accounting: stored bytes equal live reference bytes.
  ASSERT_EQ(tree.bytesStored(), reference.stored());
}

// Writes at or past end() take the append path; truncates to just below or
// above end() move it back into (or out past) the appended extents, so
// appends interleave with carving writes and both kinds of truncate.
TEST_P(ExtentFuzz, AppendsInterleavedWithTruncates) {
  sim::Rng rng(GetParam());
  ExtentTree tree;
  ExtentReference reference;

  for (int op = 0; op < 2000; ++op) {
    const auto kind = rng.uniform(0, 9);
    if (kind < 6) {
      const std::uint64_t end = tree.end();
      std::uint64_t off;
      if (kind < 4) {  // append, abutting or past a hole
        off = end + rng.uniform(0, 2) * 32;
      } else if (kind == 4) {  // overlap the last few stored bytes
        off = end - std::min<std::uint64_t>(end, rng.uniform(1, 4));
      } else {  // overwrite inside the stored range
        off = rng.uniform(0, end);
      }
      const std::uint64_t len = rng.uniform(1, 100);
      Payload p = vos::patternPayload(len, rng());
      reference.write(off, p);
      tree.write(off, std::move(p));
    } else if (kind == 6) {  // truncate smaller
      const std::uint64_t size =
          tree.end() - std::min<std::uint64_t>(tree.end(),
                                               rng.uniform(0, 150));
      tree.truncate(size);
      reference.truncate(size);
    } else if (kind == 7) {  // truncate larger
      const std::uint64_t size = tree.end() + rng.uniform(1, 150);
      tree.truncate(size);
      reference.truncate(size);
    } else {  // read around the end
      const std::uint64_t off =
          tree.end() - std::min<std::uint64_t>(tree.end(),
                                               rng.uniform(0, 300));
      ASSERT_NO_FATAL_FAILURE(
          reference.checkRead(tree, off, rng.uniform(1, 400), op));
    }
    ASSERT_EQ(tree.end(), reference.end) << "op " << op;
    ASSERT_EQ(tree.bytesStored(), reference.stored()) << "op " << op;
    ASSERT_NO_FATAL_FAILURE(checkStructure(tree, op));
  }
}

// The shape of IOR through dfuse at 4 KiB: hundreds of appends into one
// tree, then overwrites spanning several extents in the middle, then
// truncates into a middle extent and appends after them.
TEST_P(ExtentFuzz, ManyAppendsThenMiddleOverwritesAndTruncates) {
  sim::Rng rng(GetParam());
  ExtentTree tree;
  ExtentReference reference;
  constexpr std::uint64_t kBlock = 4096;
  constexpr std::uint64_t kAppends = 600;
  int op = 0;
  const auto write = [&](std::uint64_t off, std::uint64_t len) {
    Payload p = vos::patternPayload(len, rng());
    reference.write(off, p);
    tree.write(off, std::move(p));
    ++op;
    ASSERT_NO_FATAL_FAILURE(checkStructure(tree, op));
  };

  for (std::uint64_t i = 0; i < kAppends; ++i) {
    ASSERT_NO_FATAL_FAILURE(write(i * kBlock, kBlock));
  }
  ASSERT_EQ(tree.extentCount(), kAppends);

  for (int i = 0; i < 40; ++i) {  // each spans 2-8 extents, unaligned
    const std::uint64_t off = rng.uniform(kBlock, (kAppends - 10) * kBlock);
    ASSERT_NO_FATAL_FAILURE(write(off, rng.uniform(kBlock + 1, 7 * kBlock)));
    ASSERT_NO_FATAL_FAILURE(reference.checkRead(
        tree, off - std::min<std::uint64_t>(off, kBlock), 10 * kBlock, op));
  }

  for (int i = 0; i < 6; ++i) {  // truncate into a middle extent
    const std::uint64_t size = tree.end() / 2 + rng.uniform(1, kBlock - 1);
    tree.truncate(size);
    reference.truncate(size);
    ++op;
    ASSERT_NO_FATAL_FAILURE(checkStructure(tree, op));
    ASSERT_NO_FATAL_FAILURE(
        reference.checkRead(tree, size - std::min(size, kBlock), 2 * kBlock, op));
    for (int j = 0; j < 20; ++j) {
      ASSERT_NO_FATAL_FAILURE(write(tree.end(), kBlock));
    }
  }

  ASSERT_EQ(tree.end(), reference.end);
  ASSERT_EQ(tree.bytesStored(), reference.stored());
  ASSERT_NO_FATAL_FAILURE(reference.checkRead(tree, 0, tree.end(), op));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- DFS namespace vs reference -----------------------------------------

struct RefEntry {
  bool is_dir = false;
  std::uint64_t size = 0;
};

class DfsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DfsFuzz, NamespaceMatchesReference) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto servers = cluster.addNodes(hw::NodeSpec::server(), 2);
  auto cnode = cluster.addNode(hw::NodeSpec::client());
  daos::DaosSystem system(cluster, servers);
  daos::Client client(system, cnode, 1);

  const std::uint64_t seed = GetParam();
  auto h = sim.spawn([](daos::Client& c, std::uint64_t seed) -> Task<void> {
    sim::Rng rng(seed);
    co_await c.poolConnect();
    daos::Container cont = co_await c.contCreate("fuzz");
    dfs::FileSystem fs = co_await dfs::FileSystem::mount(c, cont);

    // Reference: normalized path -> entry. Root always exists.
    std::map<std::string, RefEntry> ref;
    ref["/"] = RefEntry{true, 0};

    auto randomDir = [&rng, &ref]() {
      std::vector<std::string> dirs;
      for (const auto& [p, e] : ref) {
        if (e.is_dir) dirs.push_back(p);
      }
      return dirs[static_cast<std::size_t>(
          rng.uniform(0, dirs.size() - 1))];
    };
    auto join = [](const std::string& dir, const std::string& name) {
      return dir == "/" ? "/" + name : dir + "/" + name;
    };

    for (int op = 0; op < 300; ++op) {
      const auto kind = rng.uniform(0, 9);
      if (kind < 3) {  // mkdir
        const std::string path =
            join(randomDir(), "d" + std::to_string(rng.uniform(0, 20)));
        const bool exists = ref.count(path) > 0;
        bool threw = false;
        try {
          co_await fs.mkdir(path);
        } catch (const std::runtime_error&) {
          threw = true;
        }
        EXPECT_EQ(threw, exists) << path;
        if (!exists) ref[path] = RefEntry{true, 0};
      } else if (kind < 6) {  // create/overwrite a file and write
        const std::string path =
            join(randomDir(), "f" + std::to_string(rng.uniform(0, 20)));
        auto it = ref.find(path);
        if (it != ref.end() && it->second.is_dir) continue;  // name is a dir
        const std::uint64_t n = rng.uniform(1, 8192);
        dfs::File f =
            co_await fs.open(path, {.create = true, .truncate = true});
        co_await fs.write(f, 0, Payload::synthetic(n));
        ref[path] = RefEntry{false, n};
      } else if (kind < 8) {  // stat/lookup agreement
        const std::string path =
            join(randomDir(), (rng.uniform(0, 1) ? "f" : "d") +
                                  std::to_string(rng.uniform(0, 20)));
        auto it = ref.find(path);
        auto entry = co_await fs.lookup(path);
        EXPECT_EQ(entry.has_value(), it != ref.end()) << path;
        if (entry.has_value() && it != ref.end() && !it->second.is_dir) {
          auto st = co_await fs.stat(path);
          EXPECT_EQ(st.size, it->second.size) << path;
        }
      } else if (kind == 8) {  // unlink a random file
        std::vector<std::string> files;
        for (const auto& [p, e] : ref) {
          if (!e.is_dir) files.push_back(p);
        }
        if (files.empty()) continue;
        const std::string path = files[static_cast<std::size_t>(
            rng.uniform(0, files.size() - 1))];
        co_await fs.unlink(path);
        ref.erase(path);
      } else {  // readdir agreement on a random directory
        const std::string dir = randomDir();
        auto names = co_await fs.readdir(dir);
        std::set<std::string> expected;
        const std::string prefix = dir == "/" ? "/" : dir + "/";
        for (const auto& [p, e] : ref) {
          if (p.size() > prefix.size() &&
              p.compare(0, prefix.size(), prefix) == 0 &&
              p.find('/', prefix.size()) == std::string::npos) {
            expected.insert(p.substr(prefix.size()));
          }
        }
        EXPECT_EQ(std::set<std::string>(names.begin(), names.end()),
                  expected)
            << dir;
      }
    }
  }(client, seed));
  sim.run();
  ASSERT_FALSE(h.failed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfsFuzz, ::testing::Values(7, 11, 19, 42));

// --- TargetStore vs flat reference map --------------------------------

// (seed, object ids per container, long-lived objects): a few ids keep the
// table at 16-32 slots so probe runs often wrap past the last slot; hundreds
// grow it repeatedly. Punching objects rarely lets a few ids grow past
// kScanRecords records, so one object moves between the scanned and the
// indexed record table while records are removed and dkeys punched.
class TargetStoreFuzz
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::uint64_t, bool>> {};

TEST_P(TargetStoreFuzz, MatchesFlatReferenceMap) {
  using vos::ContId;
  using placement::ObjectId;
  using Obj = std::pair<ContId, ObjectId>;
  using Key = std::tuple<ContId, ObjectId, std::string, std::string>;
  using Value = std::variant<Payload, ExtentTree>;

  const auto [seed, ids, long_lived] = GetParam();
  sim::Rng rng(seed);
  vos::TargetStore store;
  std::map<Key, Value> ref;
  std::set<Obj> objects;        // emptied objects stay until punched
  std::set<ContId> containers;  // stay counted until destroyed

  auto randomObj = [&rng, ids = ids] {
    return Obj{rng.uniform(1, 4),
               placement::makeOid(placement::ObjClass::S1,
                                  rng.uniform(0, ids - 1))};
  };
  auto randomDkey = [&rng]() -> std::string {
    const auto n = rng.uniform(0, 5);
    if (rng.uniform(0, 2) == 0) return vos::u64Dkey(n);
    return n == 0 ? std::string() : "d" + std::to_string(n);
  };
  auto randomAkey = [&rng] {
    return std::string(1, "0ab"[rng.uniform(0, 2)]);
  };
  // Generated dkeys and akeys all sort below "\xff".
  auto objRange = [&ref](const Obj& ob) {
    return std::pair(ref.lower_bound(Key{ob.first, ob.second, "", ""}),
                     ref.upper_bound(Key{ob.first, ob.second, "\xff", ""}));
  };
  auto touch = [&](const Obj& ob) {
    objects.insert(ob);
    containers.insert(ob.first);
  };

  // Every record of `ob` agrees with the reference; listings are in key
  // order, forEachRecord in any.
  auto checkObject = [&](const Obj& ob, int step) {
    const auto& [c, o] = ob;
    ASSERT_EQ(store.objectExists(c, o), objects.count(ob) > 0) << step;
    auto [first, last] = objRange(ob);
    std::vector<std::pair<std::string, std::string>> expect, got;
    std::vector<std::string> dkeys;
    for (auto it = first; it != last; ++it) {
      const auto& [kc, ko, dkey, akey] = it->first;
      expect.emplace_back(dkey, akey);
      if (dkeys.empty() || dkeys.back() != dkey) dkeys.push_back(dkey);
      const Payload* value = store.valueGet(c, o, dkey, akey);
      if (const auto* p = std::get_if<Payload>(&it->second)) {
        ASSERT_NE(value, nullptr) << step;
        ASSERT_EQ(*value, *p) << step;
        ASSERT_EQ(store.extentEnd(c, o, dkey, akey), 0u) << step;
      } else {
        ASSERT_EQ(value, nullptr) << step;
        ASSERT_EQ(store.extentEnd(c, o, dkey, akey),
                  std::get<ExtentTree>(it->second).end())
            << step;
      }
    }
    store.forEachRecord(c, o, [&](const vos::TargetStore::RecordView& v) {
      ASSERT_NE((v.value == nullptr), (v.tree == nullptr));
      got.emplace_back(*v.dkey, *v.akey);
    });
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, expect) << step;
    ASSERT_EQ(store.listDkeys(c, o), dkeys) << step;
    for (const std::string& dkey : dkeys) {
      std::vector<std::string> akeys;
      for (const auto& [d, a] : expect) {
        if (d == dkey) akeys.push_back(a);
      }
      ASSERT_EQ(store.listAkeys(c, o, dkey), akeys) << step;
    }
  };

  // Kinds 170 and up punch an object or destroy a container: 30 of 200
  // kinds, or 6 of 176 for long-lived objects.
  const std::uint64_t kinds = long_lived ? 176 : 200;
  // Successful removes and dkey punches, by whether the object held more
  // than kScanRecords records.
  int scanned_erases = 0, indexed_removes = 0, indexed_punches = 0;
  auto recordCount = [&](const Obj& ob) {
    auto [first, last] = objRange(ob);
    return static_cast<std::size_t>(std::distance(first, last));
  };

  for (int step = 0; step < 5000; ++step) {
    const Obj ob = randomObj();
    const auto& [c, o] = ob;
    const std::string dkey = randomDkey();
    const std::string akey = randomAkey();
    const Key key{c, o, dkey, akey};
    const auto kind = rng.uniform(0, kinds - 1);
    const bool indexed = recordCount(ob) > vos::TargetStore::kScanRecords;
    if (kind < 60) {
      Payload p = vos::patternPayload(rng.uniform(0, 64), rng());
      store.valuePut(c, o, dkey, akey, p);
      ref[key] = std::move(p);
      touch(ob);
    } else if (kind < 80) {
      const bool hit = ref.erase(key) > 0;
      ASSERT_EQ(store.valueRemove(c, o, dkey, akey), hit) << step;
      if (hit) ++(indexed ? indexed_removes : scanned_erases);
    } else if (kind < 140) {
      const std::uint64_t off = rng.uniform(0, 4096);
      const Payload p = Payload::synthetic(rng.uniform(1, 4096), rng());
      store.extentWrite(c, o, dkey, akey, off, p);
      Value& v = ref[key];
      if (!std::holds_alternative<ExtentTree>(v)) v = ExtentTree{};
      std::get<ExtentTree>(v).write(off, p);
      touch(ob);
    } else if (kind < 160) {
      const std::uint64_t size = rng.uniform(0, 8192);
      store.extentTruncate(c, o, dkey, akey, size);
      Value& v = ref[key];
      if (!std::holds_alternative<ExtentTree>(v)) v = ExtentTree{};
      std::get<ExtentTree>(v).truncate(size);
      touch(ob);
    } else if (kind < 170) {
      // Punch one dkey, or every dkey from it up (as an array truncate
      // does).
      const bool from = rng.uniform(0, 1) == 0;
      auto punched = [&](std::string_view d) {
        return from ? d >= dkey : d == dkey;
      };
      const bool hit = std::erase_if(ref, [&](const auto& r) {
                         const auto& [kc, ko, kd, ka] = r.first;
                         return kc == c && ko == o && punched(kd);
                       }) > 0;
      ASSERT_EQ(store.punchDkeys(c, o, punched), hit) << step;
      if (hit) ++(indexed ? indexed_punches : scanned_erases);
    } else if (kind < kinds - 1) {
      ASSERT_EQ(store.punchObject(c, o), objects.erase(ob) > 0) << step;
      auto [first, last] = objRange(ob);
      ref.erase(first, last);
    } else {
      store.destroyContainer(c);
      containers.erase(c);
      std::erase_if(objects, [c](const Obj& x) { return x.first == c; });
      std::erase_if(ref,
                    [c](const auto& r) { return std::get<0>(r.first) == c; });
    }

    ASSERT_EQ(store.objectCount(), objects.size()) << step;
    ASSERT_EQ(store.containerCount(), containers.size()) << step;
    std::uint64_t bytes = 0;
    for (const auto& [_, v] : ref) {
      const auto* p = std::get_if<Payload>(&v);
      bytes += p != nullptr ? p->size() : std::get<ExtentTree>(v).bytesStored();
    }
    ASSERT_EQ(store.bytesStored(), bytes) << step;
    auto listed = store.listObjects();
    std::sort(listed.begin(), listed.end());
    ASSERT_TRUE(std::equal(listed.begin(), listed.end(), objects.begin(),
                           objects.end()))
        << step;
    ASSERT_NO_FATAL_FAILURE(checkObject(ob, step));
    if (objects.size() <= 64 || step % 250 == 249) {
      for (const Obj& live : objects) {
        ASSERT_NO_FATAL_FAILURE(checkObject(live, step));
      }
    }
  }
  EXPECT_GT(scanned_erases, 0);
  if (long_lived && ids == 3) {
    EXPECT_GT(indexed_removes, 0);
    EXPECT_GT(indexed_punches, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndSizes, TargetStoreFuzz,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(3, 700),
                                            ::testing::Bool()));

}  // namespace
}  // namespace daosim
