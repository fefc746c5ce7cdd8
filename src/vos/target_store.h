// Per-target versioned object store (the VOS analogue).
//
// One TargetStore exists per DAOS target (and is reused for Lustre OSTs and
// Ceph OSDs, which store their objects through the same structures). The
// data model mirrors VOS: container -> object -> dkey -> akey -> value,
// where a value is either a single atomic payload (KV records) or an extent
// tree (array records).
//
// The index is flat so that a record lookup takes few dependent loads: one
// open-addressing table per target keyed by (container, object) holds each
// object's records inline in its slot, and each object keeps one ordered map
// keyed by (dkey, akey), which iterates in dkey-then-akey order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "placement/oid.h"
#include "vos/extent_tree.h"
#include "vos/payload.h"

namespace daosim::vos {

using ContId = std::uint64_t;
using placement::ObjectId;

/// Serializes a 64-bit chunk/record index as a dkey (fixed 8-byte key).
std::string u64Dkey(std::uint64_t v);
std::uint64_t dkeyU64(std::string_view dkey);

class TargetStore {
 public:
  /// `retain_data=false` strips real bytes from *extent* (bulk data)
  /// payloads on ingest — benchmark mode: paper-scale runs would otherwise
  /// materialize terabytes. Single-value (KV) records always keep their
  /// bytes: they are metadata (directory entries, array attributes, dataset
  /// catalogs) that the layers above must be able to read back.
  explicit TargetStore(bool retain_data = true)
      : retain_data_(retain_data) {}

  // --- single-value (KV) records -------------------------------------
  void valuePut(ContId c, const ObjectId& o, std::string_view dkey,
                std::string_view akey, Payload value);
  /// Null if absent.
  const Payload* valueGet(ContId c, const ObjectId& o, std::string_view dkey,
                          std::string_view akey) const;
  bool valueRemove(ContId c, const ObjectId& o, std::string_view dkey,
                   std::string_view akey);

  // --- extent (array) records -----------------------------------------
  void extentWrite(ContId c, const ObjectId& o, std::string_view dkey,
                   std::string_view akey, std::uint64_t offset,
                   Payload payload);
  ExtentTree::ReadResult extentRead(ContId c, const ObjectId& o,
                                    std::string_view dkey,
                                    std::string_view akey,
                                    std::uint64_t offset,
                                    std::uint64_t length) const;
  /// End offset of the extent tree (0 if absent).
  std::uint64_t extentEnd(ContId c, const ObjectId& o, std::string_view dkey,
                          std::string_view akey) const;
  void extentTruncate(ContId c, const ObjectId& o, std::string_view dkey,
                      std::string_view akey, std::uint64_t size);

  // --- enumeration and life-cycle --------------------------------------
  std::vector<std::string> listDkeys(ContId c, const ObjectId& o) const;
  std::vector<std::string> listAkeys(ContId c, const ObjectId& o,
                                     std::string_view dkey) const;
  bool objectExists(ContId c, const ObjectId& o) const;
  /// Removes the object and all records beneath it (DAOS punch).
  bool punchObject(ContId c, const ObjectId& o);
  bool punchDkey(ContId c, const ObjectId& o, std::string_view dkey);
  void destroyContainer(ContId c);

  // --- enumeration for migration/rebuild --------------------------------
  /// Every (container, object) pair held by this target.
  std::vector<std::pair<ContId, ObjectId>> listObjects() const;

  /// A view of one record for copy-out.
  struct RecordView {
    const std::string* dkey;
    const std::string* akey;
    const Payload* value;     // non-null for single-value records
    const ExtentTree* tree;   // non-null for extent records
  };
  /// Invokes `fn(RecordView)` for every record of the object.
  template <typename Fn>
  void forEachRecord(ContId c, const ObjectId& o, Fn&& fn) const {
    const Records* records = findObject(c, o);
    if (records == nullptr) return;
    for (const auto& [key, value] : *records) {
      RecordView view{&key.first, &key.second, std::get_if<Payload>(&value),
                      std::get_if<ExtentTree>(&value)};
      fn(view);
    }
  }

  // --- accounting -------------------------------------------------------
  std::uint64_t bytesStored() const noexcept { return bytes_stored_; }
  std::uint64_t objectCount() const noexcept { return objects_; }
  /// Containers holding an object, or that did since their last
  /// destroyContainer (punching the last object keeps a container counted).
  std::uint64_t containerCount() const noexcept { return containers_.size(); }

  // Cumulative record-op counts (telemetry rate probes: per-target VOS
  // op/s). Reads count even when they miss — the lookup work happens either
  // way.
  std::uint64_t valuePuts() const noexcept { return value_puts_; }
  std::uint64_t valueGets() const noexcept { return value_gets_; }
  std::uint64_t extentWrites() const noexcept { return extent_writes_; }
  std::uint64_t extentReads() const noexcept { return extent_reads_; }
  std::uint64_t recordOps() const noexcept {
    return value_puts_ + value_gets_ + extent_writes_ + extent_reads_;
  }

 private:
  using Value = std::variant<Payload, ExtentTree>;
  using RecordKey = std::pair<std::string, std::string>;  // (dkey, akey)
  /// Orders records by dkey, then akey; transparent over string_view pairs
  /// so lookups build no strings.
  struct RecordLess {
    using is_transparent = void;
    using View = std::pair<std::string_view, std::string_view>;
    static View view(const RecordKey& k) noexcept {
      return {k.first, k.second};
    }
    static View view(const View& k) noexcept { return k; }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const noexcept {
      const View x = view(a);
      const View y = view(b);
      const int d = x.first.compare(y.first);
      return d != 0 ? d < 0 : x.second < y.second;
    }
  };
  using Records = std::map<RecordKey, Value, RecordLess>;

  /// One object table entry. Linear probing over a power-of-two capacity;
  /// deletion shifts the rest of the probe run back, so no tombstones.
  struct Slot {
    ObjectId oid;
    ContId cont = 0;
    bool used = false;
    Records records;
  };

  Payload ingest(Payload p) const {
    return (!retain_data_ && p.hasBytes()) ? p.stripBytes() : std::move(p);
  }

  std::size_t home(ContId c, const ObjectId& o) const noexcept;
  /// Index of the slot holding (c, o), or of the empty slot that ends its
  /// probe run. Requires a non-empty table.
  std::size_t probe(ContId c, const ObjectId& o) const noexcept;
  /// Index of the slot holding (c, o), or slots_.size() if absent.
  std::size_t find(ContId c, const ObjectId& o) const noexcept;
  const Records* findObject(ContId c, const ObjectId& o) const;
  const Value* findValue(ContId c, const ObjectId& o, std::string_view dkey,
                         std::string_view akey) const;
  /// The record's value, created (as an empty Payload) with its object and
  /// container if absent.
  Value& slot(ContId c, const ObjectId& o, std::string_view dkey,
              std::string_view akey);
  /// `v` as an extent tree, replacing any single value it held.
  ExtentTree& asTree(Value& v);
  void grow();
  /// Empties slot `i` and shifts the rest of its probe run back.
  void eraseSlot(std::size_t i);

  static std::uint64_t valueBytes(const Value& v);

  bool retain_data_;
  std::vector<Slot> slots_;         // capacity 0 or a power of two
  std::uint64_t objects_ = 0;       // used slots
  std::vector<ContId> containers_;  // a handful per target
  std::uint64_t bytes_stored_ = 0;
  std::uint64_t value_puts_ = 0;
  mutable std::uint64_t value_gets_ = 0;  // bumped in const getters
  std::uint64_t extent_writes_ = 0;
  mutable std::uint64_t extent_reads_ = 0;
};

}  // namespace daosim::vos
