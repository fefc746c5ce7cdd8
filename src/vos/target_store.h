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
// object's record table inline in its slot. A record table is one vector of
// (dkey, akey, value) records in no particular order, hashed by (dkey, akey)
// as VOS hashes its key trees by default: small tables are scanned, larger
// ones carry an open-addressing index of record positions. listDkeys and
// listAkeys sort by key when called; forEachRecord visits records unordered.
#pragma once

#include <cstddef>
#include <cstdint>
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

  /// Records per object up to which a lookup scans them; an object holding
  /// more has a hash index over them. Most objects stay small, and sparing
  /// them an index keeps perfbench's peak RSS 3-5% below indexing every
  /// object; the index keeps objects of hundreds of records (Field I/O's
  /// index KVs) fast. A limit of 4 was slower, 16 and 32 no faster.
  static constexpr std::size_t kScanRecords = 8;

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
  /// The record's extent tree; null if absent or a single value.
  const ExtentTree* findTree(ContId c, const ObjectId& o,
                             std::string_view dkey,
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
  /// Removes, in one pass over the object, every dkey `pred(dkey)` is true
  /// for, with all its akeys (daos_obj_punch_dkeys); returns whether any
  /// record went. The object stays even when this empties it.
  template <typename Pred>
  bool punchDkeys(ContId c, const ObjectId& o, Pred pred) {
    const std::size_t i = find(c, o);
    if (i == slots_.size()) return false;
    return slots_[i].records.eraseIf([&](const Record& r) {
      if (!pred(std::string_view(r.dkey))) return false;
      bytes_stored_ -= valueBytes(r.value);
      return true;
    });
  }
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
  /// Invokes `fn(RecordView)` for every record of the object, in no
  /// particular order.
  template <typename Fn>
  void forEachRecord(ContId c, const ObjectId& o, Fn&& fn) const {
    const Records* records = findObject(c, o);
    if (records == nullptr) return;
    for (const Record& r : records->all()) {
      RecordView view{&r.dkey, &r.akey, std::get_if<Payload>(&r.value),
                      std::get_if<ExtentTree>(&r.value)};
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
  struct Record {
    std::string dkey;
    std::string akey;
    Value value;
  };

  /// One object's records. Up to kScanRecords a lookup scans them; above,
  /// `index_` (linear probing over a power-of-two capacity, at most half
  /// full) maps (dkey, akey) hashes to 1-based record positions, 0 marking
  /// an empty entry. Erasing one record moves the last into its place and
  /// fixes two index entries; erasing by predicate rebuilds the index once.
  class Records {
   public:
    const Record* find(std::string_view dkey,
                       std::string_view akey) const noexcept;
    /// The record's value, appended as an empty Payload if absent.
    Value& findOrAdd(std::string_view dkey, std::string_view akey);
    /// Erases `r`, one of these records.
    void erase(const Record* r);
    /// Erases the records `pred` is true for, calling it once per record;
    /// returns whether it erased any.
    template <typename Pred>
    bool eraseIf(Pred pred) {
      if (std::erase_if(records_, pred) == 0) return false;
      reindex();
      return true;
    }
    const std::vector<Record>& all() const noexcept { return records_; }

   private:
    static std::size_t hash(const Record& r) noexcept {
      return hash(r.dkey, r.akey);
    }
    static std::size_t hash(std::string_view dkey,
                            std::string_view akey) noexcept;
    /// Position of the record (dkey, akey), or records_.size() if absent.
    std::size_t position(std::string_view dkey,
                         std::string_view akey) const noexcept;
    /// The index entry holding record position `pos`. Requires an index.
    std::size_t entryOf(std::uint32_t pos) const noexcept;
    /// Enters record position `pos` into the index.
    void indexInsert(std::uint32_t pos) noexcept;
    /// Empties index entry `i` and shifts the rest of its probe run back.
    void indexErase(std::size_t i) noexcept;
    /// Rebuilds the index for the current records (none when few).
    void reindex();

    std::vector<Record> records_;
    std::vector<std::uint32_t> index_;  // empty or a power-of-two capacity
  };

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
