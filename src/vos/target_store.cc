#include "vos/target_store.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

#include "sim/rng.h"

namespace daosim::vos {

std::string u64Dkey(std::uint64_t v) {
  std::string s(8, '\0');
  for (int i = 7; i >= 0; --i) {  // big-endian so keys sort numerically
    s[static_cast<std::size_t>(i)] = static_cast<char>(v & 0xff);
    v >>= 8;
  }
  return s;
}

std::uint64_t dkeyU64(std::string_view dkey) {
  std::uint64_t v = 0;
  for (char c : dkey.substr(0, 8)) {
    v = (v << 8) | static_cast<unsigned char>(c);
  }
  return v;
}

std::size_t TargetStore::Records::hash(std::string_view dkey,
                                       std::string_view akey) noexcept {
  const std::hash<std::string_view> h;
  return static_cast<std::size_t>(sim::hashCombine(h(dkey), h(akey)));
}

std::size_t TargetStore::Records::position(
    std::string_view dkey, std::string_view akey) const noexcept {
  if (index_.empty()) {
    for (std::size_t pos = 0; pos < records_.size(); ++pos) {
      const Record& r = records_[pos];
      if (r.dkey == dkey && r.akey == akey) return pos;
    }
    return records_.size();
  }
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash(dkey, akey) & mask; index_[i] != 0;
       i = (i + 1) & mask) {
    const std::size_t pos = index_[i] - 1;
    const Record& r = records_[pos];
    if (r.dkey == dkey && r.akey == akey) return pos;
  }
  return records_.size();
}

const TargetStore::Record* TargetStore::Records::find(
    std::string_view dkey, std::string_view akey) const noexcept {
  const std::size_t pos = position(dkey, akey);
  return pos < records_.size() ? &records_[pos] : nullptr;
}

TargetStore::Value& TargetStore::Records::findOrAdd(std::string_view dkey,
                                                    std::string_view akey) {
  const std::size_t pos = position(dkey, akey);
  if (pos < records_.size()) return records_[pos].value;
  records_.push_back(Record{std::string(dkey), std::string(akey), Value()});
  // Index past kScanRecords, rebuilding it larger once it is half full.
  if (2 * records_.size() > index_.size() && records_.size() > kScanRecords) {
    reindex();
  } else if (!index_.empty()) {
    indexInsert(static_cast<std::uint32_t>(records_.size() - 1));
  }
  return records_.back().value;
}

std::size_t TargetStore::Records::entryOf(std::uint32_t pos) const noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash(records_[pos]) & mask;
  while (index_[i] != pos + 1) i = (i + 1) & mask;
  return i;
}

void TargetStore::Records::indexInsert(std::uint32_t pos) noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash(records_[pos]) & mask;
  while (index_[i] != 0) i = (i + 1) & mask;
  index_[i] = pos + 1;
}

void TargetStore::Records::indexErase(std::size_t i) noexcept {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t j = (i + 1) & mask; index_[j] != 0; j = (j + 1) & mask) {
    // The entry at j may fill the hole at i unless its home lies
    // (cyclically) in (i, j].
    const std::size_t from_home =
        (j - hash(records_[index_[j] - 1])) & mask;
    if (from_home >= ((j - i) & mask)) {
      index_[i] = index_[j];
      i = j;
    }
  }
  index_[i] = 0;
}

void TargetStore::Records::erase(const Record* r) {
  const auto pos = static_cast<std::uint32_t>(r - records_.data());
  const auto last = static_cast<std::uint32_t>(records_.size() - 1);
  if (!index_.empty()) {
    indexErase(entryOf(pos));
    if (pos != last) index_[entryOf(last)] = pos + 1;
  }
  if (pos != last) records_[pos] = std::move(records_[last]);
  records_.pop_back();
}

void TargetStore::Records::reindex() {
  index_.clear();
  if (records_.size() <= kScanRecords) {
    index_.shrink_to_fit();
    return;
  }
  index_.resize(std::bit_ceil(2 * records_.size()));
  for (std::size_t pos = 0; pos < records_.size(); ++pos) {
    indexInsert(static_cast<std::uint32_t>(pos));
  }
}

std::size_t TargetStore::home(ContId c, const ObjectId& o) const noexcept {
  return static_cast<std::size_t>(sim::hashCombine(c, o.hash())) &
         (slots_.size() - 1);
}

std::size_t TargetStore::probe(ContId c, const ObjectId& o) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(c, o);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (!s.used || (s.cont == c && s.oid == o)) return i;
  }
}

std::size_t TargetStore::find(ContId c, const ObjectId& o) const noexcept {
  if (slots_.empty()) return 0;
  const std::size_t i = probe(c, o);
  return slots_[i].used ? i : slots_.size();
}

const TargetStore::Records* TargetStore::findObject(ContId c,
                                                    const ObjectId& o) const {
  const std::size_t i = find(c, o);
  return i < slots_.size() ? &slots_[i].records : nullptr;
}

const TargetStore::Value* TargetStore::findValue(ContId c, const ObjectId& o,
                                                 std::string_view dkey,
                                                 std::string_view akey) const {
  const Records* records = findObject(c, o);
  if (records == nullptr) return nullptr;
  const Record* r = records->find(dkey, akey);
  return r == nullptr ? nullptr : &r->value;
}

TargetStore::Value& TargetStore::slot(ContId c, const ObjectId& o,
                                      std::string_view dkey,
                                      std::string_view akey) {
  // Grow at 3/4 load so probe runs stay short.
  if (4 * (objects_ + 1) > 3 * slots_.size()) grow();
  Slot& s = slots_[probe(c, o)];
  if (!s.used) {
    s.used = true;
    s.cont = c;
    s.oid = o;
    ++objects_;
    if (std::find(containers_.begin(), containers_.end(), c) ==
        containers_.end()) {
      containers_.push_back(c);
    }
  }
  return s.records.findOrAdd(dkey, akey);
}

ExtentTree& TargetStore::asTree(Value& v) {
  if (!std::holds_alternative<ExtentTree>(v)) {
    bytes_stored_ -= valueBytes(v);
    v.emplace<ExtentTree>();
  }
  return std::get<ExtentTree>(v);
}

void TargetStore::grow() {
  std::vector<Slot> old = std::exchange(
      slots_, std::vector<Slot>(std::max<std::size_t>(16, 2 * slots_.size())));
  for (Slot& s : old) {
    if (s.used) slots_[probe(s.cont, s.oid)] = std::move(s);
  }
}

void TargetStore::eraseSlot(std::size_t i) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (i + 1) & mask; slots_[j].used; j = (j + 1) & mask) {
    // The entry at j may fill the hole at i unless its home lies
    // (cyclically) in (i, j].
    const std::size_t from_home = (j - home(slots_[j].cont, slots_[j].oid)) &
                                  mask;
    if (from_home >= ((j - i) & mask)) {
      slots_[i] = std::move(slots_[j]);
      i = j;
    }
  }
  slots_[i] = Slot{};
  --objects_;
}

std::uint64_t TargetStore::valueBytes(const Value& v) {
  if (const auto* p = std::get_if<Payload>(&v)) return p->size();
  return std::get<ExtentTree>(v).bytesStored();
}

void TargetStore::valuePut(ContId c, const ObjectId& o, std::string_view dkey,
                           std::string_view akey, Payload value) {
  ++value_puts_;
  Value& v = slot(c, o, dkey, akey);
  bytes_stored_ -= valueBytes(v);
  v = std::move(value);  // KV records always retain bytes
  bytes_stored_ += valueBytes(v);
}

const Payload* TargetStore::valueGet(ContId c, const ObjectId& o,
                                     std::string_view dkey,
                                     std::string_view akey) const {
  ++value_gets_;
  const Value* v = findValue(c, o, dkey, akey);
  return v == nullptr ? nullptr : std::get_if<Payload>(v);
}

bool TargetStore::valueRemove(ContId c, const ObjectId& o,
                              std::string_view dkey, std::string_view akey) {
  // The object stays in place even when this empties it.
  const std::size_t i = find(c, o);
  if (i == slots_.size()) return false;
  Records& records = slots_[i].records;
  const Record* r = records.find(dkey, akey);
  if (r == nullptr) return false;
  bytes_stored_ -= valueBytes(r->value);
  records.erase(r);
  return true;
}

void TargetStore::extentWrite(ContId c, const ObjectId& o,
                              std::string_view dkey, std::string_view akey,
                              std::uint64_t offset, Payload payload) {
  ++extent_writes_;
  ExtentTree& tree = asTree(slot(c, o, dkey, akey));
  bytes_stored_ -= tree.bytesStored();
  tree.write(offset, ingest(std::move(payload)));
  bytes_stored_ += tree.bytesStored();
}

ExtentTree::ReadResult TargetStore::extentRead(ContId c, const ObjectId& o,
                                               std::string_view dkey,
                                               std::string_view akey,
                                               std::uint64_t offset,
                                               std::uint64_t length) const {
  ++extent_reads_;
  if (const Value* v = findValue(c, o, dkey, akey)) {
    if (const auto* tree = std::get_if<ExtentTree>(v)) {
      return tree->read(offset, length);
    }
  }
  ExtentTree::ReadResult hole;
  hole.data = Payload::synthetic(length);
  hole.bytes_found = 0;
  return hole;
}

std::uint64_t TargetStore::extentEnd(ContId c, const ObjectId& o,
                                     std::string_view dkey,
                                     std::string_view akey) const {
  const ExtentTree* tree = findTree(c, o, dkey, akey);
  return tree == nullptr ? 0 : tree->end();
}

const ExtentTree* TargetStore::findTree(ContId c, const ObjectId& o,
                                        std::string_view dkey,
                                        std::string_view akey) const {
  const Value* v = findValue(c, o, dkey, akey);
  return v == nullptr ? nullptr : std::get_if<ExtentTree>(v);
}

void TargetStore::extentTruncate(ContId c, const ObjectId& o,
                                 std::string_view dkey, std::string_view akey,
                                 std::uint64_t size) {
  ExtentTree& tree = asTree(slot(c, o, dkey, akey));
  bytes_stored_ -= tree.bytesStored();
  tree.truncate(size);
  bytes_stored_ += tree.bytesStored();
}

std::vector<std::string> TargetStore::listDkeys(ContId c,
                                                const ObjectId& o) const {
  std::vector<std::string> out;
  if (const Records* records = findObject(c, o)) {
    for (const Record& r : records->all()) out.push_back(r.dkey);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::string> TargetStore::listAkeys(ContId c, const ObjectId& o,
                                                std::string_view dkey) const {
  std::vector<std::string> out;
  if (const Records* records = findObject(c, o)) {
    for (const Record& r : records->all()) {
      if (r.dkey == dkey) out.push_back(r.akey);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool TargetStore::objectExists(ContId c, const ObjectId& o) const {
  return findObject(c, o) != nullptr;
}

bool TargetStore::punchObject(ContId c, const ObjectId& o) {
  const std::size_t i = find(c, o);
  if (i == slots_.size()) return false;
  for (const Record& r : slots_[i].records.all()) {
    bytes_stored_ -= valueBytes(r.value);
  }
  eraseSlot(i);
  return true;
}

void TargetStore::destroyContainer(ContId c) {
  auto cit = std::find(containers_.begin(), containers_.end(), c);
  if (cit == containers_.end()) return;
  containers_.erase(cit);
  // Erasing shifts later entries back into slot i, so re-examine it; only
  // entries already passed (and kept) can wrap around behind the scan.
  for (std::size_t i = 0; i < slots_.size();) {
    Slot& s = slots_[i];
    if (s.used && s.cont == c) {
      for (const Record& r : s.records.all()) {
        bytes_stored_ -= valueBytes(r.value);
      }
      eraseSlot(i);
    } else {
      ++i;
    }
  }
}

std::vector<std::pair<ContId, ObjectId>> TargetStore::listObjects() const {
  std::vector<std::pair<ContId, ObjectId>> out;
  out.reserve(objects_);
  for (const Slot& s : slots_) {
    if (s.used) out.emplace_back(s.cont, s.oid);
  }
  return out;
}

}  // namespace daosim::vos
