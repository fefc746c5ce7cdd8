#include "vos/target_store.h"

#include <algorithm>
#include <tuple>
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
  auto it = records->find(RecordLess::View(dkey, akey));
  return it == records->end() ? nullptr : &it->second;
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
  const RecordLess::View key(dkey, akey);
  auto it = s.records.lower_bound(key);
  if (it == s.records.end() || s.records.key_comp()(key, it->first)) {
    it = s.records.emplace_hint(
        it, std::piecewise_construct,
        std::forward_as_tuple(std::string(dkey), std::string(akey)),
        std::forward_as_tuple());
  }
  return it->second;
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
  auto it = records.find(RecordLess::View(dkey, akey));
  if (it == records.end()) return false;
  bytes_stored_ -= valueBytes(it->second);
  records.erase(it);
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
  const Value* v = findValue(c, o, dkey, akey);
  const auto* tree = v == nullptr ? nullptr : std::get_if<ExtentTree>(v);
  return tree == nullptr ? 0 : tree->end();
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
    for (const auto& [key, _] : *records) {
      if (out.empty() || out.back() != key.first) out.push_back(key.first);
    }
  }
  return out;
}

std::vector<std::string> TargetStore::listAkeys(ContId c, const ObjectId& o,
                                                std::string_view dkey) const {
  std::vector<std::string> out;
  if (const Records* records = findObject(c, o)) {
    for (auto it = records->lower_bound(RecordLess::View(dkey, {}));
         it != records->end() && it->first.first == dkey; ++it) {
      out.push_back(it->first.second);
    }
  }
  return out;
}

bool TargetStore::objectExists(ContId c, const ObjectId& o) const {
  return findObject(c, o) != nullptr;
}

bool TargetStore::punchObject(ContId c, const ObjectId& o) {
  const std::size_t i = find(c, o);
  if (i == slots_.size()) return false;
  for (const auto& [_, v] : slots_[i].records) bytes_stored_ -= valueBytes(v);
  eraseSlot(i);
  return true;
}

bool TargetStore::punchDkey(ContId c, const ObjectId& o,
                            std::string_view dkey) {
  const std::size_t i = find(c, o);
  if (i == slots_.size()) return false;
  Records& records = slots_[i].records;
  auto first = records.lower_bound(RecordLess::View(dkey, {}));
  auto last = first;
  for (; last != records.end() && last->first.first == dkey; ++last) {
    bytes_stored_ -= valueBytes(last->second);
  }
  if (first == last) return false;
  records.erase(first, last);
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
      for (const auto& [_, v] : s.records) bytes_stored_ -= valueBytes(v);
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
