#include "vos/extent_tree.h"

#include <cstring>
#include <vector>

namespace daosim::vos {

void ExtentTree::carve(std::uint64_t off, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t hi = off + len;

  // Predecessor extent overlapping the range start: split it.
  auto it = extents_.upper_bound(off);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    const std::uint64_t p_start = prev->first;
    const std::uint64_t p_end = p_start + prev->second.size();
    if (p_end > off) {
      Payload whole = prev->second;
      stored_ -= whole.size();
      extents_.erase(prev);
      if (p_start < off) {
        Payload left = whole.slice(0, off - p_start);
        stored_ += left.size();
        extents_.emplace(p_start, std::move(left));
      }
      if (p_end > hi) {
        Payload right = whole.slice(hi - p_start, p_end - hi);
        stored_ += right.size();
        extents_.emplace(hi, std::move(right));
      }
    }
  }

  // Extents starting inside the range: erase; trim the one crossing `hi`.
  it = extents_.lower_bound(off);
  while (it != extents_.end() && it->first < hi) {
    const std::uint64_t e_start = it->first;
    const std::uint64_t e_end = e_start + it->second.size();
    Payload whole = it->second;
    stored_ -= whole.size();
    it = extents_.erase(it);
    if (e_end > hi) {
      Payload right = whole.slice(hi - e_start, e_end - hi);
      stored_ += right.size();
      extents_.emplace(hi, std::move(right));
      break;
    }
  }
}

void ExtentTree::write(std::uint64_t offset, Payload payload) {
  if (payload.empty()) return;
  const std::uint64_t size = payload.size();
  stored_ += size;
  if (offset >= end_) {
    // Every extent ends at or before end_: an append overlaps none and
    // goes after all of them.
    end_ = offset + size;
    extents_.emplace_hint(extents_.end(), offset, std::move(payload));
    return;
  }
  carve(offset, size);
  end_ = std::max(end_, offset + size);
  extents_.emplace(offset, std::move(payload));
}

ExtentTree::ReadResult ExtentTree::read(std::uint64_t offset,
                                        std::uint64_t length) const {
  ReadResult r;
  if (length == 0) return r;

  // First pass: find overlapping extents and whether all carry real bytes.
  bool all_real = true;
  std::uint64_t found = 0;
  const std::uint64_t hi = offset + length;

  auto first = extents_.upper_bound(offset);
  if (first != extents_.begin()) {
    auto prev = std::prev(first);
    if (prev->first + prev->second.size() > offset) first = prev;
  }
  for (auto it = first; it != extents_.end() && it->first < hi; ++it) {
    const std::uint64_t lo = std::max(offset, it->first);
    const std::uint64_t e_hi = std::min(hi, it->first + it->second.size());
    found += e_hi - lo;
    if (!it->second.hasBytes()) all_real = false;
  }
  r.bytes_found = found;

  if (!all_real) {
    r.data = Payload::synthetic(length);
    return r;
  }

  // Assemble real bytes, zero-filling holes.
  std::vector<std::byte> out(length);  // zero-initialized
  for (auto it = first; it != extents_.end() && it->first < hi; ++it) {
    const std::uint64_t lo = std::max(offset, it->first);
    const std::uint64_t e_hi = std::min(hi, it->first + it->second.size());
    auto piece = it->second.slice(lo - it->first, e_hi - lo).bytes();
    std::memcpy(out.data() + (lo - offset), piece.data(), piece.size());
  }
  r.data = Payload::fromBytes(std::move(out));
  return r;
}

void ExtentTree::truncate(std::uint64_t size) {
  if (size < end_) carve(size, end_ - size);
  // Explicit-size semantics (POSIX ftruncate / daos_array_set_size): the
  // logical size becomes exactly `size`, shrinking or extending with a hole.
  end_ = size;
}

}  // namespace daosim::vos
