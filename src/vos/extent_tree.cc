#include "vos/extent_tree.h"

#include <algorithm>
#include <cstring>
#include <iterator>

namespace daosim::vos {

namespace {

/// First extent of `v` that ends after `off`. Extents are disjoint and
/// sorted by offset, so their ends are sorted too.
template <class Vec>
auto firstEndingAfter(Vec& v, std::uint64_t off) {
  return std::partition_point(
      v.begin(), v.end(), [off](const ExtentTree::Extent& e) {
        return e.offset + e.data.size() <= off;
      });
}

}  // namespace

void ExtentTree::write(std::uint64_t offset, Payload payload) {
  if (payload.empty()) return;
  const std::uint64_t size = payload.size();
  const std::uint64_t hi = offset + size;
  stored_ += size;
  if (offset >= end_) {
    // Every extent ends at or before end_: an append overlaps none and
    // goes after all of them.
    end_ = hi;
    extents_.push_back({offset, std::move(payload)});
    return;
  }
  end_ = std::max(end_, hi);

  // [first, last) are the extents overlapping [offset, hi).
  auto first = firstEndingAfter(extents_, offset);
  auto last = first;
  while (last != extents_.end() && last->offset < hi) {
    stored_ -= last->data.size();
    ++last;
  }

  // Their replacement: head remnant, new extent, tail remnant.
  Extent repl[3];
  int n = 0;
  if (first != last && first->offset < offset) {
    Payload head = first->data.slice(0, offset - first->offset);
    stored_ += head.size();
    repl[n++] = {first->offset, std::move(head)};
  }
  repl[n++] = {offset, std::move(payload)};
  if (first != last) {
    const Extent& e = *std::prev(last);
    const std::uint64_t e_hi = e.offset + e.data.size();
    if (e_hi > hi) {
      Payload tail = e.data.slice(hi - e.offset, e_hi - hi);
      stored_ += tail.size();
      repl[n++] = {hi, std::move(tail)};
    }
  }

  const auto pos = extents_.erase(first, last);
  extents_.insert(pos, std::make_move_iterator(repl),
                  std::make_move_iterator(repl + n));
}

ExtentTree::ReadResult ExtentTree::read(std::uint64_t offset,
                                        std::uint64_t length) const {
  ReadResult r;
  if (length == 0) return r;

  // First pass: find overlapping extents and whether all carry real bytes.
  bool all_real = true;
  std::uint64_t found = 0;
  const std::uint64_t hi = offset + length;

  const auto first = firstEndingAfter(extents_, offset);
  for (auto it = first; it != extents_.end() && it->offset < hi; ++it) {
    const std::uint64_t lo = std::max(offset, it->offset);
    const std::uint64_t e_hi = std::min(hi, it->offset + it->data.size());
    found += e_hi - lo;
    if (!it->data.hasBytes()) all_real = false;
  }
  r.bytes_found = found;

  if (!all_real) {
    r.data = Payload::synthetic(length);
    return r;
  }

  // Assemble real bytes, zero-filling holes.
  std::vector<std::byte> out(length);  // zero-initialized
  for (auto it = first; it != extents_.end() && it->offset < hi; ++it) {
    const std::uint64_t lo = std::max(offset, it->offset);
    const std::uint64_t e_hi = std::min(hi, it->offset + it->data.size());
    auto piece = it->data.slice(lo - it->offset, e_hi - lo).bytes();
    std::memcpy(out.data() + (lo - offset), piece.data(), piece.size());
  }
  r.data = Payload::fromBytes(std::move(out));
  return r;
}

void ExtentTree::truncate(std::uint64_t size) {
  if (size < end_) {
    auto first = firstEndingAfter(extents_, size);
    if (first != extents_.end() && first->offset < size) {
      // Straddles the new end: keep its head.
      const std::uint64_t keep = size - first->offset;
      stored_ -= first->data.size() - keep;
      first->data = first->data.slice(0, keep);
      ++first;
    }
    for (auto it = first; it != extents_.end(); ++it) {
      stored_ -= it->data.size();
    }
    extents_.erase(first, extents_.end());
  }
  // Explicit-size semantics (POSIX ftruncate / daos_array_set_size): the
  // logical size becomes exactly `size`, shrinking or extending with a hole.
  end_ = size;
}

}  // namespace daosim::vos
