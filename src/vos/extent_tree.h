// Byte-granular extent index for array values (the VOS "evtree" analogue).
//
// A sorted extent vector: non-overlapping, non-empty extents ordered by
// start offset (so by end offset too). An append (a write at or past end())
// is a push_back; any other write finds the extents it overlaps with one
// binary search and replaces them with at most three (the head remnant, the
// new extent, the tail remnant) in one splice: last-writer-wins, as in VOS
// where newer epochs shadow older ones. Reads assemble bytes across
// extents; gaps read as zeros, matching DAOS array hole semantics.
#pragma once

#include <cstdint>
#include <vector>

#include "vos/payload.h"

namespace daosim::vos {

class ExtentTree {
 public:
  struct Extent {
    std::uint64_t offset = 0;
    Payload data;
  };

  struct ReadResult {
    Payload data;                ///< assembled payload of the requested length
    std::uint64_t bytes_found = 0;  ///< bytes actually backed by extents
  };

  void write(std::uint64_t offset, Payload payload);

  /// Reads [offset, offset+length). If every byte in range is backed by
  /// real-bytes extents (or is a hole), `data` is a real payload with holes
  /// zero-filled; otherwise it is synthetic of the requested length.
  ReadResult read(std::uint64_t offset, std::uint64_t length) const;

  /// One past the last stored byte (the array "size" VOS reports).
  std::uint64_t end() const noexcept { return end_; }

  /// Sets the logical size to exactly `size` (ftruncate / set_size
  /// semantics): extents beyond are removed, shrinking or extending end().
  void truncate(std::uint64_t size);

  std::uint64_t extentCount() const noexcept { return extents_.size(); }
  /// The extents in offset order, for migration/rebuild.
  const std::vector<Extent>& extents() const noexcept { return extents_; }
  std::uint64_t bytesStored() const noexcept { return stored_; }
  bool empty() const noexcept { return extents_.empty(); }

 private:
  std::vector<Extent> extents_;
  std::uint64_t end_ = 0;
  std::uint64_t stored_ = 0;
};

}  // namespace daosim::vos
