// Monotone radix queue for the discrete-event kernel.
//
// The kernel's ordering contract is exact: events pop in (time, seq) order,
// seq being the global push counter, so FIFO-within-timestamp determinism is
// preserved bit for bit. The queue exploits the kernel's monotonicity: every
// push has t >= now >= last, where `last` is the time of the most recently
// popped event (0 before the first pop). Events are filed by the highest bit
// in which their time differs from `last`:
//
//   * front      — events at exactly `last` (semaphore hand-offs, barrier
//                  releases, join wake-ups, yields, and timers that have come
//                  due), popped in FIFO order;
//   * bucket k   — events whose t ^ last has its highest set bit at k
//                  (k = 0..63), kept as unordered appends; a 64-bit mask
//                  marks the non-empty ones.
//
// When the front drains, pop takes the lowest non-empty bucket, moves `last`
// up to that bucket's minimum time and redistributes the bucket in order:
// its minimum-time events become the new front, the rest fall into strictly
// lower buckets. Higher buckets never move, because the new `last` agrees
// with the old one on every bit above the split bucket's.
//
// Ordering proof sketch: a bucket only ever receives (a) pushes, appended in
// seq order, and (b) stable redistributions of a higher bucket, each of which
// arrives while the bucket is empty (the split bucket was the lowest
// non-empty one). By induction every bucket, and the front, is in seq order,
// and events with equal t always share a bucket (the bucket is a function of
// t and `last`). So the front is the exact (t, seq) order of the events at
// `last`, and every other event has t > last. No seq is ever compared.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <memory>

#include "sim/time.h"

namespace daosim::sim {

class EventQueue {
 public:
  /// A scheduled coroutine resumption.
  struct Item {
    Time t = 0;
    std::uint64_t seq = 0;
    std::coroutine_handle<> h;
  };

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// Pushes an event; `now` is the kernel's current time and `t >= now`,
  /// `seq` strictly increasing across pushes.
  void push([[maybe_unused]] Time now, Time t, std::uint64_t seq,
            std::coroutine_handle<> h) {
    assert(t >= now && now >= last_);
    ++size_;
    if (t == last_) {
      front_.append(Item{t, seq, h});
      return;
    }
    const int k = bucketOf(t, last_);
    buckets_[k].append(Item{t, seq, h});
    mask_ |= std::uint64_t{1} << k;
  }

  /// Pops the (time, seq)-minimum event. Queue must be non-empty.
  Item pop() {
    assert(size_ > 0);
    if (head_ == front_.size) refill();
    const Item e = front_.data[head_++];
    // Refill the front from index zero once it drains, so same-instant
    // hand-off chains never grow it.
    if (head_ == front_.size) {
      front_.size = 0;
      head_ = 0;
    }
    --size_;
    return e;
  }

 private:
  /// Append-only event array. std::vector's push_back stays an out-of-line
  /// call at the kernel's push sites and in refill(); here the append is
  /// inline and only growth is a call.
  struct Items {
    std::unique_ptr<Item[]> data;
    std::size_t size = 0;
    std::size_t cap = 0;

    void append(const Item& e) {
      if (size == cap) [[unlikely]] grow();
      data[size++] = e;
    }
    [[gnu::noinline]] void grow() {
      cap = cap == 0 ? 64 : 2 * cap;
      std::unique_ptr<Item[]> d(new Item[cap]);
      std::copy_n(data.get(), size, d.get());
      data = std::move(d);
    }
  };

  /// Bucket of a time t != last: the index of the highest differing bit.
  static int bucketOf(Time t, Time last) noexcept {
    return std::bit_width(t ^ last) - 1;
  }

  static Time minTime(const Items& b) noexcept {
    Time t = b.data[0].t;
    for (std::size_t i = 1; i < b.size; ++i) {
      if (b.data[i].t < t) t = b.data[i].t;
    }
    return t;
  }

  /// Front is drained: splits the lowest non-empty bucket around its
  /// minimum time, which becomes the new `last`.
  void refill() {
    assert(mask_ != 0);
    const int k = std::countr_zero(mask_);
    Items& b = buckets_[k];
    const Time lo = minTime(b);
    last_ = lo;
    std::uint64_t mask = mask_ & ~(std::uint64_t{1} << k);
    const Item* const src = b.data.get();
    const std::size_t n = b.size;
    for (std::size_t i = 0; i < n; ++i) {
      const Item& e = src[i];
      if (e.t == lo) {
        front_.append(e);
      } else {
        const int j = bucketOf(e.t, lo);  // j < k
        buckets_[j].append(e);
        mask |= std::uint64_t{1} << j;
      }
    }
    mask_ = mask;
    b.size = 0;
  }

  Items front_;  // events at last_, FIFO from head_
  std::size_t head_ = 0;
  Time last_ = 0;
  Items buckets_[64];
  std::uint64_t mask_ = 0;  // bit k set iff buckets_[k] is non-empty
  std::size_t size_ = 0;
};

}  // namespace daosim::sim
