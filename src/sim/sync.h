// Synchronization primitives for simulated coroutines.
//
// All primitives resume waiters *through the scheduler* (at the current
// simulated time) rather than inline, which keeps resumption order FIFO and
// deterministic and bounds native stack depth. Semaphore uses hand-off
// semantics: release() grants the permit directly to the oldest waiter, so
// queueing is strictly fair (no barging) — important for the queueing-station
// models built on top of it. Waiter queues are intrusive FIFO lists whose
// nodes live in the suspended awaiters, so blocking allocates nothing.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/simulation.h"
#include "sim/task.h"

namespace daosim::sim {

/// One-shot event: waiters block until set() is called; waits after set()
/// complete immediately. set() is idempotent.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(&sim) {}

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool isSet() const noexcept { return set_; }

  void set() {
    if (set_) return;
    set_ = true;
    waiters_.scheduleAll(*sim_);
  }

  auto wait() noexcept {
    struct Awaiter {
      Event* ev;
      detail::WaitNode node;
      bool await_ready() const noexcept { return ev->set_; }
      void await_suspend(std::coroutine_handle<> h) noexcept {
        ev->waiters_.push(&node, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, {}};
  }

 private:
  Simulation* sim_;
  bool set_ = false;
  detail::WaitList waiters_;
};

/// Counting semaphore with FIFO hand-off.
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::int64_t count)
      : sim_(&sim), count_(count) {
    assert(count >= 0);
  }

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  std::int64_t available() const noexcept { return count_; }
  std::size_t waiting() const noexcept { return waiters_.size(); }

  /// Takes a permit if one is free, without suspending. A free permit
  /// implies an empty queue (release() hands permits to waiters first), so
  /// this never barges.
  bool tryAcquire() noexcept {
    if (count_ > 0) {
      --count_;
      return true;
    }
    return false;
  }

  auto acquire() noexcept {
    struct Awaiter {
      Semaphore* sem;
      detail::WaitNode node;
      bool await_ready() noexcept { return sem->tryAcquire(); }
      void await_suspend(std::coroutine_handle<> h) noexcept {
        sem->waiters_.push(&node, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, {}};
  }

  /// Returns a permit; if a coroutine is queued, hands it over directly.
  void release() {
    if (!waiters_.empty()) {
      sim_->scheduleAt(sim_->now(), waiters_.pop());
    } else {
      ++count_;
    }
  }

 private:
  Simulation* sim_;
  std::int64_t count_;
  detail::WaitList waiters_;
};

/// Cyclic barrier for a fixed number of participants.
class Barrier {
 public:
  Barrier(Simulation& sim, std::size_t parties)
      : sim_(&sim), parties_(parties) {
    assert(parties > 0);
  }

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  auto arriveAndWait() noexcept {
    struct Awaiter {
      Barrier* b;
      detail::WaitNode node;
      bool await_ready() const noexcept { return b->parties_ == 1; }
      bool await_suspend(std::coroutine_handle<> h) {
        if (b->waiters_.size() + 1 == b->parties_) {
          // Last arrival releases everyone; it does not suspend.
          b->waiters_.scheduleAll(*b->sim_);
          ++b->generation_;
          return false;
        }
        b->waiters_.push(&node, h);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, {}};
  }

  std::uint64_t generation() const noexcept { return generation_; }

 private:
  Simulation* sim_;
  std::size_t parties_;
  std::uint64_t generation_ = 0;
  detail::WaitList waiters_;
};

/// Runs tasks concurrently and completes when all finish. If any task fails,
/// the first failure (in completion order) is rethrown after all complete.
Task<void> whenAll(Simulation& sim, std::vector<Task<void>> tasks);

}  // namespace daosim::sim
