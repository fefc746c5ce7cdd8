// Reference models for schedule-identity tests: the queueing station and
// the serial NIC send written the straightforward way, as coroutine bodies
// over a std::deque semaphore and a spawn-and-join. QueueStation::exec and
// Cluster::send must reproduce their event schedules exactly: the same
// events, at the same times, in the same order.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/cluster.h"
#include "hw/spec.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "sim/time.h"

namespace daosim::ref {

/// Counting semaphore with FIFO hand-off over a std::deque.
class Semaphore {
 public:
  Semaphore(sim::Simulation& s, std::int64_t count) : sim_(&s), count_(count) {}

  std::size_t waiting() const noexcept { return waiters_.size(); }

  auto acquire() noexcept {
    struct Awaiter {
      Semaphore* sem;
      bool await_ready() const noexcept {
        if (sem->count_ > 0) {
          --sem->count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) const {
        sem->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->scheduleAt(sim_->now(), h);
    } else {
      ++count_;
    }
  }

 private:
  sim::Simulation* sim_;
  std::int64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// FIFO station as a coroutine body: acquire, delay(service), release,
/// account.
class Station {
 public:
  Station(sim::Simulation& s, int servers) : sim_(&s), sem_(s, servers) {}

  sim::Task<void> exec(sim::Time service) {
    const sim::Time queued_at = sim_->now();
    co_await sem_.acquire();
    wait_ns_ += sim_->now() - queued_at;
    co_await sim_->delay(service);
    sem_.release();
    busy_ns_ += service;
    ++ops_;
  }

  std::uint64_t ops() const noexcept { return ops_; }
  sim::Time busyTime() const noexcept { return busy_ns_; }
  sim::Time totalWait() const noexcept { return wait_ns_; }
  std::size_t queueLength() const noexcept { return sem_.waiting(); }

 private:
  sim::Simulation* sim_;
  Semaphore sem_;
  std::uint64_t ops_ = 0;
  sim::Time busy_ns_ = 0;
  sim::Time wait_ns_ = 0;
};

/// Serial point-to-point send over per-node tx/rx Stations: a spawned
/// receive side (fabric latency, then rx) joined by the sender after its
/// own tx, with Cluster::send's link-down and loopback rules.
class Network {
 public:
  Network(sim::Simulation& s, int nodes, hw::NodeSpec spec = {},
          hw::FabricSpec fabric = {})
      : sim_(&s), spec_(spec), fabric_(fabric) {
    for (int i = 0; i < nodes; ++i) {
      tx_.push_back(std::make_unique<Station>(s, 1));
      rx_.push_back(std::make_unique<Station>(s, 1));
    }
    down_.assign(static_cast<std::size_t>(nodes), false);
  }

  Station& tx(int n) { return *tx_[static_cast<std::size_t>(n)]; }
  Station& rx(int n) { return *rx_[static_cast<std::size_t>(n)]; }
  void setLinkDown(int n, bool d) { down_[static_cast<std::size_t>(n)] = d; }
  std::uint64_t messages() const noexcept { return messages_; }
  std::uint64_t sendFailures() const noexcept { return failures_; }

  sim::Task<void> send(int src, int dst, std::uint64_t bytes) {
    const bool src_down = down_[static_cast<std::size_t>(src)];
    if (src != dst && (src_down || down_[static_cast<std::size_t>(dst)])) {
      ++failures_;
      co_await sim_->delay(fabric_.latency);
      throw hw::NetworkDown("node" + std::to_string(src_down ? src : dst));
    }
    ++messages_;
    if (src == dst) {
      co_await sim_->delay(2 * sim::kMicrosecond);
      co_return;
    }
    const std::uint64_t wire = bytes + fabric_.header_bytes;
    const sim::Time ser =
        spec_.nic.per_message + hw::transferTime(wire, spec_.nic.gibps);
    sim::ProcHandle delivery =
        sim_->spawn(receive(sim_, &rx(dst), fabric_.latency, ser));
    co_await tx(src).exec(ser);
    co_await delivery.join();
  }

 private:
  static sim::Task<void> receive(sim::Simulation* s, Station* rx,
                                 sim::Time latency, sim::Time service) {
    co_await s->delay(latency);
    co_await rx->exec(service);
  }

  sim::Simulation* sim_;
  hw::NodeSpec spec_;
  hw::FabricSpec fabric_;
  std::vector<std::unique_ptr<Station>> tx_;
  std::vector<std::unique_ptr<Station>> rx_;
  std::vector<bool> down_;
  std::uint64_t messages_ = 0;
  std::uint64_t failures_ = 0;
};

/// Processes exactly one event; false when the queue is empty. run() with
/// a budget of one stops (by throwing) before it would pop a second event.
inline bool stepOne(sim::Simulation& s) {
  if (s.empty()) return false;
  try {
    s.run(1);
  } catch (const std::runtime_error&) {
  }
  return true;
}

}  // namespace daosim::ref
