// NVMe SSD model: a virtual-clock rate limiter with burst completion.
//
// Modern NVMe behaviour that matters for the paper's experiments:
//   * an individual I/O completes quickly (controller/cache burst rate plus
//     access latency) as long as the device is not backlogged;
//   * sustained throughput is capped at the device's rate — a virtual
//     drain clock advances by bytes/rate per op, and requests stall once
//     the backlog exceeds a small absorption window (write-cache depth /
//     internal queue depth);
//   * small I/O is bounded by per-op service (IOPS cap), not bandwidth.
//
// Unlike a single-server FIFO, this keeps utilization near 1.0 when the
// number of synchronous client processes is comparable to the number of
// devices — which is how the paper's IOR runs saturate 256 targets with a
// few hundred processes.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "hw/spec.h"
#include "obs/observer.h"
#include "sim/simulation.h"

namespace daosim::hw {

/// Thrown by I/O to a failed device (used by EC/replication degraded-mode
/// tests; DAOS clients catch this and fall back to surviving shards).
class DeviceFailed : public std::runtime_error {
 public:
  explicit DeviceFailed(const std::string& name)
      : std::runtime_error("device failed: " + name) {}
};

class NvmeDevice {
 public:
  NvmeDevice(sim::Simulation& sim, NvmeSpec spec, std::string name)
      : sim_(&sim), spec_(spec), name_(std::move(name)) {}

  class IoAwaiter;

  /// Writes (reads) `bytes`: `co_await dev.write(n, op)`. The call throws
  /// DeviceFailed if the device is down and counts the op; the returned
  /// awaiter (no coroutine frame) admits it to the device when awaited and
  /// re-checks for failure when it completes.
  IoAwaiter write(std::uint64_t bytes, obs::OpId op = 0);
  IoAwaiter read(std::uint64_t bytes, obs::OpId op = 0);

  // Failure semantics ("fail-at-dequeue"): fail() takes effect immediately
  // for new submissions (throwIfFailed at op entry) AND for ops already in
  // flight — each op re-checks when its completion event is dequeued, so an
  // op queued before the failure still observes it. At the exact fail
  // timestamp the outcome follows the kernel's FIFO (time, seq) order: a
  // completion event scheduled before the fail event resumes first and the
  // op succeeds; one scheduled after observes the failure. Spawn order
  // therefore fully determines the outcome — there is no nondeterminism at
  // the boundary (covered by tests/hw_test.cc).
  void fail() noexcept { failed_ = true; }
  void recover() noexcept { failed_ = false; }
  bool failed() const noexcept { return failed_; }

  /// Scales both the sustained service time and the completion latency of
  /// subsequent ops by `f` (>= 1; 1.0 restores full speed). Fault plans use
  /// this to model a degraded ("gray failure") device. Values below 1 clamp
  /// to 1.
  void setSlowdown(double f) noexcept { slowdown_ = f < 1.0 ? 1.0 : f; }
  double slowdown() const noexcept { return slowdown_; }

  const NvmeSpec& spec() const noexcept { return spec_; }
  const std::string& name() const noexcept { return name_; }
  std::uint64_t bytesWritten() const noexcept { return bytes_written_; }
  std::uint64_t bytesRead() const noexcept { return bytes_read_; }
  std::uint64_t writeOps() const noexcept { return write_ops_; }
  std::uint64_t readOps() const noexcept { return read_ops_; }
  /// I/Os admitted but not yet acknowledged (the device queue depth a
  /// telemetry gauge samples).
  std::uint32_t queueDepth() const noexcept { return inflight_; }
  /// Total device-time consumed on the sustained-rate clock, charged in full
  /// when an op is admitted (so it runs ahead of the clock under a backlog).
  sim::Time busyTime() const noexcept { return busy_; }
  /// Device time actually drained by now: busyTime() less the admitted work
  /// still pending, which the drain clock keeps contiguous in
  /// [now, virtual_end_]. Telemetry samples this, so a bin is never more
  /// than fully busy.
  sim::Time drainedBusyTime() const noexcept {
    const sim::Time now = sim_->now();
    return virtual_end_ > now ? busy_ - (virtual_end_ - now) : busy_;
  }
  double utilization(sim::Time horizon) const noexcept {
    return horizon ? static_cast<double>(busy_) / static_cast<double>(horizon)
                   : 0.0;
  }

  /// Node id used as the chrome-trace pid for this device's track.
  void setTracePid(int pid) noexcept { trace_pid_ = pid; }
  int tracePid() const noexcept { return trace_pid_; }

 private:
  void throwIfFailed() const {
    if (failed_) throw DeviceFailed(name_);
  }

  sim::Simulation* sim_;
  NvmeSpec spec_;
  std::string name_;
  sim::Time virtual_end_ = 0;
  sim::Time busy_ = 0;
  std::uint32_t inflight_ = 0;
  int trace_pid_ = 0;
  obs::TrackId track_ = 0;
  std::uint64_t track_epoch_ = 0;
  bool failed_ = false;
  double slowdown_ = 1.0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t write_ops_ = 0;
  std::uint64_t read_ops_ = 0;
};

/// Awaiter of NvmeDevice::write/read. await_suspend admits the op (virtual
/// drain clock, busy time, queue depth) and schedules the caller's
/// completion; await_resume acknowledges it, records the device leg and
/// applies the fail-at-dequeue check.
class [[nodiscard]] NvmeDevice::IoAwaiter {
 public:
  bool await_ready() const noexcept { return false; }

  void await_suspend(std::coroutine_handle<> h) {
    NvmeDevice& d = *dev_;
    if (d.slowdown_ != 1.0) {  // gated so the default path stays bit-exact
      service_ = static_cast<sim::Time>(static_cast<double>(service_) *
                                        d.slowdown_);
      latency_ = static_cast<sim::Time>(static_cast<double>(latency_) *
                                        d.slowdown_);
    }
    admitted_ = d.sim_->now();
    d.virtual_end_ = std::max(d.virtual_end_, admitted_) + service_;
    d.busy_ += service_;
    ++d.inflight_;
    // Ack when the burst transfer completes AND the backlog fits the
    // absorption window; the two overlap (cache fill proceeds while the
    // medium drains), so the wait is the max, not the sum.
    wait_ = latency_;
    if (d.virtual_end_ > admitted_ + d.spec_.backlog_window) {
      wait_ = std::max(wait_,
                       d.virtual_end_ - admitted_ - d.spec_.backlog_window);
    }
    d.sim_->scheduleAt(admitted_ + wait_, h);
  }

  void await_resume() {
    NvmeDevice& d = *dev_;
    --d.inflight_;
    if (op_ != 0) {
      if (obs::Observer* o = d.sim_->observer()) {
        if (d.track_epoch_ != o->epoch()) {
          d.track_ = o->track(d.trace_pid_, d.name_);
          d.track_epoch_ = o->epoch();
        }
        // Backlog stall beyond the intrinsic completion latency counts as
        // queue-wait in the causal tree; it still charges to kDevice so
        // the aggregate category split is unchanged.
        const sim::Time stall = wait_ > latency_ ? wait_ - latency_ : 0;
        o->leg(op_, obs::Cat::kDevice, d.track_, "io", admitted_, stall,
               obs::Cat::kDevice);
      }
    }
    d.throwIfFailed();  // failure may have been injected while queued
  }

 private:
  friend class NvmeDevice;

  IoAwaiter(NvmeDevice* dev, sim::Time service, sim::Time latency,
            obs::OpId op) noexcept
      : dev_(dev), service_(service), latency_(latency), op_(op) {}

  NvmeDevice* dev_;
  sim::Time service_;  ///< sustained-rate (drain clock) time
  sim::Time latency_;  ///< intrinsic completion latency
  obs::OpId op_;
  sim::Time admitted_ = 0;
  sim::Time wait_ = 0;
};

inline NvmeDevice::IoAwaiter NvmeDevice::write(std::uint64_t bytes,
                                               obs::OpId op) {
  throwIfFailed();
  bytes_written_ += bytes;
  ++write_ops_;
  return IoAwaiter(this,
                   std::max(transferTime(bytes, spec_.write_gibps),
                            spec_.write_op_service),
                   spec_.write_latency + transferTime(bytes, spec_.burst_gibps),
                   op);
}

inline NvmeDevice::IoAwaiter NvmeDevice::read(std::uint64_t bytes,
                                              obs::OpId op) {
  throwIfFailed();
  bytes_read_ += bytes;
  ++read_ops_;
  return IoAwaiter(this,
                   std::max(transferTime(bytes, spec_.read_gibps),
                            spec_.read_op_service),
                   spec_.read_latency + transferTime(bytes, spec_.burst_gibps),
                   op);
}

}  // namespace daosim::hw
