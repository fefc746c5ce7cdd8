// FIFO queueing station: the basic contention model of the simulator.
//
// A QueueStation has `servers` identical servers. exec(service) queues the
// calling coroutine FIFO, occupies one server for `service` simulated time,
// and returns. Saturation throughput is servers/service; under low load the
// station contributes pure latency. NVMe devices, NIC directions, target
// xstreams, the Lustre MDS, Ceph OSD op threads and the DFUSE daemon are all
// instances of this model with different parameters.
#pragma once

#include <coroutine>
#include <cstdint>
#include <string>

#include "obs/observer.h"
#include "sim/simulation.h"
#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

namespace daosim::sim {

class QueueStation {
 public:
  QueueStation(Simulation& sim, std::string name, int servers)
      : sim_(&sim), name_(std::move(name)), sem_(sim, servers) {}

  class ExecAwaiter;

  /// Occupies one server for `service` time, FIFO-queued. `op` (if nonzero
  /// and an observer is attached) gets one station leg recorded whose
  /// queue-wait/service split is explicit; the wait charges to
  /// Cat::kServerQueue and the service to `cat`. `nested` records the leg
  /// as structure-only (no aggregate charge) for stations that run under a
  /// charging parent leg, e.g. NIC tx/rx inside Cluster::send's "send".
  /// Returns an awaiter (no coroutine frame): `co_await st.exec(...)`.
  ExecAwaiter exec(Time service, obs::OpId op = 0,
                   obs::Cat cat = obs::Cat::kService, bool nested = false);

  /// Manually occupies a server for work whose duration is not known up
  /// front (e.g. a FUSE thread held across a backend operation). Returns the
  /// acquisition time; pass it to leave() so the hold is accumulated into
  /// busy time. Prefer exec() where possible.
  sim::Task<Time> enter(obs::OpId op = 0) {
    const Time queued_at = sim_->now();
    co_await sem_.acquire();
    const Time acquired_at = sim_->now();
    wait_ns_ += acquired_at - queued_at;
    ++ops_;
    if (obs::Observer* o = sim_->observer()) {
      wait_hist_.add(acquired_at - queued_at);
      if (op != 0) {
        // Pure-wait leg: the whole duration is queueing.
        o->leg(op, obs::Cat::kServerQueue, obsTrack(o), "queue", queued_at,
               acquired_at - queued_at);
      }
    }
    co_return acquired_at;
  }

  /// Releases a server taken with enter(), accumulating the hold duration
  /// into busy time (`acquired_at` is enter()'s return value).
  void leave(Time acquired_at, obs::OpId op = 0) {
    sem_.release();
    busy_ns_ += sim_->now() - acquired_at;
    if (op != 0) {
      if (obs::Observer* o = sim_->observer()) {
        o->leg(op, obs::Cat::kService, obsTrack(o), "service", acquired_at);
      }
    }
  }

  /// Accounts payload bytes moved through this station (NIC directions get
  /// this from Cluster::send); feeds the telemetry bytes/s series.
  void noteBytes(std::uint64_t b) noexcept { bytes_ += b; }
  std::uint64_t bytes() const noexcept { return bytes_; }

  const std::string& name() const noexcept { return name_; }
  std::uint64_t ops() const noexcept { return ops_; }
  Time busyTime() const noexcept { return busy_ns_; }
  Time totalWait() const noexcept { return wait_ns_; }
  std::size_t queueLength() const noexcept { return sem_.waiting(); }

  /// Queue-wait distribution in ns; populated only while an observer is
  /// attached to the simulation.
  const obs::Histogram& waitHistogram() const noexcept { return wait_hist_; }

  /// Node id used as the chrome-trace pid for this station's track.
  void setTracePid(int pid) noexcept { trace_pid_ = pid; }
  int tracePid() const noexcept { return trace_pid_; }

  /// Mean queueing delay per operation, in ns.
  double meanWait() const noexcept {
    return ops_ ? static_cast<double>(wait_ns_) / static_cast<double>(ops_)
                : 0.0;
  }

  /// Busy fraction of one server-equivalent over [0, horizon].
  double utilization(Time horizon) const noexcept {
    return horizon ? static_cast<double>(busy_ns_) /
                         static_cast<double>(horizon)
                   : 0.0;
  }

 private:
  /// Contended exec(): a self-destroying waiter parks on the semaphore in
  /// the caller's place and, on hand-off, starts the caller's service.
  static detail::Root park(ExecAwaiter* a);

  /// Track id for this station, cached per observer epoch so a fresh
  /// observer (e.g. a new rep) never sees a stale id.
  obs::TrackId obsTrack(obs::Observer* o) {
    if (track_epoch_ != o->epoch()) {
      track_ = o->track(trace_pid_, name_);
      track_epoch_ = o->epoch();
    }
    return track_;
  }

  Simulation* sim_;
  std::string name_;
  Semaphore sem_;
  std::uint64_t ops_ = 0;
  Time busy_ns_ = 0;
  Time wait_ns_ = 0;
  std::uint64_t bytes_ = 0;
  obs::Histogram wait_hist_;
  int trace_pid_ = 0;
  obs::TrackId track_ = 0;
  std::uint64_t track_epoch_ = 0;
};

/// exec()'s awaiter. Its schedule is that of the coroutine body
/// "acquire; delay(service); release; account": the same events at the
/// same times, pushed in the same order (tests/reference_models.h keeps
/// that body as the reference), without a coroutine frame per call:
///   * free server: await_suspend takes the permit and schedules the
///     caller itself at now + service (the body's delay event);
///   * busy station: a detail::Root waiter parks on the semaphore in the
///     caller's place; the hand-off resumes it at the release instant and
///     it schedules the caller at now + service, then ends;
///   * await_resume runs when the service ends: release (handing the
///     permit to the next waiter), busy/ops accounting, trace leg.
class [[nodiscard]] QueueStation::ExecAwaiter {
 public:
  bool await_ready() const noexcept { return false; }

  void await_suspend(std::coroutine_handle<> h) {
    queued_at_ = st_->sim_->now();
    caller_ = h;
    if (st_->sem_.tryAcquire()) {
      granted();
    } else {
      park(this);
    }
  }

  void await_resume() {
    QueueStation& st = *st_;
    st.sem_.release();
    st.busy_ns_ += service_;
    ++st.ops_;
    if (op_ != 0) {
      if (obs::Observer* o = st.sim_->observer()) {
        const Time wait = acquired_at_ - queued_at_;
        if (nested_) {
          o->structLeg(op_, cat_, st.obsTrack(o), "service", queued_at_,
                       wait);
        } else {
          o->leg(op_, cat_, st.obsTrack(o), "service", queued_at_, wait);
        }
      }
    }
  }

 private:
  friend class QueueStation;

  ExecAwaiter(QueueStation* st, Time service, obs::OpId op, obs::Cat cat,
              bool nested) noexcept
      : st_(st), service_(service), op_(op), cat_(cat), nested_(nested) {}

  /// The server is ours: account the queue wait and end the service at
  /// now + service by resuming the caller then.
  void granted() {
    QueueStation& st = *st_;
    acquired_at_ = st.sim_->now();
    st.wait_ns_ += acquired_at_ - queued_at_;
    if (st.sim_->observer() != nullptr) {
      st.wait_hist_.add(acquired_at_ - queued_at_);
    }
    st.sim_->scheduleAt(acquired_at_ + service_, caller_);
  }

  QueueStation* st_;
  Time service_;
  obs::OpId op_;
  obs::Cat cat_;
  bool nested_;
  Time queued_at_ = 0;
  Time acquired_at_ = 0;
  std::coroutine_handle<> caller_;
};

inline QueueStation::ExecAwaiter QueueStation::exec(Time service,
                                                    obs::OpId op,
                                                    obs::Cat cat,
                                                    bool nested) {
  return ExecAwaiter(this, service, op, cat, nested);
}

inline detail::Root QueueStation::park(ExecAwaiter* a) {
  co_await a->st_->sem_.acquire();
  a->granted();
}

}  // namespace daosim::sim
