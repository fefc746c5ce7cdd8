// Conservative parallel DES: per-shard event queues with lookahead windows.
//
// A ShardGroup owns K Simulations ("shards"), each with its own radix
// event queue, clock, sequence counter and RNG lane, and runs them on K
// persistent worker threads using classic conservative (time-window)
// synchronization:
//
//   1. gmin       = min over shards of nextEventTime()
//   2. window_end = gmin + lookahead
//   3. every shard executes, in parallel, all its events with t < window_end
//      (Simulation::runWindow); a shard never touches another shard's state
//   4. barrier; inter-shard mailboxes are flushed in a deterministic order;
//      repeat from 1.
//
// The lookahead is the minimum cross-shard interaction latency — for the
// simulated machine room, the fabric's one-way latency (hw::FabricSpec):
// nothing a shard does at time t can affect another shard before t +
// lookahead, so every event below window_end is safe to run without seeing
// the other shards' windows. Cross-shard interactions are coroutine
// *migrations*: the sending coroutine suspends on migrate() and its handle
// is posted to the destination shard's mailbox with an absolute resume time
// (>= window_end by the lookahead argument, asserted), where it continues
// on the destination's thread. Coroutine frames move freely between threads
// — the FramePool explicitly supports cross-thread free (sim/pool.h).
//
// Determinism: each shard is single-threaded and processes its queue in
// exact (time, seq) order, so a shard's execution depends only on the
// sequence of (time-stamped) mailbox deliveries it receives. Mailboxes are
// flushed at window barriers, sorted by (resume time, tie-break key, source
// shard, source post index) — all components are scheduling-independent —
// so two runs with the same seed and shard count are identical.
//
// Shard-count invariance is stronger and needs the caller-supplied tie-break
// *key*: two migrations resuming at the same nanosecond on one shard would
// otherwise be ordered by (source shard, post index), which depends on the
// node->shard map and hence on the shard count. Senders therefore pass a
// key derived only from simulation-level identity (e.g. hw::Cluster keys
// NIC deliveries on hash(src node, dst node, departure time)) and route
// *same-shard* interactions through the mailbox too (migrate with src ==
// dst is legal): every delivery then lands in the same (time, key) order
// for every shard count, including the single-shard group. The window
// horizon itself is shard-count-invariant — gmin is a minimum over the
// whole event population however it is partitioned — so mailbox flushes
// inject events at the same simulated instants regardless of layout.
// Results that merge *across* shards must use commutative/associative
// aggregation (histogram bucket adds, min/max, sums), the same contract
// sweep-level parallelism has relied on since the telemetry and exemplar
// mergers. Note the plain serial kernel (no group) is still a different
// total order: same-time deliveries there follow spawn order, not key
// order; tests therefore compare shard counts against a one-shard group.
//
// Group-wide rendezvous (the SPMD phase barrier) cannot be a plain
// sim::Barrier — its parties live on different shards. ShardBarrier is
// resolved by the coordinator at window boundaries: once every party has
// arrived, waiters release at the maximum arrival time (exactly the
// serial Barrier's release time), clamped to the group-wide maximum
// clock when concurrent non-barrier work — a fault-plan event, a
// background rebuild — outran the rendezvous inside the final window.
// Resolution must not wait for quiescence: unrelated work scheduled for
// later (a fault injector sleeping until its next event) would displace
// the release past it instead of interleaving as the serial kernel does.
#pragma once

#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulation.h"
#include "sim/time.h"

namespace daosim::sim {

class ShardGroup;

/// Shard the calling thread is currently executing (set for the duration of
/// a shard's window, including the inline single-shard path), or -1 outside
/// any ShardGroup window — i.e. on the plain serial kernel. Lets shared
/// lookup structures (pool maps, link state) select a per-shard replica
/// without threading a shard id through every call signature.
int currentShard() noexcept;

/// Synchronization-protocol counters, reported under daosim_run --stats and
/// exported as the `pdes/*` telemetry subtree. The `*_ns` vectors are
/// wall-clock (std::chrono::steady_clock) measurements of the host threads,
/// not simulated time: they describe how well the shard layout parallelizes
/// and are therefore nondeterministic run to run — byte-compare harnesses
/// must filter them (the frozen-output tests and CI exclude `pdes/` rows and
/// the wall-clock stats-report lines).
struct ShardSyncStats {
  int shards = 0;
  Time lookahead = 0;
  std::uint64_t windows = 0;           ///< synchronization rounds executed
  std::uint64_t cross_posts = 0;       ///< coroutine migrations between shards
  std::uint64_t barrier_releases = 0;  ///< quiescence barrier resolutions
  std::uint64_t late_releases = 0;     ///< releases clamped to a shard clock
  std::uint64_t mailbox_flushes = 0;   ///< nonempty per-destination drains
  std::uint64_t mailbox_entries = 0;   ///< entries moved by those drains
  std::uint64_t mailbox_bytes = 0;     ///< entries * sizeof(MailboxEntry)
  std::size_t events = 0;              ///< events processed, all shards
  std::vector<std::size_t> shard_events;
  /// Wall-clock ns each shard's thread spent executing its windows.
  std::vector<std::uint64_t> shard_busy_ns;
  /// Wall-clock ns each worker spent parked between windows (barrier wait;
  /// zero on the inline single-shard path, which has no workers).
  std::vector<std::uint64_t> shard_wait_ns;
};

/// Cyclic barrier whose parties are spread across the shards of one group.
/// arriveAndWait(shard) must be called from a coroutine running on `shard`;
/// the release is injected by the group at quiescence (see file comment).
class ShardBarrier {
 public:
  ShardBarrier(ShardGroup& group, std::size_t parties);

  auto arriveAndWait(int shard) noexcept {
    struct Awaiter {
      ShardBarrier* b;
      int shard;
      bool await_ready() const noexcept { return b->parties_ == 1; }
      void await_suspend(std::coroutine_handle<> h) const {
        b->arrive(shard, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, shard};
  }

  std::uint64_t generation() const noexcept { return generation_; }

 private:
  friend class ShardGroup;

  struct Arrival {
    Time t = 0;
    std::coroutine_handle<> h;
  };

  void arrive(int shard, std::coroutine_handle<> h);
  std::size_t arrived() const noexcept;

  ShardGroup* group_;
  std::size_t parties_;
  std::uint64_t generation_ = 0;
  // One lane per shard, written only by that shard's thread during windows
  // and read by the coordinator at quiescence (the window barrier orders
  // the accesses, so no atomics are needed).
  std::vector<std::vector<Arrival>> lanes_;
};

class ShardGroup {
 public:
  struct Options {
    int shards = 1;
    /// Minimum cross-shard interaction latency; every migrate() must target
    /// a time >= sender-now + lookahead. Must be > 0 when shards > 1.
    Time lookahead = 0;
    std::uint64_t seed = 1;
    /// Per-shard event budget for a single window (livelock guard).
    std::size_t max_window_events = ~std::size_t{0};
  };

  explicit ShardGroup(const Options& opts);
  ~ShardGroup();

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  int shards() const noexcept { return static_cast<int>(sims_.size()); }
  Time lookahead() const noexcept { return lookahead_; }
  Simulation& shard(int i) noexcept { return *sims_[static_cast<size_t>(i)]; }

  /// Runs all shards to quiescence, resolving group barriers along the way;
  /// returns the total number of events processed. Rethrows the first (by
  /// shard index) exception that escapes a shard's window, without starting
  /// further windows. With shards == 1 the same window loop runs inline on
  /// the calling thread — no worker threads, same protocol overhead — which
  /// is what bench_pdes uses to price the windowing itself.
  std::size_t run();

  const ShardSyncStats& stats() const noexcept { return stats_; }

  /// Awaitable migrating the current coroutine from shard `src` to shard
  /// `dst`, resuming there at absolute time `t`. src == dst is legal and
  /// routes through the same mailbox — the way a sender makes a same-shard
  /// delivery order-comparable with cross-shard ones. Conservative safety
  /// requires t >= sender-now + lookahead; the mailbox asserts the weaker
  /// (implied) invariant t >= window_end. Same-time deliveries on one
  /// shard resume in ascending `key` order (see the file comment); pass a
  /// key derived from shard-count-invariant identity, never from shard ids.
  auto migrate(int src, int dst, Time t, std::uint64_t key = 0) noexcept {
    struct Awaiter {
      ShardGroup* g;
      int src, dst;
      Time t;
      std::uint64_t key;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        g->post(src, dst, t, key, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, src, dst, t, key};
  }

  /// Posts a raw resumption to `dst`'s mailbox (migrate()'s implementation;
  /// exposed for protocol tests). Called from `src`'s worker thread.
  void post(int src, int dst, Time t, std::uint64_t key,
            std::coroutine_handle<> h);

 private:
  friend class ShardBarrier;

  struct MailboxEntry {
    Time t = 0;
    std::uint64_t key = 0;  ///< caller tie-break, shard-count-invariant
    int src = 0;
    std::uint64_t idx = 0;  ///< per-(src,dst) post counter, sender-ordered
    std::coroutine_handle<> h;
  };

  /// One inbox per destination shard; senders append under the lock during
  /// windows, the coordinator drains between windows.
  struct Mailbox {
    std::mutex mu;
    std::vector<MailboxEntry> items;
  };

  void runOneWindow(Time window_end);
  void workerLoop(int shard);
  void runShardWindow(int shard);
  /// Drains every mailbox into its shard's queue in deterministic order;
  /// returns the number of migrations delivered.
  std::size_t flushMailboxes();
  /// At quiescence: releases every complete barrier; returns true if any
  /// new events were injected.
  bool resolveBarriers();

  Time lookahead_ = 0;
  std::size_t max_window_events_;
  std::vector<std::unique_ptr<Simulation>> sims_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  // post_seq_[src][dst]: owned by src's thread, no sharing within a window.
  std::vector<std::vector<std::uint64_t>> post_seq_;
  std::vector<ShardBarrier*> barriers_;  // registration order
  std::vector<std::exception_ptr> errors_;
  ShardSyncStats stats_;

  // Window dispatch protocol: the coordinator bumps generation_ with
  // window_end_ set, workers run their shard's window and report back via
  // pending_; all fields below mu_.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  Time window_end_ = 0;
  int pending_ = 0;
  bool stop_ = false;
};

}  // namespace daosim::sim
