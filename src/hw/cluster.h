// Node and Cluster: the simulated machine room.
//
// A Node owns a full-duplex NIC (two queueing stations) and local NVMe
// devices. The Cluster owns all nodes and the fabric model and provides the
// point-to-point `send` primitive every protocol layer uses.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/device.h"
#include "hw/spec.h"
#include "obs/observer.h"
#include "sim/queue_station.h"
#include "sim/rng.h"
#include "sim/shard.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace daosim::hw {

using NodeId = int;

/// Thrown by Cluster::send when an endpoint's NIC is administratively down
/// (fault injection): the attempt is charged one fabric latency and then
/// fails. net::sendWithRetry treats this as a transient, retryable fault.
class NetworkDown : public std::runtime_error {
 public:
  explicit NetworkDown(const std::string& what)
      : std::runtime_error("network down: " + what) {}
};

class Node {
 public:
  Node(sim::Simulation& sim, NodeId id, const NodeSpec& spec)
      : sim_(&sim),
        id_(id),
        spec_(spec),
        tx_(sim, "node" + std::to_string(id) + ".tx", 1),
        rx_(sim, "node" + std::to_string(id) + ".rx", 1) {
    tx_.setTracePid(id);
    rx_.setTracePid(id);
    drives_.reserve(static_cast<std::size_t>(spec.nvme_count));
    for (int i = 0; i < spec.nvme_count; ++i) {
      drives_.push_back(std::make_unique<NvmeDevice>(
          sim, spec.nvme,
          "node" + std::to_string(id) + ".nvme" + std::to_string(i)));
      drives_.back()->setTracePid(id);
    }
  }

  NodeId id() const noexcept { return id_; }
  const NodeSpec& spec() const noexcept { return spec_; }

  /// The simulation this node's stations and devices schedule on — the
  /// owning shard's, in a sharded cluster.
  sim::Simulation& sim() noexcept { return *sim_; }

  sim::QueueStation& tx() noexcept { return tx_; }
  sim::QueueStation& rx() noexcept { return rx_; }

  std::size_t driveCount() const noexcept { return drives_.size(); }
  NvmeDevice& drive(std::size_t i) noexcept {
    assert(i < drives_.size());
    return *drives_[i];
  }
  const NvmeDevice& drive(std::size_t i) const noexcept {
    assert(i < drives_.size());
    return *drives_[i];
  }

 private:
  sim::Simulation* sim_;
  NodeId id_;
  NodeSpec spec_;
  sim::QueueStation tx_;
  sim::QueueStation rx_;
  std::vector<std::unique_ptr<NvmeDevice>> drives_;
};

class Cluster {
 public:
  explicit Cluster(sim::Simulation& sim, FabricSpec fabric = {})
      : sim_(&sim), fabric_(fabric) {}

  /// Sharded cluster: nodes are placed on the shards of `group` (see
  /// addNode's shard parameter) and cross-node sends become coroutine
  /// migrations. Requires the group's lookahead to not exceed the fabric
  /// latency — the conservative-safety bound for NIC sends. Observers
  /// attach per shard (obs::ObserverGroup) and send legs carry the OpId
  /// across the migration; telemetry reads the per-lane counter accessors
  /// below. Fault-injector telemetry probes remain serial-only (enforced
  /// by the CLI's compatibility gate).
  explicit Cluster(sim::ShardGroup& group, FabricSpec fabric = {})
      : sim_(&group.shard(0)), group_(&group), fabric_(fabric) {
    if (group.lookahead() > fabric_.latency) {
      throw std::invalid_argument(
          "Cluster: shard lookahead exceeds the fabric latency; cross-node "
          "sends would deliver inside the synchronization window");
    }
    shard_ctr_.resize(static_cast<std::size_t>(group.shards()));
    shard_link_down_.resize(static_cast<std::size_t>(group.shards()));
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  NodeId addNode(const NodeSpec& spec, int shard = 0) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    assert(shard == 0 || group_ != nullptr);
    sim::Simulation& owner =
        group_ != nullptr ? group_->shard(shard) : *sim_;
    nodes_.push_back(std::make_unique<Node>(owner, id, spec));
    node_shard_.push_back(shard);
    return id;
  }

  std::vector<NodeId> addNodes(const NodeSpec& spec, int count) {
    std::vector<NodeId> ids;
    ids.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) ids.push_back(addNode(spec));
    return ids;
  }

  sim::Simulation& sim() noexcept { return *sim_; }
  /// Non-null when the cluster runs on a shard group.
  sim::ShardGroup* shardGroup() noexcept { return group_; }
  int nodeShard(NodeId id) const noexcept {
    return node_shard_[static_cast<std::size_t>(id)];
  }
  const FabricSpec& fabric() const noexcept { return fabric_; }
  std::size_t nodeCount() const noexcept { return nodes_.size(); }

  Node& node(NodeId id) noexcept {
    assert(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return *nodes_[static_cast<std::size_t>(id)];
  }

  /// Moves one message of `bytes` payload from `src` to `dst` and completes
  /// when it is fully received. The link is cut-through: the receive-side
  /// occupancy overlaps the transmit-side serialization, offset by the
  /// fabric latency, so a single stream achieves full NIC bandwidth while
  /// both endpoints still contend at their NICs. Same-node messages skip the
  /// NIC (loopback). A nonzero `op` records the whole transfer as one leg of
  /// category `cat` on the sender's "net" track. On a sharded cluster the
  /// caller must be running on `src`'s shard, and the awaiting coroutine
  /// resumes on `dst`'s shard (where the payload now is — subsequent
  /// server-side stations are local again).
  sim::Task<void> send(NodeId src, NodeId dst, std::uint64_t bytes,
                       obs::OpId op = 0, obs::Cat cat = obs::Cat::kOther) {
    return group_ != nullptr ? shardedSend(src, dst, bytes, op, cat)
                             : serialSend(src, dst, bytes, op, cat);
  }

  /// Moves the *calling coroutine* (not a message) from `from`'s shard to
  /// `to`'s shard, charging one fabric latency — the control-plane
  /// primitive for code that must touch another node's local state
  /// directly (rebuild walks, client-side pool queries). The caller must
  /// currently be running on `from`'s shard, and resumes on `to`'s. On a
  /// serial cluster this is a free no-op (zero events, zero time), so
  /// threading hops through shared code leaves the serial schedule
  /// bit-identical. The latency is charged even when both nodes share a
  /// shard, keeping the simulated timing independent of the shard count.
  sim::Task<void> hop(NodeId from, NodeId to) {
    if (group_ == nullptr) co_return;
    // Through the mailbox even within one shard, keyed like NIC sends, so
    // a hop arrival that ties with a delivery resumes in the same order
    // for every shard count.
    const sim::Time now = node(from).sim().now();
    co_await group_->migrate(nodeShard(from), nodeShard(to),
                             now + fabric_.latency, sendKey(from, to, now));
  }

  /// One delivery attempt on the sharded path (net::sendWithRetry's
  /// building block; shardedSend is the no-deadline wrapper).
  enum class SendOutcome {
    kDelivered,  ///< resumed on dst's shard at the delivery instant
    kTimedOut,   ///< resumed back on src's shard at >= the deadline
    kLinkDown,   ///< resumed on src's shard, one fabric latency charged
  };

 private:
  sim::Task<void> serialSend(NodeId src, NodeId dst, std::uint64_t bytes,
                             obs::OpId op, obs::Cat cat) {
    // A flapped NIC drops the message after one fabric latency (loopback
    // does not traverse the NIC). Messages already past this check when
    // the link goes down complete normally — they are on the wire.
    if (src != dst && (linkDown(src) || linkDown(dst))) {
      ++send_failures_;
      co_await sim_->delay(fabric_.latency);
      throw NetworkDown("node" + std::to_string(linkDown(src) ? src : dst));
    }
    messages_ += 1;
    bytes_sent_ += bytes;
    if (cat == obs::Cat::kNetRequest) ++rpc_requests_;
    if (cat == obs::Cat::kNetResponse) ++rpc_responses_;
    ++inflight_sends_;
    const sim::Time started = sim_->now();
    // Pre-open the "send" leg so the NIC tx/rx station legs can name it as
    // their causal parent; the leg itself is recorded in finishSend.
    obs::LegId send_leg = 0;
    obs::OpId ctx = op;
    if (op != 0) {
      if (obs::Observer* o = sim_->observer()) {
        send_leg = o->openLeg(op);
        if (send_leg != 0) ctx = obs::withParent(op, send_leg);
      }
    }
    if (src == dst) {
      co_await sim_->delay(2 * sim::kMicrosecond);  // loopback hop
      finishSend(src, op, cat, started, send_leg);
      co_return;
    }
    const std::uint64_t wire = bytes + fabric_.header_bytes;
    Node& s = node(src);
    Node& d = node(dst);
    s.tx().noteBytes(wire);
    d.rx().noteBytes(wire);
    const sim::Time tx_time =
        s.spec().nic.per_message + transferTime(wire, s.spec().nic.gibps);
    const sim::Time rx_time =
        d.spec().nic.per_message + transferTime(wire, d.spec().nic.gibps);
    // The receive side runs detached and reports into `rec`, which lives
    // in this frame. That is safe only because this coroutine always
    // outlives it: tx exec() cannot throw, so the frame always reaches the
    // wait below, and every caller awaits the send to completion (the
    // retry timeout race's attemptLeg included: its caller stops waiting,
    // but attemptLeg itself still awaits the send).
    Delivery rec;
    deliver(&rec, sim_, &d.rx(), fabric_.latency, rx_time, ctx, cat);
    co_await s.tx().exec(tx_time, ctx, cat, /*nested=*/true);
    co_await AwaitDelivery{&rec};
    finishSend(src, op, cat, started, send_leg);
  }

  /// Join record of one serial send: set by the receive side when the
  /// message is fully received, naming the sender if it parked first.
  struct Delivery {
    bool done = false;
    std::coroutine_handle<> sender;
  };

  /// Completes at once if the message was already received; otherwise
  /// parks the sender until deliver() schedules it.
  struct AwaitDelivery {
    Delivery* rec;
    bool await_ready() const noexcept { return rec->done; }
    void await_suspend(std::coroutine_handle<> h) const noexcept {
      rec->sender = h;
    }
    void await_resume() const noexcept {}
  };

  /// Receive side of a serial send: fabric latency, then the receiver's
  /// NIC. Completion resumes a parked sender through the scheduler at the
  /// current instant, as a process join does, so the schedule matches a
  /// spawn-and-join exactly. Plain-data parameters only (see net/rpc.h).
  static sim::detail::Root deliver(Delivery* rec, sim::Simulation* sim,
                                   sim::QueueStation* rx, sim::Time latency,
                                   sim::Time service, obs::OpId op,
                                   obs::Cat cat) {
    co_await sim->delay(latency);
    // Structure-only: the parent "send" leg carries the aggregate charge.
    co_await rx->exec(service, op, cat, /*nested=*/true);
    rec->done = true;
    if (rec->sender) sim->scheduleAt(sim->now(), rec->sender);
  }

  /// Mailbox tie-break key for a delivery departing `src` for `dst` at
  /// `departed` — simulation-level identity only (node ids and simulated
  /// time, never shard ids), so same-nanosecond deliveries sort in the
  /// same order for every shard count.
  static std::uint64_t sendKey(NodeId src, NodeId dst,
                               sim::Time departed) noexcept {
    return sim::hashCombine(
        sim::hashCombine(static_cast<std::uint64_t>(departed),
                         (static_cast<std::uint64_t>(
                              static_cast<std::uint32_t>(src))
                          << 32) |
                             static_cast<std::uint32_t>(dst)),
        0x6e696373ULL);  // 'nics'
  }

  /// Sharded send. Exactly the serial timing, restructured so the message
  /// is a one-way coroutine migration instead of a detached receive side
  /// the sender waits for:
  ///
  ///   serial:  completion = max(tx.exec done, rx.exec done after latency)
  ///   sharded: T_tx = src.tx.reserve(tx_time)          — at t0, no suspend
  ///            migrate to dst's shard at t0 + latency  — >= lookahead away
  ///            T_rx = dst.rx.reserve(rx_time)          — at t0 + latency
  ///            delay until max(T_tx, T_rx)
  ///
  /// reserve() returns the same completion instant the semaphore FIFO would
  /// (single-server stations used uniformly through reserve), and the
  /// return edge that made the serial shape unshardable — the delivery wait
  /// completing *at* T_tx with zero latency back to the sender — is gone:
  /// the sender's side is fully accounted before the migration departs.
  /// Per-shard counter blocks keep the bookkeeping race-free; rx bytes are
  /// noted at arrival (not at t0 as serially), which shifts no totals.
  sim::Task<void> shardedSend(NodeId src, NodeId dst, std::uint64_t bytes,
                              obs::OpId op, obs::Cat cat) {
    const SendOutcome out =
        co_await shardedSendAttempt(src, dst, bytes, op, cat, /*deadline=*/0);
    if (out == SendOutcome::kLinkDown) {
      throw NetworkDown("node" + std::to_string(shardLinkDown(
                                     nodeShard(src), src)
                                     ? src
                                     : dst));
    }
  }

 public:
  /// Sharded delivery with an optional absolute deadline. Timing matches
  /// shardedSend exactly on the success path (the deadline check is pure
  /// arithmetic on the reservation result — no timer events), so enabling
  /// a retry policy does not perturb fault-free runs. On kTimedOut the
  /// coroutine returns to src's shard at max(deadline, arrival + latency);
  /// the reservation stands — the bytes still cross the wire, the client
  /// just stops waiting, mirroring the serial timeout race where the
  /// abandoned leg keeps running. Deadlines below 2x the fabric latency
  /// cannot be represented on the sharded path (the migration back cannot
  /// land inside the synchronization window); callers enforce
  /// timeout >= 2 * fabric latency.
  sim::Task<SendOutcome> shardedSendAttempt(NodeId src, NodeId dst,
                                            std::uint64_t bytes, obs::OpId op,
                                            obs::Cat cat, sim::Time deadline) {
    Node& s = node(src);
    const int sshard = nodeShard(src);
    sim::Simulation& ssim = s.sim();
    // Link state is read from the *source shard's* replica: flap events
    // install on every replica at the same simulated instant, so the
    // outcome is independent of the shard layout. Messages already past
    // this check when the link goes down complete normally (on the wire).
    if (src != dst && (shardLinkDown(sshard, src) ||
                       shardLinkDown(sshard, dst))) {
      ShardCounters& c = shard_ctr_[static_cast<std::size_t>(sshard)];
      ++c.send_failures;
      co_await ssim.delay(fabric_.latency);
      co_return SendOutcome::kLinkDown;
    }
    {
      ShardCounters& c = shard_ctr_[static_cast<std::size_t>(sshard)];
      c.messages += 1;
      c.bytes_sent += bytes;
      if (cat == obs::Cat::kNetRequest) ++c.rpc_requests;
      if (cat == obs::Cat::kNetResponse) ++c.rpc_responses;
      ++c.inflight;
    }
    const sim::Time started = ssim.now();
    // Pre-open the "send" leg on the source lane's observer, exactly as the
    // serial path does; the id travels with the coroutine across the
    // migration and the charging leg is recorded on the destination lane
    // (the merge reconciles the two lanes through the allocation journal).
    obs::LegId send_leg = 0;
    obs::OpId ctx = op;
    if (op != 0) {
      if (obs::Observer* o = ssim.observer()) {
        send_leg = o->openLeg(op);
        if (send_leg != 0) ctx = obs::withParent(op, send_leg);
      }
    }
    if (src == dst) {
      co_await ssim.delay(2 * sim::kMicrosecond);  // loopback hop
      ShardCounters& c = shard_ctr_[static_cast<std::size_t>(sshard)];
      --c.inflight;
      c.send_ns += ssim.now() - started;
      if (op != 0) {
        if (obs::Observer* o = ssim.observer()) {
          o->leg(op, cat, o->track(src, "net"), "send", started, 0,
                 obs::Cat::kServerQueue, send_leg);
        }
      }
      co_return SendOutcome::kDelivered;
    }
    Node& d = node(dst);
    const int dshard = nodeShard(dst);
    const std::uint64_t wire = bytes + fabric_.header_bytes;
    s.tx().noteBytes(wire);
    const sim::Time tx_time =
        s.spec().nic.per_message + transferTime(wire, s.spec().nic.gibps);
    const sim::Time rx_time =
        d.spec().nic.per_message + transferTime(wire, d.spec().nic.gibps);
    // Structure-only NIC legs under the "send" parent, like exec()'s on the
    // serial path (reserve records them with the analytic completion time).
    const sim::Time t_tx = s.tx().reserve(tx_time, ctx, cat);
    // Delivery goes through the window mailbox even when both endpoints
    // share a shard: the flush orders same-nanosecond deliveries by
    // (time, key), with the key a function of (src, dst, departure time)
    // only, so arrival order at a contended station is identical for
    // every shard count. Server-side QueueStation serialization (e.g.
    // the pool-service leader's raft commits) re-aligns independent
    // clients onto one service grid, making exact same-nanosecond
    // arrivals common enough to matter; (time, src shard, post index)
    // order would make the winner depend on the node->shard map.
    co_await group_->migrate(sshard, dshard, started + fabric_.latency,
                             sendKey(src, dst, started));
    // From here the coroutine runs on dst's shard, at started + latency.
    sim::Simulation& dsim = d.sim();
    d.rx().noteBytes(wire);
    const sim::Time t_rx = d.rx().reserve(rx_time, ctx, cat);
    const sim::Time done = t_tx > t_rx ? t_tx : t_rx;
    if (deadline > 0 && done > deadline) {
      {
        ShardCounters& c = shard_ctr_[static_cast<std::size_t>(dshard)];
        --c.inflight;
        c.send_ns += done - started;
      }
      const sim::Time arrive = dsim.now();
      // The abandoned transfer still finishes at `done`; record its leg
      // with the explicit end, as the serial timeout race does when the
      // spawned delivery outlives the client's patience.
      if (op != 0) {
        if (obs::Observer* o = dsim.observer()) {
          o->legAt(op, cat, o->track(src, "net"), "send", started, done, 0,
                   obs::Cat::kServerQueue, send_leg);
        }
      }
      sim::Time back = arrive + fabric_.latency;
      if (deadline > back) back = deadline;
      co_await group_->migrate(dshard, sshard, back, sendKey(dst, src, arrive));
      co_return SendOutcome::kTimedOut;
    }
    if (done > dsim.now()) co_await dsim.delay(done - dsim.now());
    ShardCounters& c = shard_ctr_[static_cast<std::size_t>(dshard)];
    --c.inflight;
    c.send_ns += dsim.now() - started;
    if (op != 0) {
      if (obs::Observer* o = dsim.observer()) {
        o->leg(op, cat, o->track(src, "net"), "send", started, 0,
               obs::Cat::kServerQueue, send_leg);
      }
    }
    co_return SendOutcome::kDelivered;
  }
  std::uint64_t messages() const noexcept {
    return sumCtr(messages_, &ShardCounters::messages);
  }
  std::uint64_t bytesSent() const noexcept {
    return sumCtr(bytes_sent_, &ShardCounters::bytes_sent);
  }

  // --- telemetry feed (see obs/telemetry.h) ---------------------------
  /// Messages currently between send() entry and delivery.
  std::uint64_t inflightSends() const noexcept {
    std::int64_t n = static_cast<std::int64_t>(inflight_sends_);
    for (const auto& c : shard_ctr_) n += c.inflight;
    return n > 0 ? static_cast<std::uint64_t>(n) : 0;
  }
  /// Cumulative wall time of completed sends (per-leg latency: divide the
  /// per-bin delta by the message-rate delta).
  sim::Time totalSendTime() const noexcept {
    return sumCtr(send_ns_, &ShardCounters::send_ns);
  }
  /// RPC legs by direction (net::request / net::respond pass the category).
  std::uint64_t rpcRequests() const noexcept {
    return sumCtr(rpc_requests_, &ShardCounters::rpc_requests);
  }
  std::uint64_t rpcResponses() const noexcept {
    return sumCtr(rpc_responses_, &ShardCounters::rpc_responses);
  }

  // --- per-lane telemetry feed (sharded runs) -------------------------
  // One shard's share of the counters above, written only by that shard's
  // thread; sharded telemetry registers one probe per lane under the same
  // net/* path and sums the raw samples at merge time, which reproduces
  // the serial accessor values exactly (integer sums).
  std::uint64_t laneMessages(int s) const noexcept {
    return laneRef(s).messages;
  }
  std::uint64_t laneBytesSent(int s) const noexcept {
    return laneRef(s).bytes_sent;
  }
  std::int64_t laneInflight(int s) const noexcept {
    return laneRef(s).inflight;
  }
  sim::Time laneSendTime(int s) const noexcept { return laneRef(s).send_ns; }
  std::uint64_t laneRpcRequests(int s) const noexcept {
    return laneRef(s).rpc_requests;
  }
  std::uint64_t laneRpcResponses(int s) const noexcept {
    return laneRef(s).rpc_responses;
  }
  std::uint64_t laneRpcRetries(int s) const noexcept {
    return laneRef(s).retries;
  }
  std::uint64_t laneRpcTimeouts(int s) const noexcept {
    return laneRef(s).timeouts;
  }
  std::uint64_t laneSendFailures(int s) const noexcept {
    return laneRef(s).send_failures;
  }

  // --- fault injection (see sim/fault_plan.h, net/retry.h) ------------
  /// Administratively takes a node's NIC down/up (fault-plan flaps). The
  /// state vector is allocated lazily, so clusters that never flap pay
  /// one empty-vector check per send.
  void setLinkDown(NodeId id, bool down) {
    if (link_down_.size() < nodes_.size()) link_down_.resize(nodes_.size(), 0);
    link_down_[static_cast<std::size_t>(id)] = down ? 1 : 0;
  }
  bool linkDown(NodeId id) const noexcept {
    return static_cast<std::size_t>(id) < link_down_.size() &&
           link_down_[static_cast<std::size_t>(id)] != 0;
  }

  /// Sharded link state: one replica of the link-down map per shard, each
  /// written only by its own shard's thread (the fault injector broadcasts
  /// one applier coroutine per shard, all landing at the same simulated
  /// time) and read by that shard's sends. The outer vector is sized at
  /// construction; inner lanes allocate lazily on first flap, so flap-free
  /// runs pay one empty-vector check per send.
  void setLinkDownOnShard(int shard, NodeId id, bool down) {
    assert(group_ != nullptr);
    auto& lane = shard_link_down_[static_cast<std::size_t>(shard)];
    if (lane.size() < nodes_.size()) lane.resize(nodes_.size(), 0);
    lane[static_cast<std::size_t>(id)] = down ? 1 : 0;
  }
  bool shardLinkDown(int shard, NodeId id) const noexcept {
    if (shard_link_down_.empty()) return false;
    const auto& lane = shard_link_down_[static_cast<std::size_t>(shard)];
    return static_cast<std::size_t>(id) < lane.size() &&
           lane[static_cast<std::size_t>(id)] != 0;
  }

  /// Retry accounting, incremented by net::sendWithRetry and sampled by
  /// telemetry (net/rpc_retry_per_s, net/rpc_timeout_per_s,
  /// net/send_fail_per_s). On a sharded cluster the counts land in the
  /// calling shard's lane (sendWithRetry runs on the source shard when it
  /// notes a retry or timeout).
  void noteRpcRetry() noexcept {
    if (ShardCounters* c = laneCtr()) {
      ++c->retries;
    } else {
      ++rpc_retries_;
    }
  }
  void noteRpcTimeout() noexcept {
    if (ShardCounters* c = laneCtr()) {
      ++c->timeouts;
    } else {
      ++rpc_timeouts_;
    }
  }
  std::uint64_t rpcRetries() const noexcept {
    return sumCtr(rpc_retries_, &ShardCounters::retries);
  }
  std::uint64_t rpcTimeouts() const noexcept {
    return sumCtr(rpc_timeouts_, &ShardCounters::timeouts);
  }
  /// Sends dropped on a downed link.
  std::uint64_t sendFailures() const noexcept {
    return sumCtr(send_failures_, &ShardCounters::send_failures);
  }

 private:
  /// Send bookkeeping for one shard, cache-line separated so concurrent
  /// shards never write the same line. inflight is signed: a cross-shard
  /// send enters on the source block and exits on the destination's.
  struct alignas(64) ShardCounters {
    std::uint64_t messages = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t rpc_requests = 0;
    std::uint64_t rpc_responses = 0;
    std::int64_t inflight = 0;
    sim::Time send_ns = 0;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t send_failures = 0;
  };

  template <typename T, typename M>
  T sumCtr(T serial, M ShardCounters::* m) const noexcept {
    T total = serial;
    for (const auto& c : shard_ctr_) total += static_cast<T>(c.*m);
    return total;
  }

  const ShardCounters& laneRef(int s) const noexcept {
    return shard_ctr_[static_cast<std::size_t>(s)];
  }

  /// The calling shard's counter lane, or nullptr on the serial path.
  ShardCounters* laneCtr() noexcept {
    if (shard_ctr_.empty()) return nullptr;
    const int s = sim::currentShard();
    return s >= 0 ? &shard_ctr_[static_cast<std::size_t>(s)] : nullptr;
  }

  void finishSend(NodeId src, obs::OpId op, obs::Cat cat, sim::Time started,
                  obs::LegId leg) {
    --inflight_sends_;
    send_ns_ += sim_->now() - started;
    if (op == 0) return;
    if (obs::Observer* o = sim_->observer()) {
      o->leg(op, cat, o->track(src, "net"), "send", started, 0,
             obs::Cat::kServerQueue, leg);
    }
  }

  sim::Simulation* sim_;
  sim::ShardGroup* group_ = nullptr;
  FabricSpec fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<int> node_shard_;           // all zero on a serial cluster
  std::vector<ShardCounters> shard_ctr_;  // empty on a serial cluster
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t inflight_sends_ = 0;
  sim::Time send_ns_ = 0;
  std::uint64_t rpc_requests_ = 0;
  std::uint64_t rpc_responses_ = 0;
  std::vector<std::uint8_t> link_down_;  // empty until the first flap
  // Per-shard link-down replicas (see setLinkDownOnShard); outer vector
  // sized in the sharded constructor, inner lanes empty until a flap.
  std::vector<std::vector<std::uint8_t>> shard_link_down_;
  std::uint64_t rpc_retries_ = 0;
  std::uint64_t rpc_timeouts_ = 0;
  std::uint64_t send_failures_ = 0;
};

}  // namespace daosim::hw
