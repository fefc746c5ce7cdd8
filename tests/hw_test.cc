// Tests for the hardware substrate: device bandwidth/latency math, NIC
// contention, fabric transfers and the RPC model. Includes calibration
// checks against the paper's §III-A raw measurements.
#include <gtest/gtest.h>

#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "hw/cluster.h"
#include "hw/device.h"
#include "hw/spec.h"
#include "net/rpc.h"
#include "sim/pool.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "reference_models.h"

namespace daosim {
namespace {

using hw::kGiB;
using hw::kKiB;
using hw::kMiB;
using sim::Task;
using sim::Time;
using namespace sim::literals;

TEST(Spec, TransferTimeMath) {
  // 1 GiB at 1 GiB/s = 1 s.
  EXPECT_EQ(hw::transferTime(kGiB, 1.0), sim::kSecond);
  // 1 MiB at 6.25 GiB/s = 156.25 us.
  EXPECT_NEAR(static_cast<double>(hw::transferTime(kMiB, 6.25)), 156250, 50);
  EXPECT_EQ(hw::transferTime(123, 0.0), 0u);
}

TEST(NvmeDevice, SequentialWriteBandwidthMatchesSpec) {
  sim::Simulation sim;
  hw::NvmeSpec spec;
  hw::NvmeDevice dev(sim, spec, "d0");
  const int ops = 100;
  const std::uint64_t block = 100 * kMiB;  // the paper's dd block size
  sim.spawn([](hw::NvmeDevice& d, int n, std::uint64_t b) -> Task<void> {
    for (int i = 0; i < n; ++i) co_await d.write(b);
  }(dev, ops, block));
  sim.run();
  const double gibps = static_cast<double>(ops * block) /
                       static_cast<double>(kGiB) / sim::toSeconds(sim.now());
  // Large blocks: latency overhead is negligible, bandwidth ~= spec.
  EXPECT_NEAR(gibps, spec.write_gibps, 0.01 * spec.write_gibps);
}

TEST(NvmeDevice, SixteenDrivesAggregateToPaperNumbers) {
  // Reproduces the §III-A dd experiment: 16 drives in parallel, write then
  // read; expect ~3.86 GiB/s aggregate write and ~7 GiB/s aggregate read.
  sim::Simulation sim;
  std::vector<std::unique_ptr<hw::NvmeDevice>> drives;
  for (int i = 0; i < 16; ++i) {
    drives.push_back(std::make_unique<hw::NvmeDevice>(
        sim, hw::NvmeSpec{}, "d" + std::to_string(i)));
  }
  const std::uint64_t block = 100 * kMiB;
  const int blocks = 50;
  for (auto& d : drives) {
    sim.spawn([](hw::NvmeDevice& dev, int n, std::uint64_t b) -> Task<void> {
      for (int i = 0; i < n; ++i) co_await dev.write(b);
    }(*d, blocks, block));
  }
  sim.run();
  const Time write_span = sim.now();
  double agg_write = 16.0 * blocks * static_cast<double>(block) /
                     static_cast<double>(kGiB) / sim::toSeconds(write_span);
  EXPECT_NEAR(agg_write, 3.86, 0.05);

  const Time read_start = sim.now();
  for (auto& d : drives) {
    sim.spawn([](hw::NvmeDevice& dev, int n, std::uint64_t b) -> Task<void> {
      for (int i = 0; i < n; ++i) co_await dev.read(b);
    }(*d, blocks, block));
  }
  sim.run();
  double agg_read = 16.0 * blocks * static_cast<double>(block) /
                    static_cast<double>(kGiB) /
                    sim::toSeconds(sim.now() - read_start);
  EXPECT_NEAR(agg_read, 7.0, 0.1);
}

TEST(NvmeDevice, SmallOpsAreLatencyBound) {
  sim::Simulation sim;
  hw::NvmeDevice dev(sim, hw::NvmeSpec{}, "d0");
  const int ops = 1000;
  sim.spawn([](hw::NvmeDevice& d, int n) -> Task<void> {
    for (int i = 0; i < n; ++i) co_await d.read(4 * kKiB);
  }(dev, ops));
  sim.run();
  const double iops = ops / sim::toSeconds(sim.now());
  // Read latency 15us + ~9us transfer -> ~41k IOPS.
  EXPECT_GT(iops, 30e3);
  EXPECT_LT(iops, 70e3);
}

TEST(NvmeDevice, FailureInjection) {
  sim::Simulation sim;
  hw::NvmeDevice dev(sim, hw::NvmeSpec{}, "d0");
  dev.fail();
  bool threw = false;
  sim.spawn([](hw::NvmeDevice& d, bool& t) -> Task<void> {
    try {
      co_await d.write(kMiB);
    } catch (const hw::DeviceFailed&) {
      t = true;
    }
  }(dev, threw));
  sim.run();
  EXPECT_TRUE(threw);
  dev.recover();
  EXPECT_FALSE(dev.failed());
}

// Fail-at-dequeue semantics (documented on NvmeDevice::fail): at the exact
// fail timestamp the outcome follows the kernel's FIFO (time, seq) order,
// i.e. spawn order. A 0-byte read completes at exactly read_latency (15us
// with the default spec), so scheduling fail() at that same instant probes
// the boundary deterministically.
TEST(NvmeDevice, FailAtExactCompletionTimestampFollowsSpawnOrder) {
  const hw::NvmeSpec spec;
  const Time completion = spec.read_latency;  // 0-byte read: latency only

  auto reader = [](hw::NvmeDevice& d, bool& threw) -> Task<void> {
    try {
      co_await d.read(0);
    } catch (const hw::DeviceFailed&) {
      threw = true;
    }
  };
  auto failer = [](sim::Simulation& sm, hw::NvmeDevice& d,
                   Time at) -> Task<void> {
    co_await sm.delay(at);
    d.fail();
  };

  {
    // Reader spawned first: its completion event dequeues before the fail
    // event with the same timestamp -> the op succeeds.
    sim::Simulation sim;
    hw::NvmeDevice dev(sim, spec, "d0");
    bool threw = false;
    sim.spawn(reader(dev, threw));
    sim.spawn(failer(sim, dev, completion));
    sim.run();
    EXPECT_EQ(sim.now(), completion);
    EXPECT_FALSE(threw);
  }
  {
    // Failer spawned first: fail() runs before the queued op's completion
    // dequeues at the same timestamp -> the op observes the failure.
    sim::Simulation sim;
    hw::NvmeDevice dev(sim, spec, "d0");
    bool threw = false;
    sim.spawn(failer(sim, dev, completion));
    sim.spawn(reader(dev, threw));
    sim.run();
    EXPECT_EQ(sim.now(), completion);
    EXPECT_TRUE(threw);
  }
}

TEST(NvmeDevice, SlowdownScalesServiceAndLatency) {
  {
    // Baseline: a 0-byte read completes at exactly read_latency.
    sim::Simulation sim;
    hw::NvmeDevice dev(sim, hw::NvmeSpec{}, "d0");
    sim.spawn([](hw::NvmeDevice& d) -> Task<void> { co_await d.read(0); }(dev));
    sim.run();
    EXPECT_EQ(sim.now(), hw::NvmeSpec{}.read_latency);
  }
  {
    sim::Simulation sim;
    hw::NvmeDevice dev(sim, hw::NvmeSpec{}, "d0");
    dev.setSlowdown(2.0);
    sim.spawn([](hw::NvmeDevice& d) -> Task<void> { co_await d.read(0); }(dev));
    sim.run();
    EXPECT_EQ(sim.now(), 2 * hw::NvmeSpec{}.read_latency);
  }
  {
    // x1 restores full speed; sub-1 factors clamp to 1.
    sim::Simulation sim;
    hw::NvmeDevice dev(sim, hw::NvmeSpec{}, "d0");
    dev.setSlowdown(8.0);
    dev.setSlowdown(1.0);
    EXPECT_EQ(dev.slowdown(), 1.0);
    dev.setSlowdown(0.25);
    EXPECT_EQ(dev.slowdown(), 1.0);
    sim.spawn([](hw::NvmeDevice& d) -> Task<void> { co_await d.read(0); }(dev));
    sim.run();
    EXPECT_EQ(sim.now(), hw::NvmeSpec{}.read_latency);
  }
}

TEST(Cluster, LinkDownFailsSendsAfterOneFabricLatency) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto a = cluster.addNode(hw::NodeSpec::client());
  auto b = cluster.addNode(hw::NodeSpec::client());
  cluster.setLinkDown(b, true);
  bool threw = false;
  sim.spawn([](hw::Cluster& c, hw::NodeId s, hw::NodeId d,
               bool& t) -> Task<void> {
    try {
      co_await c.send(s, d, kMiB);
    } catch (const hw::NetworkDown&) {
      t = true;
    }
  }(cluster, a, b, threw));
  sim.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(sim.now(), cluster.fabric().latency);
  EXPECT_EQ(cluster.sendFailures(), 1u);
  EXPECT_EQ(cluster.messages(), 0u);

  // Loopback never traverses the NIC, downed or not.
  cluster.setLinkDown(a, true);
  bool loopback_ok = true;
  sim.spawn([](hw::Cluster& c, hw::NodeId n, bool& ok) -> Task<void> {
    try {
      co_await c.send(n, n, kMiB);
    } catch (const hw::NetworkDown&) {
      ok = false;
    }
  }(cluster, a, loopback_ok));
  sim.run();
  EXPECT_TRUE(loopback_ok);

  cluster.setLinkDown(a, false);
  cluster.setLinkDown(b, false);
  EXPECT_FALSE(cluster.linkDown(a));
  EXPECT_FALSE(cluster.linkDown(b));
}

TEST(Cluster, PointToPointBandwidthMatchesNic) {
  // iperf-style: one stream of large messages; expect ~6.25 GiB/s.
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto a = cluster.addNode(hw::NodeSpec::client());
  auto b = cluster.addNode(hw::NodeSpec::client());
  const int msgs = 200;
  const std::uint64_t sz = 8 * kMiB;
  sim.spawn([](hw::Cluster& c, hw::NodeId s, hw::NodeId d, int n,
               std::uint64_t sz) -> Task<void> {
    for (int i = 0; i < n; ++i) co_await c.send(s, d, sz);
  }(cluster, a, b, msgs, sz));
  sim.run();
  const double gibps = static_cast<double>(msgs * sz) /
                       static_cast<double>(kGiB) / sim::toSeconds(sim.now());
  EXPECT_NEAR(gibps, 6.25, 0.15);
}

TEST(Cluster, ManyToOneSaturatesReceiverNic) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  std::vector<hw::NodeId> sources;
  for (int i = 0; i < 4; ++i) sources.push_back(cluster.addNode(hw::NodeSpec::client()));
  auto sink = cluster.addNode(hw::NodeSpec::client());
  const int msgs = 50;
  const std::uint64_t sz = 8 * kMiB;
  for (auto s : sources) {
    sim.spawn([](hw::Cluster& c, hw::NodeId src, hw::NodeId dst, int n,
                 std::uint64_t sz) -> Task<void> {
      for (int i = 0; i < n; ++i) co_await c.send(src, dst, sz);
    }(cluster, s, sink, msgs, sz));
  }
  sim.run();
  const double gibps = 4.0 * msgs * static_cast<double>(sz) /
                       static_cast<double>(kGiB) / sim::toSeconds(sim.now());
  // Aggregate is pinned at the single receiver NIC despite 4 senders.
  EXPECT_NEAR(gibps, 6.25, 0.2);
}

TEST(Cluster, LoopbackSkipsNic) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto a = cluster.addNode(hw::NodeSpec::client());
  sim.spawn([](hw::Cluster& c, hw::NodeId n) -> Task<void> {
    co_await c.send(n, n, kGiB);
  }(cluster, a));
  sim.run();
  EXPECT_LT(sim.now(), 10_us);
  EXPECT_EQ(cluster.node(a).tx().ops(), 0u);
}

// --- Cluster::send: the reference spawn-and-join schedule ---------------

struct SendResult {
  Time at;
  int id;
  bool failed;
  bool operator==(const SendResult&) const = default;
};

// One sender's plan: (think time, destination, bytes) per message.
using SendPlan = std::vector<std::tuple<Time, int, std::uint64_t>>;

template <typename Net>
Task<void> sender(sim::Simulation* s, Net* net, int src, const SendPlan* plan,
                  int id, std::vector<SendResult>* log) {
  for (const auto& [think, dst, bytes] : *plan) {
    co_await s->delay(think);
    bool failed = false;
    try {
      co_await net->send(src, dst, bytes);
    } catch (const hw::NetworkDown&) {
      failed = true;
    }
    log->push_back(SendResult{s->now(), id, failed});
  }
}

template <typename Net>
Task<void> flap(sim::Simulation* s, Net* net, int node, Time down_at,
                Time up_at) {
  co_await s->delay(down_at);
  net->setLinkDown(node, true);
  co_await s->delay(up_at - down_at);
  net->setLinkDown(node, false);
}

TEST(Cluster, SerialSendMatchesSpawnAndJoinSchedule) {
  constexpr int kNodes = 5;
  std::mt19937_64 rng(7);
  const std::uint64_t sizes[] = {0, 4 * kKiB, 64 * kKiB, kMiB};
  std::vector<SendPlan> plans(32);
  for (SendPlan& p : plans) {
    for (int m = 0; m < 8; ++m) {
      // Think times on a 1us grid make same-nanosecond sends, arrivals
      // and completions common; dst may equal src (loopback).
      p.emplace_back(static_cast<Time>(rng() % 4) * 1_us,
                     static_cast<int>(rng() % kNodes), sizes[rng() % 4]);
    }
  }
  sim::Simulation sa, sb;
  hw::Cluster cluster(sa);
  for (int i = 0; i < kNodes; ++i) cluster.addNode(hw::NodeSpec::client());
  ref::Network net(sb, kNodes);
  std::vector<SendResult> la, lb;
  // Node 2's link flaps while traffic is in flight.
  sa.spawn(flap(&sa, &cluster, 2, 300_us, 900_us));
  sb.spawn(flap(&sb, &net, 2, 300_us, 900_us));
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const int id = static_cast<int>(i);
    const int src = id % kNodes;
    sa.spawn(sender(&sa, &cluster, src, &plans[i], id, &la));
    sb.spawn(sender(&sb, &net, src, &plans[i], id, &lb));
  }
  for (;;) {
    const bool a = ref::stepOne(sa);
    ASSERT_EQ(a, ref::stepOne(sb));
    if (!a) break;
    ASSERT_EQ(sa.now(), sb.now());
    for (int n = 0; n < kNodes; ++n) {
      ASSERT_EQ(cluster.node(n).tx().queueLength(), net.tx(n).queueLength())
          << "node " << n << " at t=" << sa.now();
      ASSERT_EQ(cluster.node(n).rx().queueLength(), net.rx(n).queueLength())
          << "node " << n << " at t=" << sa.now();
    }
  }
  EXPECT_EQ(la, lb);
  EXPECT_EQ(sa.processedEvents(), sb.processedEvents());
  EXPECT_EQ(cluster.messages(), net.messages());
  EXPECT_EQ(cluster.sendFailures(), net.sendFailures());
  EXPECT_GT(cluster.sendFailures(), 0u) << "the flap never hit a send";
  for (int n = 0; n < kNodes; ++n) {
    for (auto [st, rs] : {std::pair{&cluster.node(n).tx(), &net.tx(n)},
                          std::pair{&cluster.node(n).rx(), &net.rx(n)}}) {
      EXPECT_EQ(st->ops(), rs->ops()) << st->name();
      EXPECT_EQ(st->busyTime(), rs->busyTime()) << st->name();
      EXPECT_EQ(st->totalWait(), rs->totalWait()) << st->name();
    }
  }
}

// --- Frame traffic of the send and NVMe hot paths ------------------------

// Pool blocks allocated by `n` back-to-back awaits of `kind` (0: a
// Cluster::send, 1: net::request, 2: a sendWithRetry with a disabled
// policy, 3: an NVMe write), measured inside the sending coroutine.
std::uint64_t steadyStateAllocs(int kind, int n) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto a = cluster.addNode(hw::NodeSpec::client());
  auto b = cluster.addNode(hw::NodeSpec::server(1));
  std::uint64_t allocs = ~std::uint64_t{0};
  sim.spawn([](hw::Cluster* c, hw::NodeId a, hw::NodeId b, int kind, int n,
               std::uint64_t* out) -> Task<void> {
    const auto before = sim::detail::FramePool::threadStats().allocs;
    for (int i = 0; i < n; ++i) {
      switch (kind) {
        case 0: co_await c->send(a, b, 4 * kKiB); break;
        case 1: co_await net::request(*c, a, b, 4 * kKiB); break;
        case 2:
          co_await net::request(*c, a, b, 4 * kKiB, net::RetryPolicy{});
          break;
        default: co_await c->node(b).drive(0).write(4 * kKiB); break;
      }
    }
    *out = sim::detail::FramePool::threadStats().allocs - before;
  }(&cluster, a, b, kind, n, &allocs));
  sim.run();
  return allocs;
}

TEST(FramePool, SerialSendAllocatesTwoFrames) {
  EXPECT_EQ(steadyStateAllocs(0, 50), 100u);
  EXPECT_EQ(steadyStateAllocs(1, 50), 100u);
  EXPECT_EQ(steadyStateAllocs(2, 50), 100u);
}

TEST(FramePool, NvmeWriteAllocatesNothing) {
  EXPECT_EQ(steadyStateAllocs(3, 50), 0u);
}

TEST(Rpc, RoundTripLatency) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto c = cluster.addNode(hw::NodeSpec::client());
  auto s = cluster.addNode(hw::NodeSpec::server());
  sim.spawn([](sim::Simulation& sm, hw::Cluster& cl, hw::NodeId c,
               hw::NodeId s) -> Task<void> {
    co_await net::request(cl, c, s, net::kSmallRequest);
    co_await sm.delay(5_us);  // server-side service
    co_await net::respond(cl, s, c, 0);
  }(sim, cluster, c, s));
  sim.run();
  // 2 fabric hops (8us each) + 2 small serializations + 5us service + NIC
  // per-message costs: ~30us total.
  EXPECT_GT(sim.now(), 20_us);
  EXPECT_LT(sim.now(), 45_us);
}

TEST(Rpc, BulkResponseChargedOnReturnPath) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto c = cluster.addNode(hw::NodeSpec::client());
  auto s = cluster.addNode(hw::NodeSpec::server());
  sim.spawn([](hw::Cluster& cl, hw::NodeId c, hw::NodeId s) -> Task<void> {
    co_await net::request(cl, c, s, net::kSmallRequest);
    co_await net::respond(cl, s, c, 64 * kMiB);
  }(cluster, c, s));
  sim.run();
  // 64 MiB at 6.25 GiB/s = ~10ms dominates.
  EXPECT_GT(sim.now(), 10_ms);
  EXPECT_LT(sim.now(), 25_ms);
}

}  // namespace
}  // namespace daosim
