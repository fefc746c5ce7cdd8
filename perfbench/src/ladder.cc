// The per-layer ladder: each rung times direct calls into one layer's public
// functions, in batches, and reports the median host ns per op and kernel
// events per op. Rungs run bottom-up: sim -> hw -> net -> daos engine ->
// daos client -> dfs -> posix -> hdf5, with vos and placement as standalone
// synchronous rungs and lustre/rados beside the DAOS client.
//
// Coroutines here take only plain data parameters (see net/rpc.h).
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "apps/testbed.h"
#include "daos/engine.h"
#include "hw/cluster.h"
#include "io/backend.h"
#include "net/rpc.h"
#include "perfbench.h"
#include "placement/layout.h"
#include "sim/queue_station.h"
#include "vos/target_store.h"

namespace perfbench {

namespace apps = daosim::apps;
namespace hw = daosim::hw;
namespace io = daosim::io;
namespace placement = daosim::placement;
namespace sim = daosim::sim;
namespace vos = daosim::vos;

namespace {

volatile std::uint64_t g_sink = 0;  // keeps synchronous rungs observable

/// Field I/O-shaped index key: "r<rank>.f<field>.k<k>".
std::string fieldKey(std::uint64_t i) {
  return "r" + std::to_string(i % 256) + ".f" + std::to_string(i / 256) +
         ".k" + std::to_string(i % 7);
}

constexpr const char* kIndexValue = "step=12;param=t;level=500;grid=o1280";
constexpr std::uint64_t kKeySpace = 4096;  // distinct keys cycled through
constexpr std::uint64_t kOffsetWindow = 64;  // distinct object offsets

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Spawns `task`, runs the simulation to quiescence and returns the events
/// it processed.
std::uint64_t drive(sim::Simulation& s, sim::Task<void> task) {
  const std::uint64_t before = s.processedEvents();
  sim::ProcHandle h = s.spawn(std::move(task));
  s.run();
  if (h.failed()) std::rethrow_exception(h.error());
  return s.processedEvents() - before;
}

// --- rung coroutines ---------------------------------------------------------

sim::Task<void> chainLeaf(sim::Simulation* s, sim::QueueStation* st) {
  co_await s->delay(sim::kMicrosecond);
  co_await st->exec(500);
}

sim::Task<void> chainWorker(sim::Simulation* s, sim::QueueStation* st,
                            std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    sim::ProcHandle h = s->spawn(chainLeaf(s, st));
    co_await h.join();
  }
}

/// Eight spawn -> delay -> QueueStation chains contending on one server.
sim::Task<void> chainBatch(sim::Simulation* s, sim::QueueStation* st,
                           std::uint64_t n) {
  std::vector<sim::ProcHandle> workers;
  for (int w = 0; w < 8; ++w) {
    workers.push_back(s->spawn(chainWorker(s, st, n)));
  }
  for (sim::ProcHandle& h : workers) co_await h.join();
}

sim::Task<void> sendLoop(hw::Cluster* c, std::uint64_t bytes,
                         std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) co_await c->send(0, 1, bytes);
}

sim::Task<void> nvmeLoop(hw::NvmeDevice* d, std::uint64_t bytes,
                         std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    co_await d->write(bytes);
    co_await d->read(bytes);
  }
}

sim::Task<void> roundTripLoop(hw::Cluster* c, std::uint64_t bytes,
                              std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    co_await daosim::net::request(*c, 0, 1, 0);
    co_await daosim::net::respond(*c, 1, 0, bytes);
  }
}

/// extentWrite, extentRead, valuePut, valueGet on target 0 of one engine.
sim::Task<void> engineLoop(daosim::daos::Engine* e, vos::ContId cont,
                           std::uint64_t base, std::uint64_t n,
                           std::uint64_t bytes) {
  const placement::ObjectId array_oid =
      placement::makeOid(placement::ObjClass::S1, 1, 7);
  const placement::ObjectId kv_oid =
      placement::makeOid(placement::ObjClass::S1, 2, 7);
  for (std::uint64_t i = base; i < base + n; ++i) {
    const std::string dkey = vos::u64Dkey(i % kOffsetWindow);
    co_await e->extentWrite(0, cont, array_oid, dkey, "0", 0,
                            vos::Payload::synthetic(bytes));
    (void)co_await e->extentRead(0, cont, array_oid, dkey, "0", 0, bytes);
    const std::string key = fieldKey(i % kKeySpace);
    co_await e->valuePut(0, cont, kv_oid, key, "v",
                         vos::Payload::fromString(kIndexValue));
    (void)co_await e->valueGet(0, cont, kv_oid, key, "v");
  }
}

/// The workload's transfer written then read back at a cycling offset.
sim::Task<void> objectLoop(io::Object* obj, std::uint64_t base,
                           std::uint64_t n, std::uint64_t bytes) {
  for (std::uint64_t i = base; i < base + n; ++i) {
    co_await obj->write((i % kOffsetWindow) * bytes,
                        vos::Payload::synthetic(bytes, i));
  }
  for (std::uint64_t i = base; i < base + n; ++i) {
    (void)co_await obj->read((i % kOffsetWindow) * bytes, bytes);
  }
}

sim::Task<void> indexLoop(io::Index* index, std::uint64_t base,
                          std::uint64_t n) {
  for (std::uint64_t i = base; i < base + n; ++i) {
    co_await index->put(fieldKey(i % kKeySpace),
                        vos::Payload::fromString(kIndexValue));
  }
  for (std::uint64_t i = base; i < base + n; ++i) {
    (void)co_await index->get(fieldKey(i % kKeySpace));
  }
}

struct BackendRig {
  std::unique_ptr<io::Backend> backend;
  std::unique_ptr<io::Object> object;
  std::unique_ptr<io::Index> index;
};

sim::Task<void> openRig(BackendRig* rig, bool want_index) {
  co_await rig->backend->connect();
  if (want_index) {
    io::IndexSpec spec;
    spec.name = "ladder.kv";
    rig->index = co_await rig->backend->openIndex(spec);
  } else {
    io::OpenSpec spec;
    spec.name = "ladder";
    rig->object = co_await rig->backend->open(spec);
  }
}

// --- timing harness ----------------------------------------------------------

/// Times `run(base, n)` (returns kernel events processed) in batches: a
/// doubling warm-up sizes a batch to about budget/12, then at least five
/// and at most twenty-five batches run within `budget_s`. With `per_event`
/// the unit of work is a kernel event rather than an op.
template <class Fn>
Rung timeRung(Tracing* t, std::string layer, std::string metric,
              double budget_s, std::uint64_t ops_per_iteration,
              bool per_event, Fn&& run) {
  SpanScope rung_span(t, "ladder " + metric, 0);
  std::uint64_t base = 0;
  std::uint64_t n = 4;
  double warm = 0;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    run(base, n);
    warm = secondsSince(t0);
    base += n;
    if (warm >= 0.002 || n >= (1u << 22)) break;
    n *= 2;
  }
  const double target = std::clamp(budget_s / 12, 0.002, 0.05);
  n = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(n) * target /
                                    std::max(warm, 1e-6)));
  std::vector<double> ns;
  std::vector<double> events;
  const Clock::time_point start = Clock::now();
  while (ns.size() < 5 || (ns.size() < 25 && secondsSince(start) < budget_s)) {
    SpanScope batch_span(t, "batch", 0);
    const Clock::time_point t0 = Clock::now();
    const double ev = static_cast<double>(run(base, n));
    const double dt = secondsSince(t0) * 1e9;
    base += n;
    const double ops = static_cast<double>(n * ops_per_iteration);
    ns.push_back(per_event ? dt / std::max(ev, 1.0) : dt / ops);
    events.push_back(ev / ops);
  }
  Rung r;
  r.layer = std::move(layer);
  r.metric = std::move(metric);
  r.ns_per_op = median(ns);
  r.events_per_op = median(events);
  return r;
}

apps::DaosTestbed::Options smallDaos(bool dfuse) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 1;
  opt.client_nodes = 1;
  opt.with_dfuse = dfuse;
  return opt;
}

/// Rung over one io::Backend of a small (one server, one client) testbed.
template <class Testbed>
Rung backendRung(Tracing* t, std::string layer, std::string metric,
                 double budget, Testbed& tb, const io::Env& env,
                 const std::string& api, bool index, std::uint64_t bytes) {
  BackendRig rig;
  rig.backend = io::makeBackend(
      api, env, tb.clients().front(),
      apps::spmdClientId(tb.seed(), apps::kIorIdDomain, 0));
  drive(tb.sim(), openRig(&rig, index));
  return timeRung(t, std::move(layer), std::move(metric), budget, 2, false,
                  [&](std::uint64_t base, std::uint64_t n) {
                    return index ? drive(tb.sim(),
                                         indexLoop(rig.index.get(), base, n))
                                 : drive(tb.sim(), objectLoop(rig.object.get(),
                                                              base, n, bytes));
                  });
}

Rung daosBackendRung(Tracing* t, std::string layer, std::string metric,
                     double budget, const std::string& api, bool dfuse,
                     bool index, std::uint64_t bytes) {
  apps::DaosTestbed tb(smallDaos(dfuse));
  return backendRung(t, std::move(layer), std::move(metric), budget, tb,
                     tb.ioEnv(), api, index, bytes);
}

}  // namespace

std::vector<Rung> runLadder(const Workload& w, double budget_s, Tracing* t) {
  SpanScope ladder_span(t, "ladder", 0);
  const std::uint64_t bytes = w.ladder_bytes;
  const double budget = budget_s / 19;  // rungs below
  std::vector<Rung> rungs;

  {  // sim: bare spawn / delay / QueueStation hand-off chains
    sim::Simulation s(1);
    sim::QueueStation st(s, "rung", 1);
    rungs.push_back(timeRung(t, "sim", "sim.ladder.ns_per_event", budget, 8,
                             true, [&](std::uint64_t, std::uint64_t n) {
                               return drive(s, chainBatch(&s, &st, n));
                             }));
  }
  for (std::uint64_t size : {std::uint64_t{1} << 20, std::uint64_t{4096}}) {
    sim::Simulation s(1);
    hw::Cluster cluster(s);
    cluster.addNodes(hw::NodeSpec::client(), 2);
    rungs.push_back(timeRung(
        t, "hw", size == 4096 ? "hw.ladder.ns_per_send_4k"
                              : "hw.ladder.ns_per_send_1m",
        budget, 1, false, [&](std::uint64_t, std::uint64_t n) {
          return drive(s, sendLoop(&cluster, size, n));
        }));
  }
  {
    sim::Simulation s(1);
    hw::NvmeDevice dev(s, hw::NvmeSpec{}, "rung.nvme");
    rungs.push_back(timeRung(t, "hw", "hw.ladder.ns_per_nvme_op", budget, 2,
                             false, [&](std::uint64_t, std::uint64_t n) {
                               return drive(s, nvmeLoop(&dev, bytes, n));
                             }));
  }
  {
    sim::Simulation s(1);
    hw::Cluster cluster(s);
    cluster.addNodes(hw::NodeSpec::client(), 2);
    rungs.push_back(timeRung(t, "net", "net.ladder.ns_per_roundtrip", budget,
                             1, false, [&](std::uint64_t, std::uint64_t n) {
                               return drive(s,
                                            roundTripLoop(&cluster, bytes, n));
                             }));
  }
  {
    apps::DaosTestbed tb(smallDaos(false));
    daosim::daos::Engine* engine = &tb.daos().engine(0);
    const vos::ContId cont = tb.container().id;
    rungs.push_back(timeRung(
        t, "daos", "daos.ladder.ns_per_engine_op", budget, 4, false,
        [&](std::uint64_t base, std::uint64_t n) {
          return drive(tb.sim(), engineLoop(engine, cont, base, n, bytes));
        }));
  }
  rungs.push_back(daosBackendRung(
      t, "daos", "daos.ladder.ns_per_array_op", budget, "daos-array", false,
      false, bytes));
  rungs.push_back(daosBackendRung(
      t, "daos", "daos.ladder.ns_per_kv_op", budget, "daos-array", false,
      true, bytes));
  rungs.push_back(daosBackendRung(
      t, "dfs", "dfs.ladder.ns_per_op", budget, "dfs", false, false, bytes));
  rungs.push_back(daosBackendRung(
      t, "posix", "posix.ladder.ns_per_dfuse_op", budget, "dfuse", true,
      false, bytes));
  rungs.push_back(daosBackendRung(
      t, "posix", "posix.ladder.ns_per_il_op", budget, "dfuse-il", true,
      false, bytes));
  rungs.push_back(daosBackendRung(
      t, "hdf5", "hdf5.ladder.ns_per_op", budget, "hdf5", true, false,
      bytes));
  {
    apps::LustreTestbed::Options opt;
    opt.oss_nodes = 1;
    opt.client_nodes = 1;
    apps::LustreTestbed tb(opt);
    rungs.push_back(backendRung(t, "lustre", "lustre.ladder.ns_per_op",
                                budget, tb, tb.ioEnv(8, 8 << 20),
                                "lustre-posix", false, bytes));
  }
  {
    apps::CephTestbed::Options opt;
    opt.osd_nodes = 1;
    opt.client_nodes = 1;
    apps::CephTestbed tb(opt);
    rungs.push_back(backendRung(t, "rados", "rados.ladder.ns_per_op", budget,
                                tb, tb.ioEnv(), "rados", false, bytes));
  }

  // Standalone synchronous rungs.
  std::vector<std::string> keys;
  std::vector<std::string> dkeys;
  for (std::uint64_t i = 0; i < kKeySpace; ++i) keys.push_back(fieldKey(i));
  for (std::uint64_t i = 0; i < kOffsetWindow; ++i) {
    dkeys.push_back(vos::u64Dkey(i));
  }
  const placement::ObjectId oid =
      placement::makeOid(placement::ObjClass::S1, 3, 7);
  {
    vos::TargetStore store(false);
    rungs.push_back(timeRung(
        t, "vos", "vos.ladder.ns_per_value_op", budget, 2, false,
        [&](std::uint64_t base, std::uint64_t n) {
          for (std::uint64_t i = base; i < base + n; ++i) {
            const std::string& k = keys[i % kKeySpace];
            store.valuePut(1, oid, k, "v",
                           vos::Payload::fromString(kIndexValue));
            g_sink = g_sink + (store.valueGet(1, oid, k, "v") != nullptr);
          }
          return std::uint64_t{0};
        }));
  }
  {
    vos::TargetStore store(false);
    rungs.push_back(timeRung(
        t, "vos", "vos.ladder.ns_per_extent_op", budget, 2, false,
        [&](std::uint64_t base, std::uint64_t n) {
          for (std::uint64_t i = base; i < base + n; ++i) {
            const std::string& d = dkeys[i % kOffsetWindow];
            store.extentWrite(1, oid, d, "0", 0,
                              vos::Payload::synthetic(bytes, i));
            (void)store.extentRead(1, oid, d, "0", 0, bytes);
          }
          return std::uint64_t{0};
        }));
  }
  for (int targets : {128, 1024}) {
    rungs.push_back(timeRung(
        t, "placement",
        "placement.ladder.ns_per_layout_" + std::to_string(targets), budget,
        1, false, [&](std::uint64_t base, std::uint64_t n) {
          for (std::uint64_t i = base; i < base + n; ++i) {
            const placement::Layout l = placement::computeLayout(
                placement::makeOid(placement::ObjClass::SX, i, 7), targets);
            g_sink = g_sink + static_cast<std::uint64_t>(l.targets.front());
          }
          return std::uint64_t{0};
        }));
  }
  {
    const placement::Layout layout = placement::computeLayout(
        placement::makeOid(placement::ObjClass::SX, 9, 7), 256);
    rungs.push_back(timeRung(
        t, "placement", "placement.ladder.ns_per_dkey", budget, 1, false,
        [&](std::uint64_t base, std::uint64_t n) {
          for (std::uint64_t i = base; i < base + n; ++i) {
            const std::string& k = keys[i % kKeySpace];
            g_sink = g_sink + placement::dkeyHash(k) +
                     static_cast<std::uint64_t>(placement::dkeyGroup(layout, k));
          }
          return std::uint64_t{0};
        }));
  }
  return rungs;
}

}  // namespace perfbench
