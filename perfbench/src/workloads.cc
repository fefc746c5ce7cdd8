// Workload definitions, one-simulation execution with counter collection,
// the traced-run probe and spans, and the correctness gate.
#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "apps/fdb.h"
#include "apps/fieldio.h"
#include "apps/ior.h"
#include "apps/testbed.h"
#include "obs/observer.h"
#include "perfbench.h"

namespace perfbench {

namespace apps = daosim::apps;
namespace hw = daosim::hw;
namespace io = daosim::io;
namespace obs = daosim::obs;
namespace sim = daosim::sim;
namespace vos = daosim::vos;

// --- counters ------------------------------------------------------------

void Counters::add(const Counters& o) {
  events += o.events;
  past_clamps += o.past_clamps;
  messages += o.messages;
  bytes_sent += o.bytes_sent;
  nvme_ops += o.nvme_ops;
  rpc_requests += o.rpc_requests;
  rpc_retries += o.rpc_retries;
  rpc_timeouts += o.rpc_timeouts;
  send_failures += o.send_failures;
  degraded_reads += o.degraded_reads;
  value_puts += o.value_puts;
  value_gets += o.value_gets;
  extent_writes += o.extent_writes;
  extent_reads += o.extent_reads;
  vos_bytes += o.vos_bytes;
  vos_objects += o.vos_objects;
  sim_s += o.sim_s;
  nvme_busy += o.nvme_busy;
  nvme_cap += o.nvme_cap;
  nic_busy += o.nic_busy;
  nic_cap += o.nic_cap;
  xs_busy += o.xs_busy;
  xs_cap += o.xs_cap;
  poolsvc_busy += o.poolsvc_busy;
  poolsvc_cap += o.poolsvc_cap;
  dfuse_busy += o.dfuse_busy;
  dfuse_cap += o.dfuse_cap;
  mds_busy += o.mds_busy;
  mds_cap += o.mds_cap;
  osd_busy += o.osd_busy;
  osd_cap += o.osd_cap;
  xs_wait.merge(o.xs_wait);
}

namespace {

void addStore(const vos::TargetStore& s, Counters& c) {
  c.value_puts += s.valuePuts();
  c.value_gets += s.valueGets();
  c.extent_writes += s.extentWrites();
  c.extent_reads += s.extentReads();
  c.vos_bytes += s.bytesStored();
  c.vos_objects += s.objectCount();
}

/// Kernel, fabric and device counters every testbed shares.
void addCluster(sim::Simulation& s, hw::Cluster& cluster, Counters& c) {
  const double horizon = static_cast<double>(s.now());
  c.events += s.processedEvents();
  c.past_clamps += s.pastScheduleClamps();
  c.sim_s += sim::toSeconds(s.now());
  c.messages += cluster.messages();
  c.bytes_sent += cluster.bytesSent();
  c.rpc_requests += cluster.rpcRequests();
  c.rpc_retries += cluster.rpcRetries();
  c.rpc_timeouts += cluster.rpcTimeouts();
  c.send_failures += cluster.sendFailures();
  for (std::size_t n = 0; n < cluster.nodeCount(); ++n) {
    hw::Node& node = cluster.node(static_cast<hw::NodeId>(n));
    c.nic_busy += static_cast<double>(node.tx().busyTime() +
                                      node.rx().busyTime());
    c.nic_cap += 2 * horizon;
    for (std::size_t d = 0; d < node.driveCount(); ++d) {
      const hw::NvmeDevice& dev = node.drive(d);
      c.nvme_busy += static_cast<double>(dev.busyTime());
      c.nvme_cap += horizon;
      c.nvme_ops += dev.writeOps() + dev.readOps();
    }
  }
}

void collect(apps::DaosTestbed& tb, Counters& c) {
  addCluster(tb.sim(), tb.cluster(), c);
  const double horizon = static_cast<double>(tb.sim().now());
  daosim::daos::DaosSystem& daos = tb.daos();
  for (int e = 0; e < daos.engineCount(); ++e) {
    daosim::daos::Engine& engine = daos.engine(e);
    for (int t = 0; t < engine.targetCount(); ++t) {
      daosim::daos::Target& target = engine.target(t);
      addStore(target.store(), c);
      c.xs_busy += static_cast<double>(target.xstream().busyTime());
      c.xs_cap += horizon;
      c.xs_wait.merge(target.xstream().waitHistogram());
    }
  }
  c.poolsvc_busy +=
      static_cast<double>(daos.poolService().station().busyTime());
  c.poolsvc_cap += horizon;
  c.degraded_reads += daos.degradedReads();
  for (const auto& [node, daemon] : tb.daemons()) {
    c.dfuse_busy += static_cast<double>(daemon->threads().busyTime());
    c.dfuse_cap += horizon * daemon->config().fuse_threads;
  }
}

void collect(apps::LustreTestbed& tb, Counters& c) {
  addCluster(tb.sim(), tb.cluster(), c);
  daosim::lustre::LustreSystem& lustre = tb.lustre();
  for (int i = 0; i < lustre.ostCount(); ++i) addStore(lustre.ost(i).store, c);
  c.mds_busy += static_cast<double>(lustre.mdsStation().busyTime());
  c.mds_cap += static_cast<double>(tb.sim().now()) *
               lustre.config().mds_threads;
}

void collect(apps::CephTestbed& tb, Counters& c) {
  addCluster(tb.sim(), tb.cluster(), c);
  daosim::rados::CephCluster& ceph = tb.ceph();
  for (int i = 0; i < ceph.osdCount(); ++i) {
    addStore(ceph.osd(i).store, c);
    c.osd_busy += static_cast<double>(ceph.osd(i).op_threads.busyTime());
    c.osd_cap += static_cast<double>(tb.sim().now()) *
                 ceph.config().osd_op_threads;
  }
}

std::unique_ptr<apps::SpmdBenchmark> makeBench(const SimSpec& s,
                                               const io::Env& env) {
  switch (s.app) {
    case App::kIor: {
      apps::IorConfig cfg;
      cfg.transfer = s.transfer;
      cfg.ops = s.ops;
      return std::make_unique<apps::Ior>(env, s.api, cfg);
    }
    case App::kFieldIo: {
      apps::FieldIoConfig cfg;
      cfg.field_size = s.transfer;
      cfg.fields = s.ops;
      return std::make_unique<apps::FieldIo>(env, s.api, cfg);
    }
    case App::kFdb: {
      apps::FdbConfig cfg;
      cfg.field_size = s.transfer;
      cfg.fields = s.ops;
      return std::make_unique<apps::Fdb>(env, s.api, cfg);
    }
  }
  throw std::logic_error("perfbench: unknown app");
}

/// Simulated interval between probe samples in the traced run.
constexpr sim::Time kProbeInterval = sim::kMillisecond;

/// Benchmark-owned probe process: samples (host clock, events, sim time)
/// every kProbeInterval and exits once it is the last pending event.
sim::Task<void> probe(sim::Simulation* s, std::vector<ProbeSample>* out,
                      Tracing* t) {
  for (;;) {
    co_await s->delay(kProbeInterval);
    out->push_back({t->now(), s->processedEvents(), s->now()});
    if (s->pendingEvents() == 0) co_return;
  }
}

/// Charges probe intervals to the write phase up to the write phase's
/// last completion and to the read phase after it; adds phase spans.
void attributePhases(const std::vector<ProbeSample>& samples,
                     const apps::RunResult& r, double run_end, int parent,
                     int run, Tracing* t) {
  if (samples.empty()) return;
  const sim::Time write_end = r.write().last_end;
  double boundary = samples.front().host_s;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const double dt = samples[i].host_s - samples[i - 1].host_s;
    if (samples[i - 1].sim_ns < write_end) {
      t->write_host_s += dt;
      boundary = samples[i].host_s;
    } else {
      t->read_host_s += dt;
    }
  }
  t->read_host_s += std::max(0.0, run_end - samples.back().host_s);
  const double run_start = t->spans()[static_cast<std::size_t>(parent)].start;
  t->add("phase write", run_start, boundary, parent, run);
  t->add("phase read", boundary, run_end, parent, run);
  for (const ProbeSample& s : samples) t->probe.emplace_back(run, s);
}

template <class Testbed>
void execute(std::unique_ptr<Testbed> tb, const io::Env& env,
             SimOutcome& out, Tracing* t, int run) {
  sim::Simulation& s = tb->sim();
  obs::Observer observer;
  std::vector<ProbeSample> samples;
  if (t != nullptr) {
    observer.attach(s);
    observer.enableTracing();
    samples.push_back({t->now(), s.processedEvents(), s.now()});
    s.spawn(probe(&s, &samples, t));
  }
  std::unique_ptr<apps::SpmdBenchmark> bench = makeBench(out.spec, env);
  {
    SpanScope span(t, "runSpmd", run);
    out.result = apps::runSpmd(s, tb->clientSubset(out.spec.clients),
                               out.spec.ppn, *bench);
    if (t != nullptr) {
      attributePhases(samples, out.result, t->now(), span.id(), run, t);
    }
  }
  collect(*tb, out.counters);
  if (t != nullptr) {
    for (const auto& [type, agg] : observer.opTypes()) {
      for (int c = 0; c < obs::kCatCount; ++c) t->cat_ns[c] += agg.cat_ns[c];
    }
    std::ostringstream os;
    os << "== " << out.spec.name << " seed " << out.spec.seed << "\n";
    observer.writeBreakdown(os);
    t->breakdown += os.str();
    observer.detach();
  }
  SpanScope span(t, "teardown", run);
  bench.reset();
  tb.reset();
}

}  // namespace

// --- tracing ---------------------------------------------------------------

int Tracing::open(std::string name, int run) {
  const int id = static_cast<int>(spans_.size());
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({std::move(name), now(), 0, parent, run});
  stack_.push_back(id);
  return id;
}

void Tracing::close(int span) {
  spans_[static_cast<std::size_t>(span)].end = now();
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

void Tracing::add(std::string name, double start, double end, int parent,
                  int run) {
  spans_.push_back({std::move(name), start, end, parent, run});
}

// --- one simulation --------------------------------------------------------

SimOutcome runSim(const SimSpec& spec, Tracing* t, int run) {
  SimOutcome out;
  out.spec = spec;
  SpanScope sim_span(t, "sim " + spec.name + " seed " +
                            std::to_string(spec.seed),
                     run);
  const Clock::time_point t0 = Clock::now();
  switch (spec.stack) {
    case Stack::kDaos: {
      std::unique_ptr<apps::DaosTestbed> tb;
      {
        SpanScope deploy(t, "deploy", run);
        apps::DaosTestbed::Options opt;
        opt.server_nodes = spec.servers;
        opt.client_nodes = spec.clients;
        opt.seed = spec.seed;
        opt.with_dfuse = spec.dfuse;
        tb = std::make_unique<apps::DaosTestbed>(opt);
      }
      out.setup_s = secondsSince(t0);
      const io::Env env = tb->ioEnv();
      execute(std::move(tb), env, out, t, run);
      break;
    }
    case Stack::kLustre: {
      std::unique_ptr<apps::LustreTestbed> tb;
      {
        SpanScope deploy(t, "deploy", run);
        apps::LustreTestbed::Options opt;
        opt.oss_nodes = spec.servers;
        opt.client_nodes = spec.clients;
        opt.seed = spec.seed;
        tb = std::make_unique<apps::LustreTestbed>(opt);
      }
      out.setup_s = secondsSince(t0);
      const io::Env env = tb->ioEnv(8, 8 << 20);
      execute(std::move(tb), env, out, t, run);
      break;
    }
    case Stack::kCeph: {
      std::unique_ptr<apps::CephTestbed> tb;
      {
        SpanScope deploy(t, "deploy", run);
        apps::CephTestbed::Options opt;
        opt.osd_nodes = spec.servers;
        opt.client_nodes = spec.clients;
        opt.seed = spec.seed;
        tb = std::make_unique<apps::CephTestbed>(opt);
      }
      out.setup_s = secondsSince(t0);
      const io::Env env = tb->ioEnv();
      execute(std::move(tb), env, out, t, run);
      break;
    }
  }
  out.run_s = secondsSince(t0) - out.setup_s;
  out.digest = digestOf(out.result);
  return out;
}

std::uint64_t digestOf(const apps::RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(r.procs));
  for (const apps::PhaseResult& p : r.phase) {
    mix(p.bytes);
    mix(p.ops);
    mix(p.first_start);
    mix(p.last_end);
    mix(p.latency.count());
    mix(static_cast<std::uint64_t>(p.latency.sum()));
    mix(p.latency.min());
    mix(p.latency.max());
    for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
      mix(p.latency.bucketCount(i));
    }
  }
  return h;
}

// --- workloads ---------------------------------------------------------------

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"ior-scale", true, 1 << 20},
      {"fieldio-meta", false, 1 << 20},
      {"posix-stack", false, 4096},
      {"stores-fdb", false, 1 << 20},
  };
  return all;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<SimSpec> roundSpecs(const Workload& w, std::uint64_t bench_seed,
                                bool traced) {
  const std::uint64_t a = 1 + bench_seed % kSeedPool;
  const std::uint64_t b = 1 + (bench_seed + kSeedPool / 2) % kSeedPool;
  std::vector<SimSpec> specs;
  auto daos = [](std::string name, App app, std::string api, int servers,
                 std::uint64_t transfer, std::uint64_t ops, bool dfuse,
                 std::uint64_t seed) {
    SimSpec s;
    s.name = std::move(name);
    s.stack = Stack::kDaos;
    s.app = app;
    s.api = std::move(api);
    s.servers = servers;
    s.transfer = transfer;
    s.ops = ops;
    s.dfuse = dfuse;
    s.seed = seed;
    return s;
  };
  if (w.name == "ior-scale") {
    for (int servers : {8, 16, 32, 64}) {
      for (std::uint64_t seed : {a, b}) {
        if (traced && seed != a) continue;
        specs.push_back(daos("ior-s" + std::to_string(servers), App::kIor,
                             "daos-array", servers, 1 << 20, 156, false,
                             seed));
      }
    }
  } else if (w.name == "fieldio-meta") {
    specs.push_back(daos("fieldio-s16", App::kFieldIo, "daos-array", 16,
                         1 << 20, 78, false, a));
  } else if (w.name == "posix-stack") {
    specs.push_back(
        daos("ior-dfuse-4k", App::kIor, "dfuse", 16, 4096, 400, true, a));
    specs.push_back(
        daos("ior-hdf5-1m", App::kIor, "hdf5", 16, 1 << 20, 78, true, a));
  } else if (w.name == "stores-fdb") {
    for (Stack stack : {Stack::kLustre, Stack::kCeph}) {
      SimSpec s;
      s.name = stack == Stack::kLustre ? "fdb-lustre" : "fdb-rados";
      s.stack = stack;
      s.app = App::kFdb;
      s.api = stack == Stack::kLustre ? "lustre-posix" : "rados";
      s.servers = 16;
      s.clients = 32;
      s.ppn = 16;
      s.ops = 39;
      s.seed = a;
      specs.push_back(s);
    }
  }
  return specs;
}

// --- gate --------------------------------------------------------------------

std::string gateCheck(const std::string& workload, const SimOutcome& o,
                      const std::vector<Reference>& refs) {
  const Counters& c = o.counters;
  if (c.past_clamps != 0) return "sim.past_clamps != 0";
  if (c.rpc_retries != 0) return "net.rpc_retries != 0";
  if (c.rpc_timeouts != 0) return "net.rpc_timeouts != 0";
  if (c.send_failures != 0) return "hw.send_failures != 0";
  if (c.degraded_reads != 0) return "daos.degraded_reads != 0";
  for (const Reference& r : refs) {
    if (workload != r.workload || o.spec.name != r.sim ||
        o.spec.seed != r.seed) {
      continue;
    }
    if (o.digest != r.digest) return "result digest differs from reference";
    if (o.result.write().ops != r.write_ops ||
        o.result.read().ops != r.read_ops) {
      return "op counts differ from reference";
    }
    return {};
  }
  return "no recorded reference";
}

const std::vector<Reference>& references() {
  static const std::vector<Reference> refs = {
#include "refs.inc"
  };
  return refs;
}

}  // namespace perfbench
