// daosim benchmark binary (see ../README.md).
//
//   daosim_perfbench --workload W --seed N --seconds S --trace 0|1
//                    [--out DIR] [--commit ID]
//   daosim_perfbench --record      print references for refs.inc
//   daosim_perfbench --self-check  prove the gate reports perturbations
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (end-to-end with --trace 0, per-layer with --trace 1).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "perfbench.h"
#include "sim/parallel.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace sim = daosim::sim;
namespace obs = daosim::obs;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out = ".bench_build/out";
  std::string commit = "unknown";
  bool record = false;
  bool self_check = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

volatile std::uint64_t g_cal_sink = 0;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

int workerCount(const Workload& w) {
  return w.parallel ? std::min(4, nproc()) : 1;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- gate tally --------------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void fail(const SimOutcome& o, const std::string& why) {
    failed += o.ops();
    failures.push_back(o.spec.name + " seed " + std::to_string(o.spec.seed) +
                       ": " + why);
  }
  void check(const std::string& workload, const SimOutcome& o,
             const std::vector<Reference>& refs) {
    attempted += o.ops();
    const std::string why = gateCheck(workload, o, refs);
    if (!why.empty()) fail(o, why);
  }
};

// --- rounds ------------------------------------------------------------------

/// Host-speed calibration: a fixed workload independent of daosim (string-
/// keyed map inserts and lookups plus a binary heap of (time, seq) pairs,
/// about 16 MB) timed between the segments of a timed round (see runRound).
/// On a shared host the effective CPU speed drifts by up to 2x within a
/// minute and the simulations slow down with it; timed metrics are
/// therefore scaled by kCalReferenceS over the adjacent calibration times,
/// which cancels the drift but not a change in daosim's own cost.
double calibrate() {
  const Clock::time_point t0 = Clock::now();
  std::map<std::string, std::uint64_t> m;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> heap;
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) {
    m["r" + std::to_string(next() % 100000) + ".f" + std::to_string(i)] = i;
    heap.emplace_back(next() % 1000000, i);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (i % 2) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      sink += heap.back().first;
      heap.pop_back();
    }
  }
  for (int i = 0; i < 100000; ++i) {
    auto it = m.lower_bound("r" + std::to_string(next() % 100000));
    if (it != m.end()) sink += it->second;
  }
  g_cal_sink = g_cal_sink + sink;
  return secondsSince(t0);
}

/// Calibration seconds on the reference host, a 4-core 2.1 GHz Xeon VM
/// (median over quiet periods, rounded).
constexpr double kCalReferenceS = 0.15;

struct Round {
  std::vector<SimOutcome> sims;
  double cpu_s = 0;    // process CPU seconds in the simulations
  double setup_s = 0;  // summed testbed constructor seconds
  double wall_s = 0;   // elapsed minus set-up per worker
  double job_s = 0;    // summed per-simulation run seconds
  double cal_s = 0;    // mean calibration seconds (0 when uncalibrated)
  // The same three timings, each segment scaled by kCalReferenceS over the
  // mean of the calibrations just before and after it.
  double scaled_cpu_s = 0;
  double scaled_setup_s = 0;
  double scaled_wall_s = 0;
};

/// Runs every simulation once. A parallel pool runs them as one segment; a
/// serial one runs one simulation per segment, so with `calibrated` the
/// calibration brackets each simulation and tracks host-speed drift closely.
Round runRound(sim::ParallelRunner& pool, const std::vector<SimSpec>& specs,
               bool calibrated) {
  Round r;
  const std::size_t per_segment = pool.jobs() > 1 ? specs.size() : 1;
  double cal_before = calibrated ? calibrate() : 0;
  r.cal_s = cal_before;
  int cals = calibrated ? 1 : 0;
  for (std::size_t first = 0; first < specs.size(); first += per_segment) {
    const std::size_t n = std::min(per_segment, specs.size() - first);
    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();
    std::vector<SimOutcome> outs = pool.map(n, [&specs, first](std::size_t i) {
      return runSim(specs[first + i]);
    });
    const double elapsed = secondsSince(t0);
    const double cpu = cpuSeconds() - cpu0;
    double setup = 0;
    for (SimOutcome& o : outs) {
      setup += o.setup_s;
      r.job_s += o.run_s;
      r.sims.push_back(std::move(o));
    }
    const double wall = elapsed - setup / pool.jobs();
    double scale = 1;
    if (calibrated) {
      const double cal_after = calibrate();
      scale = kCalReferenceS / ((cal_before + cal_after) / 2);
      r.cal_s += cal_after;
      cal_before = cal_after;
      ++cals;
    }
    r.cpu_s += cpu;
    r.setup_s += setup;
    r.wall_s += wall;
    r.scaled_cpu_s += cpu * scale;
    r.scaled_setup_s += setup * scale;
    r.scaled_wall_s += wall * scale;
  }
  if (cals > 0) r.cal_s /= cals;
  return r;
}

/// Simulated bandwidth beside the paper's value for each pinned point.
void printFidelity(const std::vector<SimOutcome>& sims) {
  struct Pin {
    const char* sim;
    const char* what;
    double paper_write;  // GiB/s, 0 = not pinned
    double paper_read;
  };
  static const Pin pins[] = {
      {"ior-s16", "IOR daos-array at 16 servers", 60, 90},
      {"ior-hdf5-1m", "HDF5 on DFUSE+IL at 16 servers", 35, 35},
      {"fdb-rados", "fdb-hammer on librados", 40, 70},
      {"fdb-lustre", "fdb-hammer on Lustre", 0, 40},
  };
  bool any = false;
  for (const Pin& p : pins) {
    double w = 0;
    double r = 0;
    int n = 0;
    for (const SimOutcome& o : sims) {
      if (o.spec.name != p.sim) continue;
      w += o.result.write().gibps();
      r += o.result.read().gibps();
      ++n;
    }
    if (n == 0) continue;
    any = true;
    for (int phase = 0; phase < 2; ++phase) {
      const double paper = phase == 0 ? p.paper_write : p.paper_read;
      if (paper == 0) continue;
      const double simulated = (phase == 0 ? w : r) / n;
      std::printf("fidelity: %s %s %.2f GiB/s vs paper ~%.0f (%+.1f%%)\n",
                  p.what, phase == 0 ? "write" : "read", simulated, paper,
                  100.0 * (simulated / paper - 1.0));
    }
  }
  if (any) {
    std::printf(
        "fidelity: context only, not gated; the model is otherwise "
        "unvalidated\n");
  }
}

// --- output ------------------------------------------------------------------

std::string manifestJson(const Workload& w, const Args& a) {
  std::ostringstream os;
  os << "{\"workload\": \"" << w.name << "\", \"seed\": " << a.seed
     << ", \"trace\": " << a.trace << ", \"seconds\": " << num(a.seconds)
     << ", \"nproc\": " << nproc() << ", \"workers\": " << workerCount(w)
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"compiler\": \"" << jsonEscape(__VERSION__)
     << "\", \"commit\": \"" << jsonEscape(a.commit) << "\"}";
  return os.str();
}

std::string resultJson(const Tally& tally, const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
       << num(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string stem(const Workload& w, const Args& a) {
  return a.out + "/" + w.name + "-seed" + std::to_string(a.seed);
}

/// Prints failures, the manifest and the result line (last), and keeps a
/// copy of manifest + result under --out.
int emit(const Workload& w, const Args& a, const Tally& tally,
         const std::vector<Metric>& ms) {
  for (const std::string& f : tally.failures) {
    std::printf("gate: FAILED %s\n", f.c_str());
  }
  const std::string manifest = manifestJson(w, a);
  const std::string result = resultJson(tally, ms);
  std::filesystem::create_directories(a.out);
  std::ofstream(stem(w, a) + "-trace" + std::to_string(a.trace) +
                "-result.json")
      << "{\"manifest\": " << manifest << ", \"result\": " << result
      << "}\n";
  std::printf("manifest: %s\n%s\n", manifest.c_str(), result.c_str());
  return 0;
}

// --- modes -------------------------------------------------------------------

constexpr int kMinTimedRounds = 3;

int timed(const Workload& w, const Args& a) {
  const std::vector<Reference>& refs = references();
  const std::vector<SimSpec> specs = roundSpecs(w, a.seed, false);
  sim::ParallelRunner pool(workerCount(w));
  Tally tally;
  std::vector<double> wall, cpu, setup;          // calibrated
  std::vector<double> raw_wall, raw_cpu, raw_setup;
  const Clock::time_point start = Clock::now();
  for (int round = 0;; ++round) {
    const Round r = runRound(pool, specs, true);
    for (const SimOutcome& o : r.sims) tally.check(w.name, o, refs);
    std::printf(
        "round %d: wall_s %.6f cpu_s %.6f setup_s %.6f calibration_s %.6f "
        "scaled wall_s %.6f cpu_s %.6f setup_s %.6f%s\n",
        round, r.wall_s, r.cpu_s, r.setup_s, r.cal_s, r.scaled_wall_s,
        r.scaled_cpu_s, r.scaled_setup_s,
        round == 0 ? " (warm-up, not timed)" : "");
    if (round == 0) {
      printFidelity(r.sims);
    } else {
      wall.push_back(r.scaled_wall_s);
      cpu.push_back(r.scaled_cpu_s);
      setup.push_back(r.scaled_setup_s);
      raw_wall.push_back(r.wall_s);
      raw_cpu.push_back(r.cpu_s);
      raw_setup.push_back(r.setup_s);
    }
    if (static_cast<int>(wall.size()) >= kMinTimedRounds &&
        secondsSince(start) >= a.seconds) {
      break;
    }
  }
  std::printf(
      "rounds: %zu timed after one warm-up, %d worker(s); uncalibrated "
      "medians wall_s %.6f cpu_s %.6f setup_s %.6f\n",
      wall.size(), pool.jobs(), median(raw_wall), median(raw_cpu),
      median(raw_setup));
  return emit(w, a, tally,
              {{"wall_s", "s", median(wall)},
               {"cpu_s", "s", median(cpu)},
               {"setup_s", "s", median(setup)},
               {"peak_rss_mib", "MiB", peakRssMib()}});
}

double frac(double busy, double cap) { return cap > 0 ? busy / cap : 0.0; }

/// Rungs each rung is built on: (metric, calls per op). "events" stands for
/// the kernel cost of the rung's own events (events/op x sim ns/event).
using Below = std::map<std::string, std::vector<std::pair<std::string, double>>>;

Below ladderBelow(std::uint64_t bytes) {
  return {
      {"hw.ladder.ns_per_send_1m", {{"events", 1}}},
      {"hw.ladder.ns_per_send_4k", {{"events", 1}}},
      {"hw.ladder.ns_per_nvme_op", {{"events", 1}}},
      {"net.ladder.ns_per_roundtrip",
       {{bytes >= (1u << 20) ? "hw.ladder.ns_per_send_1m"
                             : "hw.ladder.ns_per_send_4k",
         2}}},
      {"daos.ladder.ns_per_engine_op", {{"events", 1}}},
      {"daos.ladder.ns_per_array_op",
       {{"net.ladder.ns_per_roundtrip", 1},
        {"daos.ladder.ns_per_engine_op", 1}}},
      {"daos.ladder.ns_per_kv_op",
       {{"net.ladder.ns_per_roundtrip", 1},
        {"daos.ladder.ns_per_engine_op", 1}}},
      {"dfs.ladder.ns_per_op", {{"daos.ladder.ns_per_array_op", 1}}},
      {"posix.ladder.ns_per_dfuse_op", {{"dfs.ladder.ns_per_op", 1}}},
      {"posix.ladder.ns_per_il_op", {{"dfs.ladder.ns_per_op", 1}}},
      {"hdf5.ladder.ns_per_op", {{"posix.ladder.ns_per_il_op", 1}}},
      {"lustre.ladder.ns_per_op", {{"net.ladder.ns_per_roundtrip", 1}}},
      {"rados.ladder.ns_per_op", {{"net.ladder.ns_per_roundtrip", 1}}},
  };
}

/// Ladder table with self cost = rung minus the rungs it is built on.
std::string ladderTable(const std::vector<Rung>& rungs, std::uint64_t bytes) {
  std::map<std::string, const Rung*> by;
  for (const Rung& r : rungs) by[r.metric] = &r;
  const double ns_per_event = by.at("sim.ladder.ns_per_event")->ns_per_op;
  const Below table = ladderBelow(bytes);
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof line, "%-36s %12s %10s %12s\n", "rung",
                "ns/op", "events/op", "self ns/op");
  os << line;
  for (const Rung& r : rungs) {
    double below = 0;
    const auto it = table.find(r.metric);
    if (it != table.end()) {
      for (const auto& [metric, calls] : it->second) {
        below += calls * (metric == "events" ? r.events_per_op * ns_per_event
                                             : by.at(metric)->ns_per_op);
      }
    }
    std::snprintf(line, sizeof line, "%-36s %12.1f %10.2f %12.1f\n",
                  r.metric.c_str(), r.ns_per_op, r.events_per_op,
                  r.ns_per_op - below);
    os << line;
  }
  return os.str();
}

void writeSpans(const std::string& path, const Tracing& t) {
  std::ofstream f(path);
  f << "{\"spans\": [";
  const std::vector<Span>& spans = t.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << (i ? ",\n " : "\n ") << "{\"id\": " << i << ", \"name\": \""
      << jsonEscape(s.name) << "\", \"start\": " << num(s.start)
      << ", \"end\": " << num(s.end) << ", \"parent\": " << s.parent
      << ", \"run\": " << s.run << "}";
  }
  f << "\n], \"probe\": [";
  for (std::size_t i = 0; i < t.probe.size(); ++i) {
    const auto& [run, p] = t.probe[i];
    f << (i ? ",\n " : "\n ") << "{\"run\": " << run
      << ", \"host_s\": " << num(p.host_s) << ", \"events\": " << p.events
      << ", \"sim_ns\": " << p.sim_ns << "}";
  }
  f << "\n]}\n";
}

int traced(const Workload& w, const Args& a) {
  const std::vector<Reference>& refs = references();
  Tally tally;
  Tracing tracing(Clock::now());

  // One untraced round at the workload's worker count: parallel efficiency.
  sim::ParallelRunner pool(workerCount(w));
  const Round par = runRound(pool, roundSpecs(w, a.seed, false), false);
  for (const SimOutcome& o : par.sims) tally.check(w.name, o, refs);
  const double efficiency = par.job_s / (par.wall_s * pool.jobs());

  // Untraced single-threaded baseline, one seed per point (a serial
  // workload's round already is one).
  std::vector<SimOutcome> base;
  const std::vector<SimSpec> one = roundSpecs(w, a.seed, true);
  if (w.parallel) {
    for (const SimSpec& s : one) {
      base.push_back(runSim(s));
      tally.check(w.name, base.back(), refs);
    }
  } else {
    base = par.sims;
  }

  // Traced pass: observer + probe + spans; digests must equal the baseline.
  std::vector<SimOutcome> traced_sims;
  for (std::size_t i = 0; i < one.size(); ++i) {
    traced_sims.push_back(runSim(one[i], &tracing, static_cast<int>(i) + 1));
    const SimOutcome& o = traced_sims.back();
    tally.check(w.name, o, refs);
    if (o.digest != base[i].digest) {
      tally.fail(o, "traced digest differs from the untraced run");
    }
  }
  printFidelity(base);

  const std::vector<Rung> rungs =
      runLadder(w, std::max(2.0, a.seconds / 2), &tracing);

  Counters c;
  double base_s = 0;
  for (const SimOutcome& o : base) {
    c.add(o.counters);
    base_s += o.run_s;
  }
  Counters ct;
  double traced_s = 0;
  for (const SimOutcome& o : traced_sims) {
    ct.add(o.counters);
    traced_s += o.run_s;
  }
  const auto events = static_cast<double>(c.events);
  std::vector<Metric> ms = {
      {"sim.events", "count", events},
      {"sim.ns_per_event", "ns", base_s * 1e9 / std::max(events, 1.0)},
      {"sim.parallel_efficiency", "ratio", efficiency},
      {"sim.past_clamps", "count", static_cast<double>(c.past_clamps)},
      {"hw.messages", "count", static_cast<double>(c.messages)},
      {"hw.bytes_sent", "bytes", static_cast<double>(c.bytes_sent)},
      {"hw.nvme_ops", "count", static_cast<double>(c.nvme_ops)},
      {"hw.nvme_busy_frac", "ratio", frac(c.nvme_busy, c.nvme_cap)},
      {"hw.nic_busy_frac", "ratio", frac(c.nic_busy, c.nic_cap)},
      {"hw.send_failures", "count", static_cast<double>(c.send_failures)},
      {"net.rpc_requests", "count", static_cast<double>(c.rpc_requests)},
      {"net.events_per_rpc", "events/rpc",
       events / std::max(1.0, static_cast<double>(c.rpc_requests))},
      {"net.rpc_retries", "count", static_cast<double>(c.rpc_retries)},
      {"net.rpc_timeouts", "count", static_cast<double>(c.rpc_timeouts)},
      {"vos.value_puts", "count", static_cast<double>(c.value_puts)},
      {"vos.value_gets", "count", static_cast<double>(c.value_gets)},
      {"vos.extent_writes", "count", static_cast<double>(c.extent_writes)},
      {"vos.extent_reads", "count", static_cast<double>(c.extent_reads)},
      {"vos.bytes_stored", "bytes", static_cast<double>(c.vos_bytes)},
      {"vos.objects", "count", static_cast<double>(c.vos_objects)},
      {"daos.xstream_busy_frac", "ratio", frac(c.xs_busy, c.xs_cap)},
      {"daos.xstream_wait_p99_us", "us", ct.xs_wait.percentile(99) / 1e3},
      {"daos.pool_service_busy_frac", "ratio",
       frac(c.poolsvc_busy, c.poolsvc_cap)},
      {"daos.degraded_reads", "count", static_cast<double>(c.degraded_reads)},
      {"posix.dfuse_busy_frac", "ratio", frac(c.dfuse_busy, c.dfuse_cap)},
      {"lustre.mds_busy_frac", "ratio", frac(c.mds_busy, c.mds_cap)},
      {"rados.osd_thread_busy_frac", "ratio", frac(c.osd_busy, c.osd_cap)},
      {"apps.sim_s", "s", c.sim_s},
      {"apps.write_host_s", "s", tracing.write_host_s},
      {"apps.read_host_s", "s", tracing.read_host_s},
  };
  double cat_total = 0;
  for (int i = 0; i < obs::kCatCount; ++i) {
    cat_total += static_cast<double>(tracing.cat_ns[i]);
  }
  for (int i = 0; i < obs::kCatCount; ++i) {
    const auto cat = static_cast<obs::Cat>(i);
    if (cat == obs::Cat::kOther) continue;
    ms.push_back({std::string("obs.cat.") + obs::catName(cat) + "_share",
                  "ratio",
                  static_cast<double>(tracing.cat_ns[i]) /
                      std::max(cat_total, 1.0)});
  }
  ms.push_back({"obs.trace_overhead_frac", "ratio", traced_s / base_s - 1});
  for (const Rung& r : rungs) {
    ms.push_back({r.metric, "ns", r.ns_per_op});
    const bool synchronous = r.layer == "vos" || r.layer == "placement";
    if (r.layer != "sim" && !synchronous) {
      std::string name = r.metric;
      name.replace(name.find(".ns_per_"), 8, ".events_per_");
      ms.push_back({name, "events/op", r.events_per_op});
    }
  }

  const std::string table = ladderTable(rungs, w.ladder_bytes);
  std::printf("%s", table.c_str());
  std::filesystem::create_directories(a.out);
  writeSpans(stem(w, a) + "-spans.json", tracing);
  std::ofstream(stem(w, a) + "-breakdown.txt") << tracing.breakdown;
  std::ofstream(stem(w, a) + "-ladder.txt") << table;
  std::printf("traced: %zu spans, breakdown and ladder written to %s-*\n",
              tracing.spans().size(), stem(w, a).c_str());
  return emit(w, a, tally, ms);
}

/// Prints the reference table (refs.inc) for every workload and seed.
int record() {
  std::vector<std::pair<std::string, SimSpec>> jobs;
  for (const Workload& w : workloads()) {
    for (std::uint64_t s = 0; s < kSeedPool; ++s) {
      for (const SimSpec& spec : roundSpecs(w, s, true)) {
        jobs.emplace_back(w.name, spec);
      }
    }
  }
  sim::ParallelRunner pool(std::min(4, nproc()));
  const std::vector<SimOutcome> outs = pool.map(
      jobs.size(), [&jobs](std::size_t i) { return runSim(jobs[i].second); });
  int dirty = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const SimOutcome& o = outs[i];
    const Counters& c = o.counters;
    if (c.past_clamps + c.rpc_retries + c.rpc_timeouts + c.send_failures +
            c.degraded_reads !=
        0) {
      std::fprintf(stderr, "record: %s seed %llu has fault counters\n",
                   o.spec.name.c_str(),
                   static_cast<unsigned long long>(o.spec.seed));
      ++dirty;
    }
    std::printf("{\"%s\", \"%s\", %llu, 0x%016llxULL, %llu, %llu},\n",
                jobs[i].first.c_str(), o.spec.name.c_str(),
                static_cast<unsigned long long>(o.spec.seed),
                static_cast<unsigned long long>(o.digest),
                static_cast<unsigned long long>(o.result.write().ops),
                static_cast<unsigned long long>(o.result.read().ops));
  }
  return dirty == 0 ? 0 : 1;
}

/// Runs one recorded simulation and shows that the gate passes it as is but
/// counts its ops as failed under a perturbed digest, a perturbed op count
/// or a nonzero fault counter.
int selfCheck() {
  const Workload& w = *findWorkload("stores-fdb");
  const SimSpec spec = roundSpecs(w, 0, true).back();
  const SimOutcome o = runSim(spec);
  std::vector<Reference> refs = references();
  Reference* ref = nullptr;
  for (Reference& r : refs) {
    if (w.name == r.workload && spec.name == r.sim && spec.seed == r.seed) {
      ref = &r;
    }
  }
  if (ref == nullptr) {
    std::printf("self-check: no reference for %s\n", spec.name.c_str());
    return 1;
  }
  int bad = 0;
  auto expect = [&](const char* what, const std::vector<Reference>& table,
                    const SimOutcome& out, bool pass) {
    Tally t;
    t.check(w.name, out, table);
    const bool ok = pass ? t.failed == 0 : t.failed == out.ops();
    std::printf("self-check: %-26s attempted %llu failed %llu  %s\n", what,
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed),
                ok ? "ok" : "WRONG");
    bad += ok ? 0 : 1;
  };
  expect("recorded reference", refs, o, true);
  const Reference saved = *ref;
  ref->digest ^= 1;
  expect("perturbed digest", refs, o, false);
  *ref = saved;
  ref->read_ops += 1;
  expect("perturbed read op count", refs, o, false);
  *ref = saved;
  SimOutcome retried = o;
  retried.counters.rpc_retries = 1;
  expect("nonzero rpc retries", refs, retried, false);
  std::printf("self-check: %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = std::stoi(value());
    } else if (k == "--out") {
      a.out = value();
    } else if (k == "--commit") {
      a.commit = value();
    } else if (k == "--record") {
      a.record = true;
    } else if (k == "--self-check") {
      a.self_check = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.trace != 0 && a.trace != 1) {
    throw std::invalid_argument("--trace takes 0 or 1");
  }
  if (!(a.seconds > 0 && a.seconds <= 120)) {
    throw std::invalid_argument("--seconds must be in (0, 120]");
  }
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args a = parse(argc, argv);
    if (a.record) return record();
    if (a.self_check) return selfCheck();
    const Workload* w = findWorkload(a.workload);
    if (w == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'; one of:",
                   a.workload.c_str());
      for (const Workload& x : workloads()) {
        std::fprintf(stderr, " %s", x.name.c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    return a.trace ? traced(*w, a) : timed(*w, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "daosim_perfbench: %s\n", e.what());
    return 2;
  }
}
