// Shared declarations of the daosim benchmark binary.
//
// The binary links the daosim library and calls only its public headers. A
// workload is a list of simulations (SimSpec); one "round" runs all of them
// once. Timed runs repeat rounds with no observer attached and report the
// median host cost per round; the traced run adds an obs::Observer, a probe
// process and host-clock spans, then times the per-layer ladder rungs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/runner.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Which testbed and application one simulation runs.
enum class App { kIor, kFieldIo, kFdb };
enum class Stack { kDaos, kLustre, kCeph };

struct SimSpec {
  std::string name;  // stable id within the workload, e.g. "ior-s16"
  Stack stack = Stack::kDaos;
  App app = App::kIor;
  std::string api;  // io::Backend registry name
  int servers = 16;
  int clients = 16;
  int ppn = 16;
  std::uint64_t transfer = 1 << 20;  // IOR transfer or field size
  std::uint64_t ops = 0;             // IOR ops or fields per process
  bool dfuse = false;                // start DFUSE daemons (DAOS only)
  std::uint64_t seed = 1;
};

/// Exact counts and simulated-time values read through public accessors
/// after a simulation ends. Busy values are summed simulated ns with the
/// matching capacity (units x horizon), so fractions add across sims.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t past_clamps = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t nvme_ops = 0;
  std::uint64_t rpc_requests = 0;
  std::uint64_t rpc_retries = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t value_puts = 0;
  std::uint64_t value_gets = 0;
  std::uint64_t extent_writes = 0;
  std::uint64_t extent_reads = 0;
  std::uint64_t vos_bytes = 0;
  std::uint64_t vos_objects = 0;
  double sim_s = 0;
  double nvme_busy = 0, nvme_cap = 0;
  double nic_busy = 0, nic_cap = 0;
  double xs_busy = 0, xs_cap = 0;
  double poolsvc_busy = 0, poolsvc_cap = 0;
  double dfuse_busy = 0, dfuse_cap = 0;
  double mds_busy = 0, mds_cap = 0;
  double osd_busy = 0, osd_cap = 0;
  daosim::obs::Histogram xs_wait;  // filled only while an observer is attached

  void add(const Counters& o);
};

/// One probe sample: host clock, kernel events processed, simulated time.
struct ProbeSample {
  double host_s = 0;
  std::uint64_t events = 0;
  daosim::sim::Time sim_ns = 0;
};

/// Host-clock span recorded around a call into a layer (traced run only).
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int run = 0;
};

/// Traced-run instruments: spans, probe samples and observer aggregates.
class Tracing {
 public:
  explicit Tracing(Clock::time_point epoch) : epoch_(epoch) {}

  double now() const { return secondsSince(epoch_); }
  /// Opens a span under the innermost open span; returns its index.
  int open(std::string name, int run);
  void close(int span);
  /// A span with known bounds (phases derived from probe samples).
  void add(std::string name, double start, double end, int parent, int run);
  const std::vector<Span>& spans() const { return spans_; }

  std::uint64_t cat_ns[daosim::obs::kCatCount] = {};  // over every traced sim
  std::vector<std::pair<int, ProbeSample>> probe;    // (run id, sample)
  double write_host_s = 0;
  double read_host_s = 0;
  std::string breakdown;  // Observer::writeBreakdown of every traced sim

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;  // open spans, innermost last
};

/// RAII span; inert when `t` is null.
class SpanScope {
 public:
  SpanScope(Tracing* t, std::string name, int run)
      : t_(t), id_(t ? t->open(std::move(name), run) : -1) {}
  ~SpanScope() {
    if (t_ != nullptr) t_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Tracing* t_;
  int id_;
};

struct SimOutcome {
  SimSpec spec;
  daosim::apps::RunResult result;
  Counters counters;
  std::uint64_t digest = 0;
  double setup_s = 0;  // host seconds in the testbed constructor
  double run_s = 0;    // host seconds from run start to teardown end
  std::uint64_t ops() const {
    return result.write().ops + result.read().ops;
  }
};

/// Runs one simulation. With `tracing` set, attaches an Observer with
/// tracing on, spawns the probe and records spans under run id `run`.
SimOutcome runSim(const SimSpec& spec, Tracing* tracing = nullptr,
                  int run = 0);

/// FNV-1a digest over a RunResult: per phase bytes, ops, first_start,
/// last_end and the full latency histogram.
std::uint64_t digestOf(const daosim::apps::RunResult& r);

// --- workloads -------------------------------------------------------------

/// A named workload; its simulations come from roundSpecs() and why it
/// exists is in README.md and BENCHMARK.json.
struct Workload {
  std::string name;
  bool parallel = false;           // sims run as ParallelRunner jobs
  std::uint64_t ladder_bytes = 0;  // op size the ladder rungs use
};

const std::vector<Workload>& workloads();
const Workload* findWorkload(const std::string& name);

/// Number of recorded simulation seeds; a benchmark seed maps onto them.
inline constexpr std::uint64_t kSeedPool = 8;

/// The simulations of one round. `traced` keeps one seed per point.
std::vector<SimSpec> roundSpecs(const Workload& w, std::uint64_t bench_seed,
                                bool traced);

// --- correctness gate --------------------------------------------------------

struct Reference {
  const char* workload;
  const char* sim;
  std::uint64_t seed;
  std::uint64_t digest;
  std::uint64_t write_ops;
  std::uint64_t read_ops;
};

/// Recorded references (refs.inc).
const std::vector<Reference>& references();

/// Empty when the outcome matches its reference and every fault counter is
/// zero; otherwise the reason it fails.
std::string gateCheck(const std::string& workload, const SimOutcome& o,
                      const std::vector<Reference>& refs);

// --- ladder ------------------------------------------------------------------

struct Rung {
  std::string layer;   // module name
  std::string metric;  // "<layer>.ladder.<metric>"
  double ns_per_op = 0;
  double events_per_op = 0;
};

/// Times every rung with the workload's op shapes; spans go to `tracing`.
std::vector<Rung> runLadder(const Workload& w, double budget_s,
                            Tracing* tracing);

}  // namespace perfbench
