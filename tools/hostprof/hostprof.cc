// Host-time sampling profiler, loaded into any program with LD_PRELOAD.
//
// Arms ITIMER_PROF (process CPU time) at load; each SIGPROF records the
// interrupted PC and the backtrace() callers into a fixed static buffer.
// At exit the samples and /proc/self/maps are written to $HOSTPROF_OUT
// (default hostprof.out) for hostprof.py to symbolize:
//
//   hostprof 1
//   interval_us <n>
//   samples <kept> dropped <n>
//   S <pc> <caller> <caller> ...      (hex, innermost first)
//   maps
//   <verbatim /proc/self/maps>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr int kIntervalUs = 1000;
constexpr int kMaxDepth = 64;
constexpr std::uint32_t kMaxSamples = 1 << 15;

struct Sample {
  std::uint32_t depth;  // frames used, including the PC
  void* frames[kMaxDepth];
};

Sample g_samples[kMaxSamples];
std::atomic<std::uint32_t> g_next{0};
std::atomic<std::uint64_t> g_dropped{0};
pid_t g_owner = 0;  // forked children must not rewrite the output

void* interruptedPc(void* uc) {
  const auto* ctx = static_cast<const ucontext_t*>(uc);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(ctx->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(ctx->uc_mcontext.pc);
#else
  (void)ctx;
  return nullptr;
#endif
}

void onSigprof(int, siginfo_t*, void* uc) {
  const int saved_errno = errno;
  const std::uint32_t idx = g_next.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kMaxSamples) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  Sample& s = g_samples[idx];
  void* pc = interruptedPc(uc);
  void* stack[kMaxDepth + 4];
  const int n = backtrace(stack, kMaxDepth + 4);
  // The unwinder reports the handler, the signal trampoline and then the
  // interrupted PC itself; keep what lies below the PC.
  int first = 2;
  for (int i = 0; i < n; ++i) {
    if (stack[i] == pc) {
      first = i + 1;
      break;
    }
  }
  std::uint32_t depth = 0;
  s.frames[depth++] = pc;
  for (int i = first; i < n && depth < kMaxDepth; ++i) {
    s.frames[depth++] = stack[i];
  }
  s.depth = depth;
  errno = saved_errno;
}

void setTimer(int us) {
  itimerval tv{};
  tv.it_interval.tv_usec = us;
  tv.it_value.tv_usec = us;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

__attribute__((constructor)) void hostprofStart() {
  // Children started by the profiled program are not profiled; each would
  // otherwise truncate the output at its own exit.
  unsetenv("LD_PRELOAD");
  g_owner = getpid();
  // The first backtrace() loads the unwinder and allocates; do it here,
  // not inside the signal handler.
  void* warm[4];
  (void)backtrace(warm, 4);
  struct sigaction sa {};
  sa.sa_sigaction = onSigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  setTimer(kIntervalUs);
}

__attribute__((destructor)) void hostprofStop() {
  if (getpid() != g_owner) return;
  setTimer(0);
  const char* path = std::getenv("HOSTPROF_OUT");
  std::FILE* out = std::fopen(path != nullptr ? path : "hostprof.out", "w");
  if (out == nullptr) {
    std::perror("hostprof: cannot open output");
    return;
  }
  const std::uint32_t kept =
      std::min(g_next.load(std::memory_order_relaxed), kMaxSamples);
  std::fprintf(out, "hostprof 1\ninterval_us %d\nsamples %u dropped %llu\n",
               kIntervalUs, kept,
               static_cast<unsigned long long>(g_dropped.load()));
  for (std::uint32_t i = 0; i < kept; ++i) {
    const Sample& s = g_samples[i];
    std::fputc('S', out);
    for (std::uint32_t f = 0; f < s.depth; ++f) {
      std::fprintf(out, " %lx", reinterpret_cast<unsigned long>(s.frames[f]));
    }
    std::fputc('\n', out);
  }
  std::fputs("maps\n", out);
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, maps)) > 0) {
      std::fwrite(buf, 1, n, out);
    }
    std::fclose(maps);
  }
  std::fclose(out);
}

}  // namespace
