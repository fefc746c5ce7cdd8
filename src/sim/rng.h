// Deterministic pseudo-random number generation for the simulator.
//
// xoshiro256++ seeded via splitmix64. All stochastic behaviour in the
// simulator derives from one of these generators so that every run is
// reproducible from a single seed.
#pragma once

#include <cassert>
#include <cstdint>

namespace daosim::sim {

/// splitmix64 step; also used as a general-purpose 64-bit mixer/hash.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines two 64-bit values into one hash (order-sensitive).
constexpr std::uint64_t hashCombine(std::uint64_t a, std::uint64_t b) noexcept {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x6a09e667f3bcc908ULL) noexcept {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x = mix64(x);
      s = x;
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) noexcept {
    assert(lo <= hi);
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) return (*this)();  // full range
    return lo + (*this)() % span;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace daosim::sim
