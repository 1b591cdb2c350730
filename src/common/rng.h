// Deterministic, fast pseudo-random number generation used across the
// library. Every stochastic component (network synthesis, trajectory
// simulation, node2vec, neural initialisation, batching) takes an explicit
// seed so that experiments reproduce bit-for-bit.
#pragma once

#include <cmath>
#include <cstdint>

namespace pathrank {

/// xoshiro256** by Blackman & Vigna, seeded through SplitMix64.
///
/// Not cryptographically secure; chosen for speed and excellent statistical
/// quality in simulation workloads.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  /// Re-seeds the generator deterministically from a single 64-bit value.
  void Seed(uint64_t seed) {
    // SplitMix64 expansion of the seed into the full 256-bit state.
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  /// Returns the next raw 64-bit value.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    // Lemire's nearly-divisionless method.
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      uint64_t t = -bound % bound;
      while (l < t) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Standard normal via Box-Muller (cached second value).
  double NextGaussian() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = 0.0;
    do {
      u1 = NextDouble();
    } while (u1 <= 1e-300);
    const double u2 = NextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    cached_ = r * std::sin(theta);
    has_cached_ = true;
    return r * std::cos(theta);
  }

  /// Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// Bernoulli draw with success probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void Shuffle(Container& c) {
    for (size_t i = c.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(NextBounded(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// Derives an independent child generator; useful for giving each worker
  /// or component its own deterministic stream.
  Rng Fork() { return Rng(NextU64() ^ 0xA3EC4E6C9A2B15D7ULL); }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4] = {};
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace pathrank
