// Deterministic pseudo-random number generation.
//
// Every stochastic element of the simulation (trace noise, workload phase
// jitter, measurement error) draws from an Rng seeded explicitly by the
// experiment configuration, so all figures in EXPERIMENTS.md are exactly
// reproducible. The generator is xoshiro256** (public-domain algorithm by
// Blackman & Vigna): fast, high quality, and trivially seedable via
// SplitMix64 so that nearby seeds give uncorrelated streams.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace sprintcon {

/// Deterministic random number generator (xoshiro256**).
///
/// Satisfies UniformRandomBitGenerator so it can also feed <random>
/// distributions, but the common draws used by the simulator are provided
/// directly as members. The per-tick draws are defined inline below so
/// they compile into the workload kernels that call them (DESIGN.md §7.5).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed via SplitMix64 expansion of a single 64-bit value.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit value.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 random mantissa bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Integer uniform in [0, n) (n > 0). Uses rejection to avoid modulo bias.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Standard normal via Marsaglia polar method (cached spare).
  double normal() noexcept {
    if (has_spare_normal_) {
      has_spare_normal_ = false;
      return spare_normal_;
    }
    double u = 0.0, v = 0.0, s = 0.0;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spare_normal_ = v * mul;
    has_spare_normal_ = true;
    return u * mul;
  }

  /// Normal with mean/stddev.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Exponential with the given rate (lambda > 0).
  double exponential(double rate) noexcept;

  /// Bernoulli draw with probability p of returning true.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Split off an independent child stream; deterministic in the parent
  /// state. Useful to give each server / workload its own stream.
  Rng split() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace sprintcon
