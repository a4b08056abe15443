#include "common/rng.hpp"

#include <cmath>

namespace sprintcon {

namespace {

// SplitMix64: expands a single seed into well-distributed state words.
std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  if (n == 0) return 0;
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

double Rng::exponential(double rate) noexcept {
  // Inverse-CDF; uniform() < 1 so the log argument is strictly positive.
  return -std::log(1.0 - uniform()) / rate;
}

Rng Rng::split() noexcept {
  return Rng((*this)() ^ 0xa5a5a5a5a5a5a5a5ULL);
}

}  // namespace sprintcon
