// Per-thread memo of std::sin for the interactive trace's slow swell.
//
// Every interactive core evaluates sin(2*pi*(now + phase) / period) each
// tick. The shipped scenarios give all racks the same whole-second core
// phases and the same tick times, so one run passes the same argument to
// sin hundreds of times (DESIGN.md §7.7). A direct-mapped table keyed by
// the argument's bit pattern returns the stored result on a repeat.
//
// Invariant: every slot holds val == std::sin(key). The table starts
// zeroed, i.e. key = +0.0 (all-zero bits) and val = 0.0 == std::sin(+0.0),
// so a hit always returns exactly the bits std::sin would: the memo can
// never change a simulated value, only skip recomputing it. The table is
// thread_local and trivially initialised, so each worker thread of the
// sharded runtime owns its own copy (no locking, no allocation).
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace sprintcon::workload {

/// Slots in each thread's table (one-way, a power of two). Sized by
/// measured hit rate: 4096 slots hit >= 99.86% of the swell's calls on
/// every perfbench workload, 1024 slots only 91.6%.
inline constexpr std::size_t kSinMemoSlots = 4096;

/// Table slot of an argument's bit pattern (Fibonacci hashing: the top
/// bits of a multiplicative hash). Exposed so tests can force collisions.
constexpr std::size_t sin_memo_slot(std::uint64_t key_bits) noexcept {
  constexpr int kShift = 64 - std::countr_zero(kSinMemoSlots);
  return static_cast<std::size_t>((key_bits * 0x9E3779B97F4A7C15ull) >>
                                  kShift);
}

/// std::sin(x), bit for bit, computed at most once per distinct argument
/// per thread while the argument keeps its slot.
inline double memo_sin(double x) noexcept {
  struct Slot {
    std::uint64_t key;
    double val;
  };
  static thread_local Slot table[kSinMemoSlots];
  const auto key = std::bit_cast<std::uint64_t>(x);
  Slot& slot = table[sin_memo_slot(key)];
  if (slot.key != key) slot = {key, std::sin(x)};
  return slot.val;
}

}  // namespace sprintcon::workload
