// The swell's per-thread sin memo must return exactly std::sin's bits for
// every argument: hits, misses, evictions, special values, and each thread
// with its own table.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "workload/sin_memo.hpp"

namespace sprintcon::workload {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Count the arguments whose memo result differs from std::sin in any bit.
std::size_t mismatches(const std::vector<double>& args) {
  std::size_t bad = 0;
  for (const double x : args) {
    if (bits(memo_sin(x)) != bits(std::sin(x))) ++bad;
  }
  return bad;
}

// `count` distinct arguments that all map to `slot`, so each evicts the
// previous one.
std::vector<double> same_slot_args(std::size_t slot, std::size_t count) {
  std::vector<double> out;
  for (double x = 1.0; out.size() < count; x = std::nextafter(x, 2.0)) {
    if (sin_memo_slot(bits(x)) == slot) out.push_back(x);
  }
  return out;
}

std::vector<double> special_args() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  return {0.0,
          -0.0,
          kInf,
          -kInf,
          std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN(),
          std::bit_cast<double>(std::uint64_t{0x7ff8000000000123}),
          kDenorm,
          -kDenorm,
          kMin / 3.0,
          -kMin / 7.0,
          std::nextafter(kMin, 0.0),
          kMin,
          std::numeric_limits<double>::max(),
          -std::numeric_limits<double>::max(),
          std::numbers::pi,
          1e22};
}

// A mix of a million arguments: the swell's own (2 pi (t + phase) / 210 on
// a 0.1 s grid with whole-second phases), uniform draws over several
// magnitudes, and raw 64-bit patterns.
std::vector<double> mixed_args() {
  std::vector<double> out;
  out.reserve(1'000'000);
  for (int core = 0; core < 64; ++core) {
    double now_s = 0.0;
    for (int tick = 0; tick < 4000; ++tick) {
      now_s += 0.1;
      out.push_back(2.0 * std::numbers::pi * (now_s + 13.0 * (core / 4) +
                                              3.0 * (core % 4)) /
                    210.0);
    }
  }
  Rng rng(20240917);
  while (out.size() < 900'000) {
    out.push_back(rng.uniform(-1e3, 1e3));
    out.push_back(rng.uniform(-1.0, 1.0) * 1e-300);
    out.push_back(rng.uniform(-1e15, 1e15));
  }
  constexpr double k2To32 = 4294967296.0;
  while (out.size() < 1'000'000) {
    const auto hi = static_cast<std::uint64_t>(rng.uniform(0.0, k2To32));
    const auto lo = static_cast<std::uint64_t>(rng.uniform(0.0, k2To32));
    out.push_back(std::bit_cast<double>(hi << 32 | lo));
  }
  return out;
}

TEST(SinMemo, FreshTableReturnsSinOfSignedZero) {
  // A new thread starts from the seeded table (key +0.0, val 0.0).
  std::uint64_t pos = 1, neg = 1;
  std::thread([&] {
    pos = bits(memo_sin(0.0));
    neg = bits(memo_sin(-0.0));
  }).join();
  EXPECT_EQ(pos, bits(std::sin(0.0)));
  EXPECT_EQ(neg, bits(std::sin(-0.0)));
}

TEST(SinMemo, SpecialValuesMatchStdSin) {
  const std::vector<double> args = special_args();
  EXPECT_EQ(mismatches(args), 0u);  // misses
  EXPECT_EQ(mismatches(args), 0u);  // hits
}

TEST(SinMemo, CollidingArgumentsEvictEachOther) {
  const std::vector<double> args =
      same_slot_args(sin_memo_slot(bits(1.0)), 8);
  ASSERT_EQ(args.size(), 8u);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(mismatches(args), 0u);
    // Repeating one argument right after itself is a hit on the slot the
    // previous call just filled.
    for (const double x : args) {
      EXPECT_EQ(bits(memo_sin(x)), bits(std::sin(x)));
      EXPECT_EQ(bits(memo_sin(x)), bits(std::sin(x)));
    }
  }
}

TEST(SinMemo, AMillionArgumentsMatchStdSinBitForBit) {
  const std::vector<double> args = mixed_args();
  ASSERT_EQ(args.size(), 1'000'000u);
  EXPECT_EQ(mismatches(args), 0u);
  EXPECT_EQ(mismatches(args), 0u);
}

TEST(SinMemo, EachThreadHasItsOwnTable) {
  // Two threads evaluate the same colliding arguments in opposite orders.
  // A table shared between them would be a data race (ThreadSanitizer runs
  // this case) that could tear a slot between its key and its value.
  const std::vector<double> args =
      same_slot_args(sin_memo_slot(bits(0.5)), 64);
  std::vector<double> reversed(args.rbegin(), args.rend());
  std::size_t bad[2] = {1, 1};
  std::thread a([&] {
    std::size_t n = 0;
    for (int round = 0; round < 200; ++round) n += mismatches(args);
    bad[0] = n;
  });
  std::thread b([&] {
    std::size_t n = 0;
    for (int round = 0; round < 200; ++round) n += mismatches(reversed);
    bad[1] = n;
  });
  a.join();
  b.join();
  EXPECT_EQ(bad[0], 0u);
  EXPECT_EQ(bad[1], 0u);
}

}  // namespace
}  // namespace sprintcon::workload
