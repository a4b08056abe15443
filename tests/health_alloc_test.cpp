// HealthMonitor::check() must not touch the heap once warmed up: it reads
// one number per rule straight from the metrics registry instead of
// copying the registry into a MetricsSnapshot. Nor may a warm
// MpcPowerController::step, whose class-compact solve keeps its partition
// and buffers in controller-owned scratch. This binary replaces the
// global operator new to count allocations, so it stands alone (a
// replacement is program-wide).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "control/mpc.hpp"
#include "obs/health.hpp"
#include "obs/sink.hpp"
#include "scenario/rig.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sprintcon::obs {
namespace {

/// Heap allocations made by `fn`.
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(HealthAlloc, CountingIsLive) {
  EXPECT_GT(allocations_in([] { delete new int(7); }), 0u);
}

TEST(HealthAlloc, WarmCheckOfEverySignalKindAllocatesNothing) {
  ObsSink sink;
  HealthMonitor monitor(&sink);
  monitor.add_rule({.name = "gauge-above",
                    .kind = HealthRuleKind::kAbove,
                    .signal = HealthSignal::kGauge,
                    .metric = "temp",
                    .threshold = 90.0});
  monitor.add_rule({.name = "gauge-stuck",
                    .kind = HealthRuleKind::kStuck,
                    .signal = HealthSignal::kGauge,
                    .metric = "meas",
                    .reference = "truth",
                    .threshold = 0.5});
  monitor.add_rule({.name = "counter-rate",
                    .kind = HealthRuleKind::kRateAbove,
                    .signal = HealthSignal::kCounter,
                    .metric = "errors",
                    .threshold = 10.0});
  monitor.add_rule({.name = "window-p99",
                    .kind = HealthRuleKind::kAbove,
                    .signal = HealthSignal::kWindowedP99,
                    .metric = "lat.window",
                    .threshold = 1e9});
  monitor.add_rule({.name = "missing",
                    .kind = HealthRuleKind::kBelow,
                    .signal = HealthSignal::kGauge,
                    .metric = "never.registered",
                    .threshold = 1.0});
  MetricsRegistry& m = sink.metrics();
  m.gauge("temp").set(20.0);
  m.gauge("meas").set(100.0);
  m.gauge("truth").set(100.0);
  m.counter("errors").add(1);
  for (int i = 1; i <= 50; ++i) m.windowed("lat.window").record(i);
  monitor.check(0.0);  // warm-up: registers health.active_alerts
  monitor.check(1.0);

  const std::size_t n = allocations_in([&monitor] {
    for (int i = 2; i < 12; ++i) monitor.check(static_cast<double>(i));
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(monitor.active_alerts(), 0u);
}

TEST(HealthAlloc, WarmCheckOfARigsDefaultRulesAllocatesNothing) {
  scenario::RigConfig config;
  config.policy = scenario::Policy::kSprintCon;
  config.health = true;
  config.use_request_queues = true;  // the latency-SLO rule reads data
  scenario::Rig rig(config);
  rig.run_until(120.0);
  HealthMonitor* monitor = rig.health();
  ASSERT_NE(monitor, nullptr);
  ASSERT_EQ(monitor->active_alerts(), 0u);

  const std::size_t n = allocations_in([monitor] {
    for (int i = 0; i < 10; ++i) monitor->check(120.0);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(monitor->active_alerts(), 0u);
}

/// An MPC problem whose n cores run `profiles` job profiles in turn (core
/// i runs profile i % profiles), each with its own gain, penalty weight
/// and bounds: a paper rack is 64 cores in 8 classes, a small rig 8
/// distinct cores.
control::MpcProblem rack_problem(std::size_t n, std::size_t profiles) {
  control::MpcProblem p;
  for (std::size_t i = 0; i < n; ++i) {
    const auto profile = static_cast<double>(i % profiles);
    p.gains_w_per_f.push_back(20.0 + profile);
    p.freq_current.push_back(0.5);
    p.freq_min.push_back(0.2 + 0.01 * profile);
    p.freq_max.push_back(1.0 - 0.02 * profile);
    p.penalty_weights.push_back(1.0 + 0.5 * profile);
    p.power_feedback_w += p.gains_w_per_f.back() * 0.5;
  }
  p.power_target_w = p.power_feedback_w * 1.3;
  return p;
}

/// Allocations made by ten steps of a controller that has already solved
/// `problem` once.
std::size_t warm_mpc_allocations(const control::MpcProblem& problem) {
  control::MpcPowerController mpc{control::MpcConfig{}};
  control::MpcOutput out;
  mpc.step(problem, out);
  return allocations_in([&] {
    for (int i = 0; i < 10; ++i) mpc.step(problem, out);
  });
}

TEST(MpcAlloc, WarmStepOfAnEightClassRackAllocatesNothing) {
  EXPECT_EQ(warm_mpc_allocations(rack_problem(64, 8)), 0u);
}

TEST(MpcAlloc, WarmStepOfAllDistinctCoresAllocatesNothing) {
  EXPECT_EQ(warm_mpc_allocations(rack_problem(8, 8)), 0u);
}

TEST(MpcAlloc, WarmStepThatRebuildsThePartitionAllocatesNothing) {
  // One core's frequency cap drops (as under the thermal guard), which
  // splits it from its class, and later comes back; then every core's
  // penalty weight moves apart.
  const control::MpcProblem rack = rack_problem(64, 8);
  control::MpcProblem capped = rack;
  capped.freq_max[13] = 0.7;
  control::MpcProblem distinct = rack;
  for (std::size_t i = 0; i < distinct.penalty_weights.size(); ++i)
    distinct.penalty_weights[i] += 0.001 * static_cast<double>(i);
  control::MpcPowerController mpc{control::MpcConfig{}};
  control::MpcOutput out;
  mpc.step(rack, out);
  const std::size_t n = allocations_in([&] {
    mpc.step(capped, out);    // core 13 leaves its class: 9 classes
    mpc.step(rack, out);      // kept: core 13 stays a class of its own
    mpc.step(distinct, out);  // rebuilt: every core its own class
  });
  EXPECT_EQ(n, 0u);
}

}  // namespace
}  // namespace sprintcon::obs
