// Fault-injection subsystem tests: `fault` line parsing, determinism, and the
// chaos sweeps — every fault family, across seeds, must (a) actually
// perturb the uninjected run and (b) leave SprintCon's safety invariants
// standing: no breaker trip, no brownout, bounded unserved power, legal
// SafetyState transitions, and recovery once the fault clears.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/validation.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "power/hybrid_store.hpp"
#include "scenario/rig.hpp"

namespace sprintcon::fault {
namespace {

using scenario::Rig;
using scenario::RigConfig;

// ---------------------------------------------------------------------------
// The `fault` line grammar
// ---------------------------------------------------------------------------

/// A plan from `fault` line bodies, one FaultSpec::parse_line per line.
FaultPlan plan_of(std::initializer_list<std::string_view> lines) {
  FaultPlan plan;
  for (const std::string_view line : lines) {
    plan.faults.push_back(FaultSpec::parse_line(line));
  }
  return plan;
}

TEST(FaultPlan, ParsesEveryKindAndRoundTrips) {
  const FaultPlan plan = plan_of({
      "meter_noise    start=100 duration=200 magnitude=0.05",
      "meter_spike    start=50 duration=100 magnitude=0.3 period=20",
      "meter_dropout  start=10 duration=30",
      "meter_delay    start=0 duration=500 magnitude=10",
      "dvfs_stuck     start=200 duration=40",
      "dvfs_lag       start=0 magnitude=20",
      "control_drop   start=0 duration=900 magnitude=0.25",
      "ups_fade       start=300 magnitude=0.5",
      "discharge_fail start=100 duration=200 magnitude=0.2",
      "cb_drift       start=0 magnitude=0.9",
      "utility_outage start=600 duration=60",
  });
  ASSERT_EQ(plan.faults.size(), 11u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::kMeterNoise);
  EXPECT_DOUBLE_EQ(plan.faults[0].start_s, 100.0);
  EXPECT_DOUBLE_EQ(plan.faults[0].duration_s, 200.0);
  EXPECT_DOUBLE_EQ(plan.faults[0].magnitude, 0.05);
  EXPECT_EQ(plan.faults[1].kind, FaultKind::kMeterSpike);
  EXPECT_DOUBLE_EQ(plan.faults[1].period_s, 20.0);
  EXPECT_TRUE(std::isinf(plan.faults[5].duration_s));
  EXPECT_EQ(plan.faults[10].kind, FaultKind::kUtilityOutage);

  // to_line() -> parse_line() must reproduce every spec exactly.
  for (const FaultSpec& spec : plan.faults) {
    EXPECT_EQ(FaultSpec::parse_line(spec.to_line()), spec) << spec.to_line();
  }
}

TEST(FaultPlan, KindNamesRoundTrip) {
  for (const FaultKind kind :
       {FaultKind::kMeterNoise, FaultKind::kMeterSpike,
        FaultKind::kMeterDropout, FaultKind::kMeterDelay,
        FaultKind::kDvfsStuck, FaultKind::kDvfsLag, FaultKind::kControlDrop,
        FaultKind::kUpsFade, FaultKind::kDischargeFail, FaultKind::kCbDrift,
        FaultKind::kUtilityOutage}) {
    EXPECT_EQ(parse_fault_kind(to_string(kind)), kind);
  }
  EXPECT_THROW(parse_fault_kind("meteor_strike"), InvalidArgumentError);
}

TEST(FaultPlan, RejectsMalformedInput) {
  // Unknown kind.
  EXPECT_THROW(FaultSpec::parse_line("bit_flip start=0"),
               InvalidArgumentError);
  // Missing '=' in a parameter.
  EXPECT_THROW(FaultSpec::parse_line("meter_dropout start 0"),
               InvalidArgumentError);
  // Malformed numbers must not be silently accepted.
  EXPECT_THROW(FaultSpec::parse_line("meter_noise start=abc magnitude=0.1"),
               InvalidArgumentError);
  EXPECT_THROW(
      FaultSpec::parse_line("meter_noise start=1.2.3 magnitude=0.1"),
      InvalidArgumentError);
  // Unknown key.
  EXPECT_THROW(FaultSpec::parse_line("meter_dropout begin=0"),
               InvalidArgumentError);
  // Out-of-range parameters for the kind.
  EXPECT_THROW(FaultSpec::parse_line("control_drop start=0 magnitude=1.5"),
               InvalidArgumentError);
  EXPECT_THROW(FaultSpec::parse_line("ups_fade start=0 magnitude=0"),
               InvalidArgumentError);
  EXPECT_THROW(FaultSpec::parse_line("cb_drift start=0 magnitude=-0.5"),
               InvalidArgumentError);
  EXPECT_THROW(FaultSpec::parse_line("meter_spike start=0 magnitude=0.3"),
               InvalidArgumentError);  // spike without a period
  EXPECT_THROW(FaultSpec::parse_line("meter_noise start=-5 magnitude=0.1"),
               InvalidArgumentError);
  EXPECT_THROW(
      FaultSpec::parse_line("meter_noise start=0 duration=0 magnitude=0.1"),
      InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Chaos harness
// ---------------------------------------------------------------------------

// The degraded-mode rig: 4 servers behind an 800 W breaker and a 100 Wh
// UPS. Small enough for a seed sweep, rich enough that every fault family
// has something real to break.
RigConfig chaos_rig(std::uint64_t seed, const FaultPlan& plan) {
  RigConfig cfg;
  cfg.num_servers = 4;
  cfg.sprint.cb_rated_w = 4.0 * 300.0 * (2.0 / 3.0);  // 800 W
  cfg.ups_capacity_wh = 100.0;
  cfg.completion = workload::CompletionMode::kRepeat;
  cfg.seed = seed;
  cfg.fault_seed = seed * 977 + 13;
  cfg.faults = plan;
  return cfg;
}

// Step the rig tick by tick, checking that every SafetyState transition is
// legal (kEnded is terminal) and that the run ends without a trip or a
// brownout. Returns the final state.
core::SprintState run_checked(Rig& rig) {
  const double dt = rig.config().dt_s;
  core::SprintState prev = rig.sprintcon()->state();
  for (double t = dt; t <= rig.config().duration_s + 1e-9; t += dt) {
    rig.run_until(t);
    const core::SprintState state = rig.sprintcon()->state();
    if (prev == core::SprintState::kEnded) {
      EXPECT_EQ(state, core::SprintState::kEnded)
          << "kEnded must be sticky (t=" << t << ")";
    }
    prev = state;
  }
  return prev;
}

// The safety invariants every chaos run must satisfy — for any fault in
// the taxonomy and any seed, SprintCon must keep the rack safe.
void expect_safety_invariants(Rig& rig, const std::string& label) {
  const metrics::RunSummary s = rig.summary();
  EXPECT_EQ(s.cb_trips, 0) << label << ": breaker tripped";
  EXPECT_LT(s.outage_start_s, 0.0) << label << ": rack browned out";
  // Unserved power stays below the 50 W brownout threshold at all times.
  EXPECT_LE(rig.recorder().series("unserved_w").max(), 50.0)
      << label << ": unserved power above the brownout threshold";
}

// After every windowed fault has cleared, the rig must be serving again:
// breaker closed, nothing unserved, no fault still active.
void expect_recovery(Rig& rig, const std::string& label) {
  const auto& open = rig.recorder().series("breaker_open");
  const auto& unserved = rig.recorder().series("unserved_w");
  const auto& active = rig.recorder().series("fault_active");
  const std::size_t n = open.size();
  ASSERT_GE(n, 60u);
  for (std::size_t i = n - 60; i < n; ++i) {
    EXPECT_EQ(open[i], 0.0) << label << ": breaker open after recovery";
    EXPECT_NEAR(unserved[i], 0.0, 1.0) << label << ": unserved after fault";
    EXPECT_EQ(active[i], 0.0) << label << ": fault still active at run end";
  }
}

// One chaos case: run the plan across seeds, assert invariants + recovery.
void chaos_sweep(const FaultPlan& plan, const std::string& label,
                 bool check_recovery = true) {
  for (const std::uint64_t seed : {11u, 42u, 97u}) {
    Rig rig(chaos_rig(seed, plan));
    const std::string tag = label + " seed=" + std::to_string(seed);
    run_checked(rig);
    ASSERT_NE(rig.fault_injector(), nullptr);
    EXPECT_GE(rig.fault_injector()->activations(), 1u)
        << tag << ": the fault never activated";
    expect_safety_invariants(rig, tag);
    if (check_recovery) expect_recovery(rig, tag);
  }
}

// The same rig with no faults: the perturbation reference.
std::vector<double> baseline_channel(std::uint64_t seed, const char* name) {
  RigConfig cfg;
  cfg.num_servers = 4;
  cfg.sprint.cb_rated_w = 4.0 * 300.0 * (2.0 / 3.0);
  cfg.ups_capacity_wh = 100.0;
  cfg.completion = workload::CompletionMode::kRepeat;
  cfg.seed = seed;
  Rig rig(cfg);
  rig.run();
  return rig.recorder().series(name).values();
}

// Proof that the fault family is not a no-op: some recorded channel must
// deviate from the uninjected run with the same workload seed.
void expect_perturbs(const FaultPlan& plan, const char* channel,
                     const std::string& label) {
  constexpr std::uint64_t kSeed = 42;
  Rig rig(chaos_rig(kSeed, plan));
  rig.run();
  const std::vector<double> faulted =
      rig.recorder().series(channel).values();
  const std::vector<double> clean = baseline_channel(kSeed, channel);
  ASSERT_EQ(faulted.size(), clean.size());
  double max_dev = 0.0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    max_dev = std::max(max_dev, std::abs(faulted[i] - clean[i]));
  }
  EXPECT_GT(max_dev, 1e-9)
      << label << ": fault left channel '" << channel << "' untouched";
}

// --- sensing faults --------------------------------------------------------

TEST(FaultChaos, MeterNoise) {
  const FaultPlan plan =
      plan_of({"meter_noise start=100 duration=400 magnitude=0.05"});
  chaos_sweep(plan, "meter_noise");
  expect_perturbs(plan, "freq_batch", "meter_noise");
}

TEST(FaultChaos, MeterSpike) {
  const FaultPlan plan =
      plan_of({"meter_spike start=100 duration=400 magnitude=0.3 period=20"});
  chaos_sweep(plan, "meter_spike");
  expect_perturbs(plan, "freq_batch", "meter_spike");
}

TEST(FaultChaos, MeterDropout) {
  const FaultPlan plan = plan_of({"meter_dropout start=200 duration=120"});
  chaos_sweep(plan, "meter_dropout");
  expect_perturbs(plan, "freq_batch", "meter_dropout");
}

TEST(FaultChaos, MeterDelay) {
  const FaultPlan plan =
      plan_of({"meter_delay start=100 duration=400 magnitude=10"});
  chaos_sweep(plan, "meter_delay");
  expect_perturbs(plan, "freq_batch", "meter_delay");
}

// --- actuation faults ------------------------------------------------------

TEST(FaultChaos, DvfsStuck) {
  // A short latch: the UPS absorbs the power the controller can no longer
  // shed, and the safety envelope holds.
  const FaultPlan plan = plan_of({"dvfs_stuck start=150 duration=40"});
  chaos_sweep(plan, "dvfs_stuck");
  expect_perturbs(plan, "freq_batch", "dvfs_stuck");
}

TEST(FaultChaos, DvfsLag) {
  const FaultPlan plan =
      plan_of({"dvfs_lag start=0 duration=800 magnitude=15"});
  chaos_sweep(plan, "dvfs_lag");
  expect_perturbs(plan, "freq_batch", "dvfs_lag");
}

TEST(FaultChaos, DvfsStuckFreezesFrequencies) {
  Rig rig(chaos_rig(42, plan_of({"dvfs_stuck start=150 duration=40"})));
  rig.run();
  const auto& fb = rig.recorder().series("freq_batch");
  const auto& fi = rig.recorder().series("freq_interactive");
  // Inside the window (recorder samples after each tick; the latch holds
  // from tick 150 onward), frequencies cannot move.
  for (std::size_t i = 152; i < 189; ++i) {
    EXPECT_DOUBLE_EQ(fb[i], fb[151]) << "batch freq moved at t=" << i;
    EXPECT_DOUBLE_EQ(fi[i], fi[151]) << "inter freq moved at t=" << i;
  }
}

// --- control-plane faults --------------------------------------------------

TEST(FaultChaos, ControlDrop) {
  const FaultPlan plan =
      plan_of({"control_drop start=100 duration=400 magnitude=0.3"});
  chaos_sweep(plan, "control_drop");
  expect_perturbs(plan, "freq_batch", "control_drop");
}

// --- energy-store faults ---------------------------------------------------

TEST(FaultChaos, UpsFade) {
  // Half the store vanishes mid-sprint. Capacity fade is permanent, so no
  // recovery check — but the run must stay safe.
  const FaultPlan plan =
      plan_of({"ups_fade start=300 duration=1 magnitude=0.5"});
  chaos_sweep(plan, "ups_fade", /*check_recovery=*/false);
  expect_perturbs(plan, "battery_soc", "ups_fade");

  Rig rig(chaos_rig(42, plan));
  rig.run();
  EXPECT_NEAR(rig.power_path().battery().capacity_wh(), 50.0, 1e-9);
}

TEST(FaultChaos, UpsFadeAgesBothHybridComponents) {
  // With a supercapacitor the UPS is a HybridStore, which fades as a
  // unit: each component keeps the fade fraction of its capacity, and
  // both SOC channels (store and battery component) stay in [0, 1].
  RigConfig cfg =
      chaos_rig(42, plan_of({"ups_fade start=300 duration=1 magnitude=0.5"}));
  cfg.supercap_wh = 20.0;
  Rig rig(cfg);
  const auto* hybrid =
      dynamic_cast<const power::HybridStore*>(&rig.power_path().battery());
  ASSERT_NE(hybrid, nullptr);
  const double battery_wh = hybrid->battery().capacity_wh();
  const double supercap_wh = hybrid->supercap().capacity_wh();
  rig.run();
  EXPECT_NEAR(hybrid->battery().capacity_wh(), 0.5 * battery_wh, 1e-9);
  EXPECT_NEAR(hybrid->supercap().capacity_wh(), 0.5 * supercap_wh, 1e-9);
  for (const char* channel : {"battery_soc", "battery_component_soc"}) {
    for (const double soc : rig.recorder().series(channel).values()) {
      ASSERT_GE(soc, 0.0) << channel;
      ASSERT_LE(soc, 1.0) << channel;
    }
  }
}

TEST(FaultChaos, DischargeFail) {
  const FaultPlan plan =
      plan_of({"discharge_fail start=100 duration=300 magnitude=0.2"});
  chaos_sweep(plan, "discharge_fail");
  expect_perturbs(plan, "ups_power_w", "discharge_fail");
}

TEST(FaultChaos, DischargeFailTotalKillsUpsDelivery) {
  Rig rig(chaos_rig(
      42, plan_of({"discharge_fail start=100 duration=300 magnitude=0"})));
  rig.run();
  const auto& ups = rig.recorder().series("ups_power_w");
  for (std::size_t i = 101; i < 399; ++i) {
    EXPECT_NEAR(ups[i], 0.0, 1e-9) << "UPS delivered during a dead circuit";
  }
}

// --- breaker / utility faults ----------------------------------------------

TEST(FaultChaos, CbDrift) {
  // An aged breaker trips 10% early; the safety monitor must still keep a
  // margin below the (derated) threshold.
  const FaultPlan plan =
      plan_of({"cb_drift start=0 duration=800 magnitude=0.9"});
  chaos_sweep(plan, "cb_drift");
  expect_perturbs(plan, "cb_thermal_stress", "cb_drift");
  Rig rig(chaos_rig(42, plan));
  rig.run();
  EXPECT_LT(rig.recorder().series("cb_thermal_stress").max(), 1.0);
}

TEST(FaultChaos, UtilityOutage) {
  const FaultPlan plan = plan_of({"utility_outage start=600 duration=60"});
  chaos_sweep(plan, "utility_outage");
  expect_perturbs(plan, "cb_power_w", "utility_outage");

  // During the outage the feed delivers nothing; the UPS carries the rack.
  Rig rig(chaos_rig(42, plan));
  rig.run();
  const auto& cb = rig.recorder().series("cb_power_w");
  const auto& ups = rig.recorder().series("ups_power_w");
  for (std::size_t i = 601; i < 659; ++i) {
    EXPECT_NEAR(cb[i], 0.0, 1e-9) << "feed delivered during the outage";
    EXPECT_GT(ups[i], 0.0) << "UPS idle during the outage";
  }
}

// --- whole-taxonomy chaos ---------------------------------------------------

TEST(FaultChaos, CombinedPlanAcrossSeeds) {
  // Everything at once (windows staggered so the rig also recovers):
  const FaultPlan plan = plan_of({
      "meter_noise    start=100 duration=200 magnitude=0.03",
      "meter_delay    start=150 duration=100 magnitude=6",
      "control_drop   start=200 duration=150 magnitude=0.2",
      "dvfs_lag       start=300 duration=100 magnitude=10",
      "discharge_fail start=400 duration=100 magnitude=0.5",
      "utility_outage start=650 duration=30",
  });
  chaos_sweep(plan, "combined");
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

// Identical (plan, seed, config) must reproduce bit-identical runs, even
// for the stochastic fault families (noise draws, drop coins).
TEST(FaultDeterminism, IdenticalPlanAndSeedIsBitIdentical) {
  const FaultPlan plan = plan_of({
      "meter_noise  start=50 duration=500 magnitude=0.05",
      "control_drop start=100 duration=400 magnitude=0.3",
      "meter_spike  start=200 duration=300 magnitude=0.2 period=15",
  });
  Rig a(chaos_rig(42, plan));
  Rig b(chaos_rig(42, plan));
  a.run();
  b.run();
  for (const char* channel :
       {"total_power_w", "cb_power_w", "ups_power_w", "unserved_w",
        "freq_interactive", "freq_batch", "battery_soc", "cb_thermal_stress",
        "fault_active"}) {
    const auto& va = a.recorder().series(channel).values();
    const auto& vb = b.recorder().series(channel).values();
    ASSERT_EQ(va.size(), vb.size()) << channel;
    for (std::size_t i = 0; i < va.size(); ++i) {
      ASSERT_EQ(va[i], vb[i]) << channel << " diverged at sample " << i;
    }
  }
  EXPECT_EQ(a.fault_injector()->activations(),
            b.fault_injector()->activations());
}

TEST(FaultDeterminism, DifferentFaultSeedDiverges) {
  // The stochastic families must actually consume the injector seed: a
  // different fault_seed (same workload seed) changes the trajectory.
  const FaultPlan plan =
      plan_of({"meter_noise start=50 duration=700 magnitude=0.08"});
  RigConfig ca = chaos_rig(42, plan);
  RigConfig cb = chaos_rig(42, plan);
  cb.fault_seed = ca.fault_seed + 1;
  Rig a(ca);
  Rig b(cb);
  a.run();
  b.run();
  const auto& va = a.recorder().series("freq_batch").values();
  const auto& vb = b.recorder().series("freq_batch").values();
  double max_dev = 0.0;
  for (std::size_t i = 0; i < va.size(); ++i) {
    max_dev = std::max(max_dev, std::abs(va[i] - vb[i]));
  }
  EXPECT_GT(max_dev, 1e-9);
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

TEST(FaultObs, InjectionAndClearEventsAreEmitted) {
  RigConfig cfg =
      chaos_rig(42, plan_of({"utility_outage start=600 duration=60"}));
  cfg.observability = true;
  Rig rig(cfg);
  rig.run();
  const obs::RunReport report = rig.report();
  bool injected = false;
  bool cleared = false;
  for (const obs::Event& e : report.events) {
    if (e.type == obs::EventType::kFaultInjected) {
      injected = true;
      EXPECT_STREQ(e.cause, "utility_outage");
      EXPECT_DOUBLE_EQ(e.field("start_s"), 600.0);
      EXPECT_DOUBLE_EQ(e.field("duration_s"), 60.0);
    }
    if (e.type == obs::EventType::kFaultCleared) cleared = true;
  }
  EXPECT_TRUE(injected);
  EXPECT_TRUE(cleared);
  EXPECT_EQ(report.metrics.counter("fault.activations"), 1u);
}

}  // namespace
}  // namespace sprintcon::fault
