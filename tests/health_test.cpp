// Health-monitoring tests: rule semantics (hysteresis, stuck/rate
// detection), zero false alarms on a healthy rig, and the chaos-driven
// mean-time-to-detect (MTTD) suite — with the fault injector as ground
// truth, each detectable FaultKind must produce its first
// health_degraded event within a bounded delay of the fault's start, and
// a fault-free run must produce none at all (DESIGN.md §8.5).
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "common/validation.hpp"
#include "fault/fault.hpp"
#include "obs/health.hpp"
#include "obs/sink.hpp"
#include "scenario/rig.hpp"

namespace sprintcon::obs {
namespace {

// ---------------------------------------------------------------------------
// HealthMonitor unit semantics
// ---------------------------------------------------------------------------

std::vector<Event> degraded_events(const ObsSink& sink) {
  std::vector<Event> out;
  for (const Event& e : sink.events().snapshot()) {
    if (e.type == EventType::kHealthDegraded) out.push_back(e);
  }
  return out;
}

TEST(HealthMonitor, ThresholdRuleNeedsConsecutiveBreaches) {
  ObsSink sink;
  HealthMonitor monitor(&sink);
  monitor.add_rule({.name = "hot",
                    .kind = HealthRuleKind::kAbove,
                    .signal = HealthSignal::kGauge,
                    .metric = "temp",
                    .threshold = 90.0,
                    .consecutive = 2,
                    .recover_after = 2});

  Gauge& temp = sink.metrics().gauge("temp");
  temp.set(95.0);
  monitor.check(1.0);  // first breach: streak 1, not yet degraded
  EXPECT_FALSE(monitor.degraded("hot"));
  EXPECT_TRUE(degraded_events(sink).empty());

  monitor.check(2.0);  // second consecutive breach fires
  EXPECT_TRUE(monitor.degraded("hot"));
  const auto degraded = degraded_events(sink);
  ASSERT_EQ(degraded.size(), 1u);
  EXPECT_STREQ(degraded[0].cause, "hot");
  EXPECT_DOUBLE_EQ(degraded[0].t_s, 2.0);
  EXPECT_DOUBLE_EQ(degraded[0].field("value"), 95.0);
  EXPECT_EQ(sink.metrics().counter("health.degraded").value(), 1u);

  // A single-glitch breach pattern (breach, ok, breach, ok, ...) never
  // reaches the consecutive threshold again.
  temp.set(50.0);
  monitor.check(3.0);  // ok streak 1 of 2: still degraded
  EXPECT_TRUE(monitor.degraded("hot"));
  monitor.check(4.0);  // recovered
  EXPECT_FALSE(monitor.degraded("hot"));
  EXPECT_EQ(sink.metrics().counter("health.recovered").value(), 1u);
  EXPECT_DOUBLE_EQ(sink.metrics().gauge("health.active_alerts").value(), 0.0);
}

TEST(HealthMonitor, MissingMetricIsNoData) {
  ObsSink sink;
  HealthMonitor monitor(&sink);
  monitor.add_rule({.name = "ghost",
                    .kind = HealthRuleKind::kBelow,
                    .signal = HealthSignal::kGauge,
                    .metric = "does.not.exist",
                    .threshold = 1.0,
                    .consecutive = 1});
  monitor.check(1.0);
  monitor.check(2.0);
  EXPECT_FALSE(monitor.degraded("ghost"));
  EXPECT_TRUE(degraded_events(sink).empty());
}

TEST(HealthMonitor, StuckRuleNeedsFrozenValueAndMovingReference) {
  ObsSink sink;
  HealthMonitor monitor(&sink);
  monitor.add_rule({.name = "stuck-meter",
                    .kind = HealthRuleKind::kStuck,
                    .signal = HealthSignal::kGauge,
                    .metric = "meas",
                    .reference = "truth",
                    .threshold = 0.5,
                    .consecutive = 2});
  Gauge& meas = sink.metrics().gauge("meas");
  Gauge& truth = sink.metrics().gauge("truth");

  // Both moving together (healthy sensor): never a breach.
  for (int i = 0; i < 6; ++i) {
    meas.set(100.0 + 10.0 * i);
    truth.set(100.0 + 10.0 * i);
    monitor.check(static_cast<double>(i));
  }
  EXPECT_FALSE(monitor.degraded("stuck-meter"));

  // Both frozen (quiet system): still not a breach.
  for (int i = 6; i < 12; ++i) monitor.check(static_cast<double>(i));
  EXPECT_FALSE(monitor.degraded("stuck-meter"));

  // Signal frozen while the truth moves: the dead-sensor signature.
  truth.set(400.0);
  monitor.check(12.0);
  truth.set(500.0);
  monitor.check(13.0);
  EXPECT_TRUE(monitor.degraded("stuck-meter"));
}

TEST(HealthMonitor, RateRuleFiresOnCounterDeltas) {
  ObsSink sink;
  HealthMonitor monitor(&sink);
  monitor.add_rule({.name = "error-burst",
                    .kind = HealthRuleKind::kRateAbove,
                    .signal = HealthSignal::kCounter,
                    .metric = "errors",
                    .threshold = 4.5,  // > 4 new errors per check
                    .consecutive = 1});
  Counter& errors = sink.metrics().counter("errors");

  monitor.check(1.0);  // establishes prev_value; never a breach
  errors.add(3);
  monitor.check(2.0);  // delta 3 <= 4.5
  EXPECT_FALSE(monitor.degraded("error-burst"));
  errors.add(10);
  monitor.check(3.0);  // delta 10 > 4.5
  EXPECT_TRUE(monitor.degraded("error-burst"));
}

TEST(HealthMonitor, RejectsMalformedRules) {
  ObsSink sink;
  HealthMonitor monitor(&sink);
  EXPECT_THROW(monitor.add_rule({.name = nullptr, .metric = "m"}),
               InvalidArgumentError);
  EXPECT_THROW(monitor.add_rule({.name = "r", .metric = ""}),
               InvalidArgumentError);
  EXPECT_THROW(monitor.add_rule({.name = "r",
                                 .kind = HealthRuleKind::kStuck,
                                 .metric = "m",
                                 .reference = ""}),
               InvalidArgumentError);
  EXPECT_THROW(
      monitor.add_rule({.name = "r", .metric = "m", .consecutive = 0}),
      InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Rig integration: false alarms and MTTD with the injector as ground truth
// ---------------------------------------------------------------------------

scenario::RigConfig health_config() {
  scenario::RigConfig config;
  config.policy = scenario::Policy::kSprintCon;
  config.health = true;
  config.use_request_queues = true;  // exercises the latency-SLO rule too
  return config;
}

TEST(HealthRig, FaultFreeRunRaisesNoAlarms) {
  scenario::Rig rig(health_config());
  rig.run();
  ASSERT_NE(rig.health(), nullptr);
  const auto degraded = degraded_events(*rig.obs());
  for (const Event& e : degraded) {
    ADD_FAILURE() << "false alarm: " << (e.cause ? e.cause : "?") << " at t="
                  << e.t_s;
  }
  EXPECT_EQ(rig.obs()->metrics().counter("health.degraded").value(), 0u);
  EXPECT_EQ(rig.health()->active_alerts(), 0u);
  // The monitor did run: every check stamps the active-alerts gauge and
  // the default rules saw real data (meter residual gauge exists).
  const MetricsSnapshot snap = rig.obs()->metrics().snapshot();
  EXPECT_NE(snap.gauges.find("health.active_alerts"), snap.gauges.end());
  EXPECT_NE(snap.gauges.find("control.meter_residual_w"), snap.gauges.end());
}

struct MttdCase {
  const char* plan;           ///< `fault` line body injected into the rig
  double start_s;             ///< must match the plan's start
  std::vector<std::string> causes;  ///< acceptable detecting rules
};

// Print the fault line, so the test's listed name is the same on every
// run (gtest's default prints the raw bytes, i.e. the plan's address).
void PrintTo(const MttdCase& c, std::ostream* os) { *os << c.plan; }

class HealthMttd : public ::testing::TestWithParam<MttdCase> {};

TEST_P(HealthMttd, DetectsInjectedFaultWithBoundedDelay) {
  const MttdCase& c = GetParam();
  scenario::RigConfig config = health_config();
  config.faults.faults = {fault::FaultSpec::parse_line(c.plan)};
  scenario::Rig rig(config);
  rig.run();

  double first_detect_s = -1.0;
  std::string detecting_rule;
  for (const Event& e : rig.obs()->events().snapshot()) {
    if (e.type != EventType::kHealthDegraded) continue;
    // Ground truth: nothing may fire before the injector acts.
    ASSERT_GE(e.t_s, c.start_s)
        << "false alarm " << (e.cause ? e.cause : "?")
        << " before the fault started";
    if (first_detect_s < 0.0) {
      first_detect_s = e.t_s;
      detecting_rule = e.cause != nullptr ? e.cause : "";
    }
  }
  ASSERT_GE(first_detect_s, 0.0) << "fault never detected";
  const double mttd_s = first_detect_s - c.start_s;
  // Finite, and bounded by a handful of health periods (5 s each; the
  // divergence signals need the plant to move before they can see the
  // fault, so allow a generous-but-finite window).
  EXPECT_GE(mttd_s, 0.0);
  EXPECT_LE(mttd_s, 120.0) << "detected by " << detecting_rule;
  EXPECT_NE(std::find(c.causes.begin(), c.causes.end(), detecting_rule),
            c.causes.end())
      << "detected by unexpected rule " << detecting_rule;
  RecordProperty("mttd_s", std::to_string(mttd_s));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, HealthMttd,
    ::testing::Values(
        MttdCase{"dvfs_stuck start=120 duration=300", 120.0,
                 {"dvfs-divergence"}},
        MttdCase{"ups_fade start=300 magnitude=0.5", 300.0,
                 {"ups-capacity-fade"}},
        MttdCase{"meter_dropout start=100 duration=400", 100.0,
                 {"meter-divergence", "meter-stuck"}}),
    [](const ::testing::TestParamInfo<MttdCase>& info) {
      const std::string plan = info.param.plan;
      return plan.substr(0, plan.find(' '));
    });

}  // namespace
}  // namespace sprintcon::obs
