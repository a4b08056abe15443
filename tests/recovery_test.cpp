// Recovery-engine tests: playbook validation, the incident state machine
// (retry/backoff, escalation, hysteretic de-escalation, MTTR) against a
// mock target, HealthMonitor rebaselining, and the closed-loop rig suite
// — with the fault injector as ground truth, every recoverable FaultKind
// must draw a first remediation only after the fault starts and return
// the rig to a fully non-degraded state within a bounded number of
// health checks (DESIGN.md §10).
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "common/validation.hpp"
#include "fault/fault.hpp"
#include "obs/health.hpp"
#include "obs/sink.hpp"
#include "recovery/playbook.hpp"
#include "recovery/recovery.hpp"
#include "scenario/rig.hpp"

namespace sprintcon::recovery {
namespace {

// ---------------------------------------------------------------------------
// Playbook validation
// ---------------------------------------------------------------------------

TEST(Playbook, DefaultsValidateAndCoverTheDefaultRules) {
  const Playbook book = Playbook::defaults();
  EXPECT_NO_THROW(book.validate());
  for (const char* trigger :
       {"dvfs-divergence", "meter-divergence", "meter-stuck",
        "ups-capacity-fade", "ups-discharge-shortfall"}) {
    EXPECT_NE(book.find(trigger), nullptr) << trigger;
  }
  // latency-slo is deliberately unremediated (throttling worsens latency).
  EXPECT_EQ(book.find("latency-slo"), nullptr);
}

TEST(Playbook, RejectsMalformedRules) {
  Playbook book;
  book.rules.push_back({.trigger = "", .ladder = {{}}});
  EXPECT_THROW(book.validate(), InvalidArgumentError);

  book.rules.clear();
  book.rules.push_back({.trigger = "r", .ladder = {}});  // empty ladder
  EXPECT_THROW(book.validate(), InvalidArgumentError);

  book.rules.clear();
  book.rules.push_back(
      {.trigger = "r", .ladder = {{.action = ActionKind::kResetActuator,
                                   .max_retries = 0}}});
  EXPECT_THROW(book.validate(), InvalidArgumentError);

  book.rules.clear();
  book.rules.push_back({.trigger = "r", .ladder = {{}}});
  book.rules.push_back({.trigger = "r", .ladder = {{}}});  // duplicate
  EXPECT_THROW(book.validate(), InvalidArgumentError);

  book.rules.clear();
  book.rules.push_back(
      {.trigger = "r",
       .ladder = {{.action = ActionKind::kRebaseline, .param = 1.5}}});
  EXPECT_THROW(book.validate(), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Engine state machine against a mock target
// ---------------------------------------------------------------------------

/// Records every call; rebaseline heals the rule through the monitor so
/// closed-loop unit tests can model a permanent derating being accepted.
class MockTarget final : public RecoveryTarget {
 public:
  explicit MockTarget(obs::HealthMonitor* monitor = nullptr)
      : monitor_(monitor) {}

  void reset_actuator(std::string_view trigger) override {
    calls.push_back("reset:" + std::string(trigger));
  }
  void engage_pid_fallback() override { calls.push_back("pid+"); }
  void release_pid_fallback() override { calls.push_back("pid-"); }
  void engage_conservative_cap() override { calls.push_back("cap+"); }
  void release_conservative_cap() override { calls.push_back("cap-"); }
  void engage_quarantine() override { calls.push_back("quarantine+"); }
  void release_quarantine() override { calls.push_back("quarantine-"); }
  bool rebaseline(std::string_view trigger, double margin) override {
    calls.push_back("rebaseline:" + std::string(trigger));
    return monitor_ != nullptr && monitor_->rebaseline(trigger, margin);
  }

  std::vector<std::string> calls;

 private:
  obs::HealthMonitor* monitor_;
};

/// Harness: one kAbove gauge rule with no hysteresis, so check() maps the
/// gauge straight onto degraded(), and poll() right after each check.
struct EngineHarness {
  obs::ObsSink sink;
  obs::HealthMonitor monitor{&sink};
  MockTarget target{&monitor};
  obs::Gauge* temp = nullptr;
  double now_s = 0.0;

  explicit EngineHarness() {
    monitor.add_rule({.name = "hot",
                      .kind = obs::HealthRuleKind::kAbove,
                      .signal = obs::HealthSignal::kGauge,
                      .metric = "temp",
                      .threshold = 90.0,
                      .consecutive = 1,
                      .recover_after = 1});
    temp = &sink.metrics().gauge("temp");
    temp->set(0.0);
  }

  /// One health check + engine poll at the next integer timestamp.
  void tick(RecoveryManager& manager) {
    now_s += 1.0;
    monitor.check(now_s);
    manager.poll(now_s);
  }
};

Playbook three_rung_book() {
  Playbook book;
  book.rules.push_back(
      {.trigger = "hot",
       .ladder = {{.action = ActionKind::kResetActuator,
                   .max_retries = 2,
                   .backoff_checks = 1,
                   .max_backoff_checks = 4},
                  {.action = ActionKind::kPidFallback, .max_retries = 1},
                  {.action = ActionKind::kQuarantine, .max_retries = 1}},
       .deescalate_after = 2});
  return book;
}

TEST(RecoveryManager, WalksTheLadderUpAndUnwindsWithHysteresis) {
  EngineHarness h;
  RecoveryManager manager(&h.sink, &h.monitor, &h.target, three_rung_book());

  h.temp->set(120.0);  // degrade and hold
  h.tick(manager);  // t1: incident opens, rung 0 applies (cooldown 1)
  EXPECT_EQ(manager.active_incidents(), 1u);
  EXPECT_EQ(manager.level("hot"), 0);
  EXPECT_EQ(h.target.calls, std::vector<std::string>{"reset:hot"});

  h.tick(manager);  // t2: cooldown
  h.tick(manager);  // t3: retry 2 of 2 (impulse re-fires; cooldown 2)
  EXPECT_EQ(h.target.calls,
            (std::vector<std::string>{"reset:hot", "reset:hot"}));
  h.tick(manager);  // t4: cooldown
  h.tick(manager);  // t5: cooldown
  h.tick(manager);  // t6: retries exhausted -> escalate to rung 1 (pid)
  EXPECT_EQ(manager.level("hot"), 1);
  EXPECT_EQ(h.target.calls.back(), "pid+");
  h.tick(manager);  // t7: cooldown (modal dwell)
  h.tick(manager);  // t8: dwell spent -> escalate to rung 2 (quarantine)
  EXPECT_EQ(manager.level("hot"), 2);
  EXPECT_TRUE(manager.quarantined());
  EXPECT_EQ(h.target.calls.back(), "quarantine+");

  // Terminal rung holds: no further calls no matter how long it burns.
  const std::size_t held = h.target.calls.size();
  for (int i = 0; i < 5; ++i) h.tick(manager);
  EXPECT_EQ(h.target.calls.size(), held);

  // Recovery: one rung per deescalate_after healthy polls, reverse order.
  h.temp->set(0.0);
  h.tick(manager);  // ok 1
  h.tick(manager);  // ok 2 -> release quarantine
  EXPECT_EQ(h.target.calls.back(), "quarantine-");
  EXPECT_FALSE(manager.quarantined());
  EXPECT_EQ(manager.level("hot"), 1);
  EXPECT_EQ(manager.active_incidents(), 1u);  // still unwinding
  h.tick(manager);
  h.tick(manager);  // -> release pid
  EXPECT_EQ(h.target.calls.back(), "pid-");
  h.tick(manager);
  h.tick(manager);  // -> release rung 0 (impulse: nothing engaged), close
  EXPECT_EQ(manager.active_incidents(), 0u);
  EXPECT_EQ(manager.level("hot"), -1);
  EXPECT_EQ(manager.incidents_resolved(), 1u);
  // Degraded at t1, closed 18 ticks later.
  EXPECT_DOUBLE_EQ(manager.last_mttr_s(), 18.0);
  EXPECT_EQ(h.sink.metrics().snapshot().histograms.at("recovery.mttr_s").count,
            1u);

  // Event trail: actions + escalations + de-escalations, all cause "hot".
  std::size_t actions = 0, escalations = 0, deescalations = 0;
  for (const obs::Event& e : h.sink.events().snapshot()) {
    EXPECT_STREQ(e.cause, "hot");
    if (e.type == obs::EventType::kRecoveryAction) ++actions;
    if (e.type == obs::EventType::kRecoveryEscalated) ++escalations;
    if (e.type == obs::EventType::kRecoveryDeescalated) ++deescalations;
  }
  EXPECT_EQ(actions, manager.actions_taken());
  EXPECT_EQ(escalations, 2u);
  EXPECT_EQ(deescalations, 3u);
}

TEST(RecoveryManager, ReArmedRungEscalatesQuicklyOnFlap) {
  EngineHarness h;
  RecoveryManager manager(&h.sink, &h.monitor, &h.target, three_rung_book());

  h.temp->set(120.0);
  for (int i = 0; i < 8; ++i) h.tick(manager);  // climb to quarantine
  ASSERT_TRUE(manager.quarantined());

  h.temp->set(0.0);
  h.tick(manager);
  h.tick(manager);  // unwound one rung: back to pid, re-armed
  ASSERT_EQ(manager.level("hot"), 1);

  // Re-breach: the rung already spent its retries, so after one backoff
  // the ladder escalates straight back to quarantine instead of
  // replaying the reset rung from scratch.
  h.temp->set(120.0);
  h.tick(manager);  // burns the re-arm cooldown
  h.tick(manager);  // escalate
  EXPECT_TRUE(manager.quarantined());
}

TEST(RecoveryManager, UnmatchedTriggerStaysInert) {
  EngineHarness h;
  Playbook book;
  book.rules.push_back({.trigger = "no-such-rule", .ladder = {{}}});
  RecoveryManager manager(&h.sink, &h.monitor, &h.target, std::move(book));

  h.temp->set(120.0);
  for (int i = 0; i < 4; ++i) h.tick(manager);
  EXPECT_EQ(manager.active_incidents(), 0u);
  EXPECT_EQ(manager.actions_taken(), 0u);
  EXPECT_TRUE(h.target.calls.empty());
}

TEST(RecoveryManager, RebaselineHealsAPermanentlyDeratedSignal) {
  obs::ObsSink sink;
  obs::HealthMonitor monitor(&sink);
  monitor.add_rule({.name = "capacity-low",
                    .kind = obs::HealthRuleKind::kBelow,
                    .signal = obs::HealthSignal::kGauge,
                    .metric = "capacity",
                    .threshold = 300.0,
                    .consecutive = 1,
                    .recover_after = 1});
  MockTarget target(&monitor);
  Playbook book;
  book.rules.push_back(
      {.trigger = "capacity-low",
       .ladder = {{.action = ActionKind::kRebaseline,
                   .max_retries = 1,
                   .param = 0.95}},
       .deescalate_after = 1});
  RecoveryManager manager(&sink, &monitor, &target, std::move(book));

  obs::Gauge& capacity = sink.metrics().gauge("capacity");
  capacity.set(200.0);  // permanently faded below the 300 threshold
  monitor.check(1.0);
  manager.poll(1.0);  // rebaseline: threshold -> 200 * 0.95 = 190
  EXPECT_EQ(target.calls,
            std::vector<std::string>{"rebaseline:capacity-low"});
  EXPECT_DOUBLE_EQ(monitor.threshold("capacity-low"), 190.0);

  // The derated value now reads healthy; the incident closes.
  monitor.check(2.0);
  manager.poll(2.0);
  EXPECT_FALSE(monitor.degraded("capacity-low"));
  EXPECT_EQ(manager.active_incidents(), 0u);
  EXPECT_EQ(manager.incidents_resolved(), 1u);
}

TEST(HealthMonitor, RebaselineRejectsUnratableRules) {
  obs::ObsSink sink;
  obs::HealthMonitor monitor(&sink);
  monitor.add_rule({.name = "stuck",
                    .kind = obs::HealthRuleKind::kStuck,
                    .signal = obs::HealthSignal::kGauge,
                    .metric = "m",
                    .reference = "ref",
                    .threshold = 1.0});
  monitor.add_rule({.name = "low",
                    .kind = obs::HealthRuleKind::kBelow,
                    .signal = obs::HealthSignal::kGauge,
                    .metric = "nodata",
                    .threshold = 1.0});
  EXPECT_FALSE(monitor.rebaseline("stuck", 0.9));    // not a threshold rule
  EXPECT_FALSE(monitor.rebaseline("low", 0.9));      // metric has no data
  EXPECT_FALSE(monitor.rebaseline("unknown", 0.9));  // no such rule
  EXPECT_THROW(monitor.rebaseline("low", 1.5), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Rig integration: closed loop against the fault injector as ground truth
// ---------------------------------------------------------------------------

scenario::RigConfig recovery_config() {
  scenario::RigConfig config;
  config.policy = scenario::Policy::kSprintCon;
  config.recovery = true;
  config.use_request_queues = true;
  return config;
}

TEST(RecoveryRig, FaultFreeRunTakesNoActions) {
  scenario::Rig rig(recovery_config());
  rig.run();
  ASSERT_NE(rig.recovery(), nullptr);
  EXPECT_EQ(rig.recovery()->actions_taken(), 0u);
  EXPECT_EQ(rig.recovery()->active_incidents(), 0u);
  EXPECT_FALSE(rig.recovery()->quarantined());
  for (const obs::Event& e : rig.obs()->events().snapshot()) {
    EXPECT_TRUE(e.type != obs::EventType::kRecoveryAction &&
                e.type != obs::EventType::kRecoveryEscalated &&
                e.type != obs::EventType::kRecoveryDeescalated)
        << "unexpected recovery event at t=" << e.t_s;
  }
  const obs::MetricsSnapshot snap = rig.obs()->metrics().snapshot();
  EXPECT_EQ(snap.counter("recovery.actions", 0), 0u);
}

TEST(RecoveryRig, EngineNeverPerturbsAHealthyRun) {
  // The engine reads metrics and only ever acts on degraded rules, so a
  // fault-free rig with recovery must record the same physics as one
  // with plain health monitoring.
  scenario::RigConfig with = recovery_config();
  scenario::RigConfig without = recovery_config();
  without.recovery = false;
  without.health = true;
  scenario::Rig a(with);
  scenario::Rig b(without);
  a.run();
  b.run();
  for (const char* channel : {"total_power_w", "cb_power_w", "battery_soc"}) {
    const TimeSeries& sa = a.recorder().series(channel);
    const TimeSeries& sb = b.recorder().series(channel);
    ASSERT_EQ(sa.size(), sb.size()) << channel;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i], sb[i]) << channel << " diverges at sample " << i;
    }
  }
}

struct MttrCase {
  const char* plan;      ///< `fault` line body injected into the rig
  double start_s;        ///< must match the plan's start
  double resolve_by_s;   ///< incident must fully close by this sim time
};

// Print the fault line, so the test's listed name is the same on every
// run (gtest's default prints the raw bytes, i.e. the plan's address).
void PrintTo(const MttrCase& c, std::ostream* os) { *os << c.plan; }

class RecoveryMttr : public ::testing::TestWithParam<MttrCase> {};

TEST_P(RecoveryMttr, RemediatesAndReturnsToNonDegraded) {
  const MttrCase& c = GetParam();
  scenario::RigConfig config = recovery_config();
  config.faults.faults = {fault::FaultSpec::parse_line(c.plan)};
  scenario::Rig rig(config);
  rig.run();

  double first_action_s = -1.0;
  double last_close_s = -1.0;
  std::uint64_t closes = 0;
  for (const obs::Event& e : rig.obs()->events().snapshot()) {
    if (e.type == obs::EventType::kRecoveryAction && first_action_s < 0.0) {
      first_action_s = e.t_s;
    }
    if (e.type == obs::EventType::kRecoveryDeescalated &&
        e.field("level", 0.0) < 0.0) {
      last_close_s = e.t_s;
      ++closes;
    }
    // Ground truth: remediation only ever follows the injected fault.
    if (e.type == obs::EventType::kRecoveryAction) {
      ASSERT_GE(e.t_s, c.start_s) << "action before the fault started";
    }
  }

  // The engine acted, resolved every incident it opened, and the rig
  // ended the run fully unwound and healthy.
  ASSERT_GE(first_action_s, c.start_s) << "fault never remediated";
  EXPECT_GE(rig.recovery()->incidents_resolved(), 1u);
  EXPECT_EQ(rig.recovery()->incidents_resolved(), closes);
  EXPECT_EQ(rig.recovery()->active_incidents(), 0u);
  EXPECT_FALSE(rig.recovery()->quarantined());
  // Every recovery-managed rule is back to healthy. latency-slo is
  // exempt: it is deliberately unremediated (DESIGN.md §10) and, as a
  // victim signal with minutes of windowed-p99 memory plus a backlog
  // that drains long after the fault, may legitimately lag the run's end.
  for (const RecoveryRule& rule : Playbook::defaults().rules) {
    EXPECT_FALSE(rig.health()->degraded(rule.trigger.c_str()))
        << rule.trigger << " still degraded at end of run";
  }
  EXPECT_LE(rig.health()->active_alerts(),
            rig.health()->degraded("latency-slo") ? 1u : 0u);

  // Bounded recovery: the final unwind lands within the case's budget.
  ASSERT_GE(last_close_s, 0.0) << "incident never closed";
  EXPECT_LE(last_close_s, c.resolve_by_s);

  // MTTR accounting is wired through: positive, recorded, and consistent.
  EXPECT_GT(rig.recovery()->last_mttr_s(), 0.0);
  const obs::MetricsSnapshot snap = rig.obs()->metrics().snapshot();
  EXPECT_EQ(snap.histograms.at("recovery.mttr_s").count, closes);
  EXPECT_EQ(snap.counter("recovery.actions", 0),
            rig.recovery()->actions_taken());
  RecordProperty("mttr_s", std::to_string(rig.recovery()->last_mttr_s()));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, RecoveryMttr,
    ::testing::Values(
        MttrCase{"dvfs_stuck start=120 duration=300", 120.0, 650.0},
        MttrCase{"ups_fade start=300 magnitude=0.5", 300.0, 700.0},
        MttrCase{"meter_dropout start=100 duration=400", 100.0, 700.0},
        MttrCase{"discharge_fail start=160 duration=290 magnitude=0.2",
                 160.0, 700.0}),
    [](const ::testing::TestParamInfo<MttrCase>& info) {
      const std::string plan = info.param.plan;
      return plan.substr(0, plan.find(' '));
    });

}  // namespace
}  // namespace sprintcon::recovery
