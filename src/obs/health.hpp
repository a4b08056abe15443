// SLO-grade health monitoring over the sink's metrics registry.
//
// A HealthMonitor holds a set of declarative HealthRules and, on each
// check(), evaluates each one against the current value of its metric,
// read straight from the attached sink's registry. It never builds a
// MetricsSnapshot: a check reads one number per rule and, once every
// metric exists, allocates nothing. A rule that breaches for
// `consecutive` checks in a row transitions to degraded and emits a
// kHealthDegraded event (cause = rule name); once healthy again for
// `recover_after` checks it emits kHealthRecovered. The hysteresis keeps
// one-sample glitches from paging.
//
// The monitor is pull-based and runs at check boundaries (the last step
// of Rig::step, every 5 s of sim time), never on the per-tick hot path.
// It only *reads* metrics and *writes* events/health metrics, so enabling
// it cannot perturb physics —
// the golden-trace determinism suite stays bit-identical with health on.
//
// Detection-latency methodology (see DESIGN.md §8.5): with the fault
// injector as ground truth, mean-time-to-detect for a fault kind is the
// sim-time gap between the fault's activation and the first
// kHealthDegraded event after it. tests/health_test.cpp pins MTTD for
// dvfs_stuck, ups_fade and meter_dropout and asserts zero false alarms
// on a fault-free run.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sink.hpp"

namespace sprintcon::obs {

/// How a rule compares its signal against the threshold.
enum class HealthRuleKind : std::uint8_t {
  kAbove,      ///< degraded while value > threshold
  kBelow,      ///< degraded while value < threshold
  kStuck,      ///< value frozen (|delta| <= threshold) while reference moved
  kRateAbove,  ///< degraded while (value - previous value) > threshold
};

/// Which metric family the rule reads.
enum class HealthSignal : std::uint8_t {
  kGauge,        ///< Gauge `metric`'s value
  kCounter,      ///< Counter `metric`'s value (as double)
  kWindowedP99,  ///< WindowedHistogram `metric`'s p99 (sliding window)
};

/// One declarative health rule. `name` doubles as the event cause and
/// must be a static string (event-log contract).
struct HealthRule {
  const char* name = nullptr;
  HealthRuleKind kind = HealthRuleKind::kAbove;
  HealthSignal signal = HealthSignal::kGauge;
  std::string metric;     ///< metric the signal reads
  std::string reference;  ///< kStuck only: gauge that should co-move
  double threshold = 0.0;
  int consecutive = 2;    ///< breaches in a row before degraded
  int recover_after = 2;  ///< healthy checks in a row before recovered
};

class HealthMonitor {
 public:
  /// @param sink sink whose metrics are read and whose event log receives
  ///             health transitions; must outlive the monitor.
  explicit HealthMonitor(ObsSink* sink);

  void add_rule(HealthRule rule);

  /// Evaluate every rule against its metric's current value. `now_s`
  /// stamps any emitted events (sim seconds).
  void check(double now_s);

  std::size_t num_rules() const noexcept { return rules_.size(); }
  /// Rules currently degraded.
  std::size_t active_alerts() const noexcept;
  /// True if the named rule is currently degraded.
  bool degraded(const char* name) const noexcept;

  /// Names of every currently-degraded rule (static strings, stable for
  /// the monitor's lifetime) — the dashboard/export "active alerts" view.
  std::vector<const char*> degraded_rules() const;

  /// The static-string name pointer of the named rule (nullptr when
  /// unknown). Recovery events reuse it as their cause, honoring the
  /// event-log contract that causes are static strings.
  const char* rule_name(std::string_view name) const noexcept;

  /// Current threshold of the named rule (NaN when unknown).
  double threshold(std::string_view name) const noexcept;

  /// Re-rate a kAbove/kBelow rule's threshold against the signal's current
  /// reading with a safety margin in (0, 1): kBelow gets value * margin,
  /// kAbove gets value / margin. Models operational acceptance of a
  /// permanent degradation (e.g. re-rating a faded battery) so the rule
  /// can recover and the alert clears. Returns false when the rule is
  /// unknown, not a threshold rule, or its signal has no data yet.
  bool rebaseline(std::string_view name, double margin);

 private:
  struct RuleState {
    int breach_streak = 0;
    int ok_streak = 0;
    bool degraded = false;
    bool has_prev = false;
    double prev_value = 0.0;
    double prev_ref = 0.0;
    // The rule's metric (the one its signal names) and, for kStuck, its
    // reference gauge; looked up until they exist, then cached (the
    // registry never erases and its handles are stable).
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const WindowedHistogram* windowed = nullptr;
    const Gauge* reference = nullptr;
  };

  /// Reads the rule's signal; false when the metric does not exist yet or
  /// a histogram holds no samples (a missing metric is "no data", never a
  /// breach).
  bool read_signal(const HealthRule& rule, RuleState& state,
                   double& out) const;
  bool breaches(const HealthRule& rule, RuleState& state, double value) const;

  ObsSink* sink_;
  std::vector<HealthRule> rules_;
  std::vector<RuleState> states_;
  Gauge* active_alerts_ = nullptr;  ///< health.active_alerts, from 1st check
};

}  // namespace sprintcon::obs
