#include "obs/health.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/validation.hpp"

namespace sprintcon::obs {

HealthMonitor::HealthMonitor(ObsSink* sink) : sink_(sink) {
  SPRINTCON_EXPECTS(sink != nullptr, "HealthMonitor needs a sink");
}

void HealthMonitor::add_rule(HealthRule rule) {
  SPRINTCON_EXPECTS(rule.name != nullptr, "health rule needs a name");
  SPRINTCON_EXPECTS(!rule.metric.empty(), "health rule needs a metric");
  SPRINTCON_EXPECTS(rule.consecutive >= 1 && rule.recover_after >= 1,
                    "health rule streaks must be >= 1");
  SPRINTCON_EXPECTS(
      rule.kind != HealthRuleKind::kStuck || !rule.reference.empty(),
      "stuck-signal rule needs a reference gauge");
  rules_.push_back(std::move(rule));
  states_.emplace_back();
}

std::size_t HealthMonitor::active_alerts() const noexcept {
  std::size_t n = 0;
  for (const RuleState& s : states_) n += s.degraded ? 1 : 0;
  return n;
}

std::vector<const char*> HealthMonitor::degraded_rules() const {
  std::vector<const char*> out;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (states_[i].degraded) out.push_back(rules_[i].name);
  }
  return out;
}

bool HealthMonitor::degraded(const char* name) const noexcept {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (std::strcmp(rules_[i].name, name) == 0) return states_[i].degraded;
  }
  return false;
}

const char* HealthMonitor::rule_name(std::string_view name) const noexcept {
  for (const HealthRule& rule : rules_) {
    if (name == rule.name) return rule.name;
  }
  return nullptr;
}

double HealthMonitor::threshold(std::string_view name) const noexcept {
  for (const HealthRule& rule : rules_) {
    if (name == rule.name) return rule.threshold;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

bool HealthMonitor::rebaseline(std::string_view name, double margin) {
  SPRINTCON_EXPECTS(margin > 0.0 && margin < 1.0,
                    "rebaseline margin must be in (0, 1)");
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    HealthRule& rule = rules_[i];
    if (name != rule.name) continue;
    if (rule.kind != HealthRuleKind::kAbove &&
        rule.kind != HealthRuleKind::kBelow) {
      return false;
    }
    double value = 0.0;
    if (!read_signal(rule, states_[i], value)) return false;
    rule.threshold = rule.kind == HealthRuleKind::kBelow ? value * margin
                                                         : value / margin;
    return true;
  }
  return false;
}

namespace {

// `cache`, after looking the metric up while it is still missing.
template <typename T>
const T* resolve(const MetricsRegistry& metrics, const std::string& name,
                 const T*& cache) {
  if (cache == nullptr) cache = metrics.find<T>(name);
  return cache;
}

}  // namespace

bool HealthMonitor::read_signal(const HealthRule& rule, RuleState& state,
                                double& out) const {
  const MetricsRegistry& m = sink_->metrics();
  switch (rule.signal) {
    case HealthSignal::kGauge: {
      const Gauge* g = resolve(m, rule.metric, state.gauge);
      if (g == nullptr) return false;
      out = g->value();
      return true;
    }
    case HealthSignal::kCounter: {
      const Counter* c = resolve(m, rule.metric, state.counter);
      if (c == nullptr) return false;
      out = static_cast<double>(c->value());
      return true;
    }
    case HealthSignal::kWindowedP99: {
      const WindowedHistogram* w = resolve(m, rule.metric, state.windowed);
      if (w == nullptr || w->count() == 0) return false;
      out = w->percentile(0.99);
      return true;
    }
  }
  return false;
}

bool HealthMonitor::breaches(const HealthRule& rule, RuleState& state,
                             double value) const {
  switch (rule.kind) {
    case HealthRuleKind::kAbove:
      return value > rule.threshold;
    case HealthRuleKind::kBelow:
      return value < rule.threshold;
    case HealthRuleKind::kStuck: {
      const Gauge* reference =
          resolve(sink_->metrics(), rule.reference, state.reference);
      if (reference == nullptr) return false;
      const double ref = reference->value();
      bool breach = false;
      if (state.has_prev) {
        // Frozen signal while the reference keeps moving: the classic
        // dead-sensor signature. The reference must move by more than the
        // threshold too, else a genuinely quiet system looks stuck.
        breach = std::fabs(value - state.prev_value) <= rule.threshold &&
                 std::fabs(ref - state.prev_ref) > rule.threshold;
      }
      state.prev_ref = ref;
      return breach;
    }
    case HealthRuleKind::kRateAbove: {
      bool breach = false;
      if (state.has_prev) breach = value - state.prev_value > rule.threshold;
      return breach;
    }
  }
  return false;
}

void HealthMonitor::check(double now_s) {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const HealthRule& rule = rules_[i];
    RuleState& state = states_[i];
    double value = 0.0;
    if (!read_signal(rule, state, value)) continue;  // no data, no verdict
    const bool breach = breaches(rule, state, value);
    state.prev_value = value;
    state.has_prev = true;
    if (breach) {
      state.ok_streak = 0;
      ++state.breach_streak;
      if (!state.degraded && state.breach_streak >= rule.consecutive) {
        state.degraded = true;
        sink_->events().emit(now_s, EventType::kHealthDegraded, rule.name,
                             {{"value", value},
                              {"threshold", rule.threshold},
                              {"streak", double(state.breach_streak)}});
        sink_->metrics().counter("health.degraded").add(1);
      }
    } else {
      state.breach_streak = 0;
      ++state.ok_streak;
      if (state.degraded && state.ok_streak >= rule.recover_after) {
        state.degraded = false;
        sink_->events().emit(now_s, EventType::kHealthRecovered, rule.name,
                             {{"value", value},
                              {"threshold", rule.threshold}});
        sink_->metrics().counter("health.recovered").add(1);
      }
    }
  }
  if (active_alerts_ == nullptr) {
    active_alerts_ = &sink_->metrics().gauge("health.active_alerts");
  }
  active_alerts_->set(static_cast<double>(active_alerts()));
}

}  // namespace sprintcon::obs
