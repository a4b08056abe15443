#include "scenario/spec.hpp"

#include <cmath>

#include "common/validation.hpp"

namespace sprintcon::scenario {

namespace {

using fault::format_plan_double;

struct PolicyToken {
  Policy policy;
  const char* token;
};

constexpr PolicyToken kPolicyTokens[] = {
    {Policy::kSprintCon, "sprintcon"},
    {Policy::kSgct, "sgct"},
    {Policy::kSgctV1, "sgct_v1"},
    {Policy::kSgctV2, "sgct_v2"},
    {Policy::kPowerCap, "power_cap"},
};

using Cfg = FacilityConfig;

// Every fleet, rack and workload key, each defined once. The loader parses
// into these fields, to_text() prints them in this order, operator==
// compares them and compile() copies them; defaults and range checks are
// the destination configs' own.
constexpr SectionKey kFleetKeys[] = {
    {"racks", [](Cfg& c) -> KeyField { return &c.num_racks; }},
    {"threads", [](Cfg& c) -> KeyField { return &c.run_threads; }},
    {"staggered", [](Cfg& c) -> KeyField { return &c.staggered; }},
    {"epoch", [](Cfg& c) -> KeyField { return &c.epoch_s; }},
    {"health", [](Cfg& c) -> KeyField { return &c.health; }},
    {"recovery", [](Cfg& c) -> KeyField { return &c.recovery; }},
};

constexpr SectionKey kRackKeys[] = {
    {"servers", [](Cfg& c) -> KeyField { return &c.rack.num_servers; }},
    {"interactive_cores",
     [](Cfg& c) -> KeyField { return &c.rack.interactive_cores_per_server; }},
    {"dedicated", [](Cfg& c) -> KeyField { return &c.rack.dedicated_servers; }},
    {"policy", [](Cfg& c) -> KeyField { return &c.rack.policy; }},
    {"ups_wh", [](Cfg& c) -> KeyField { return &c.rack.ups_capacity_wh; }},
    {"supercap_wh", [](Cfg& c) -> KeyField { return &c.rack.supercap_wh; }},
    {"deadline", [](Cfg& c) -> KeyField { return &c.rack.batch_deadline_s; }},
    {"work_scale", [](Cfg& c) -> KeyField { return &c.rack.batch_work_scale; }},
    {"cb_rated_w",
     [](Cfg& c) -> KeyField { return &c.rack.sprint.cb_rated_w; }},
    {"overload",
     [](Cfg& c) -> KeyField { return &c.rack.sprint.cb_overload_degree; }},
    {"overload_s",
     [](Cfg& c) -> KeyField { return &c.rack.sprint.cb_overload_duration_s; }},
    {"recovery_s",
     [](Cfg& c) -> KeyField { return &c.rack.sprint.cb_recovery_duration_s; }},
};

constexpr SectionKey kWorkloadKeys[] = {
    {"mean_util",
     [](Cfg& c) -> KeyField { return &c.rack.interactive.mean_utilization; }},
    {"idle_util",
     [](Cfg& c) -> KeyField { return &c.rack.interactive.idle_utilization; }},
    {"ramp_up",
     [](Cfg& c) -> KeyField { return &c.rack.interactive.ramp_up_s; }},
    {"swell_amplitude",
     [](Cfg& c) -> KeyField { return &c.rack.interactive.swell_amplitude; }},
    {"swell_period",
     [](Cfg& c) -> KeyField { return &c.rack.interactive.swell_period_s; }},
    {"noise_sigma",
     [](Cfg& c) -> KeyField { return &c.rack.interactive.noise_sigma; }},
    {"noise_tau",
     [](Cfg& c) -> KeyField { return &c.rack.interactive.noise_tau_s; }},
    {"spike_rate",
     [](Cfg& c) -> KeyField { return &c.rack.interactive.spike_rate_per_s; }},
    {"spike_magnitude",
     [](Cfg& c) -> KeyField { return &c.rack.interactive.spike_magnitude; }},
    {"spike_decay",
     [](Cfg& c) -> KeyField { return &c.rack.interactive.spike_decay_s; }},
    {"queueing", [](Cfg& c) -> KeyField { return &c.rack.use_request_queues; }},
};

constexpr Section kSections[] = {
    {"fleet", kFleetKeys},
    {"rack", kRackKeys},
    {"workload", kWorkloadKeys},
};

std::string format_value(const double* v) { return format_plan_double(*v); }
std::string format_value(const std::size_t* v) { return std::to_string(*v); }
std::string format_value(const bool* v) { return *v ? "true" : "false"; }
std::string format_value(const Policy* v) { return policy_token(*v); }

}  // namespace

std::span<const Section> key_sections() noexcept { return kSections; }

const char* policy_token(Policy policy) noexcept {
  for (const PolicyToken& p : kPolicyTokens) {
    if (p.policy == policy) return p.token;
  }
  return "unknown";
}

Policy parse_policy_token(std::string_view token) {
  for (const PolicyToken& p : kPolicyTokens) {
    if (token == p.token) return p.policy;
  }
  SPRINTCON_EXPECTS(false, "unknown policy: " + std::string(token));
}

// ---------------------------------------------------------------------------
// Per-section validation
// ---------------------------------------------------------------------------

void SurgeSpec::validate() const {
  SPRINTCON_EXPECTS(start_s >= 0.0, "surge start must be non-negative");
  SPRINTCON_EXPECTS(duration_s > 0.0 && std::isfinite(duration_s),
                    "surge duration must be positive and finite");
  SPRINTCON_EXPECTS(peak_utilization > 0.0 && peak_utilization <= 1.0,
                    "surge peak must be in (0, 1]");
  SPRINTCON_EXPECTS(ramp_s > 0.0, "surge ramp must be positive");
  SPRINTCON_EXPECTS(ramp_s < duration_s,
                    "surge ramp must be shorter than its duration");
}

void ScenarioSpec::validate() const {
  SPRINTCON_EXPECTS(!name.empty(), "scenario needs a name");
  for (const char c : name) {
    SPRINTCON_EXPECTS((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                          c == '-' || c == '_',
                      "scenario name must be [a-z0-9_-]: '" + name + "'");
  }
  SPRINTCON_EXPECTS(duration_s > 0.0 && std::isfinite(duration_s),
                    "duration must be positive and finite");
  SPRINTCON_EXPECTS(dt_s > 0.0 && dt_s <= duration_s,
                    "dt must be positive and at most the duration");
  facility.validate();
  SPRINTCON_EXPECTS(
      !facility.recovery || facility.rack.policy == Policy::kSprintCon,
      "recovery requires policy=sprintcon");
  for (const SurgeSpec& surge : surges) surge.validate();
  for (std::size_t i = 1; i < surges.size(); ++i) {
    // Down-ramp of surge i-1 must complete before surge i starts, so the
    // lowered envelope points stay strictly sorted.
    SPRINTCON_EXPECTS(
        surges[i].start_s >= surges[i - 1].end_s() + surges[i - 1].ramp_s,
        "overlapping surge windows (including the down-ramp)");
  }
  faults.validate();
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

std::string SurgeSpec::to_line() const {
  return "surge start=" + format_plan_double(start_s) +
         " duration=" + format_plan_double(duration_s) +
         " peak=" + format_plan_double(peak_utilization) +
         " ramp=" + format_plan_double(ramp_s);
}

std::string ScenarioSpec::to_text() const {
  std::string out = "scenario name=" + name;
  out += " seed=" + std::to_string(seed);
  out += " fault_seed=" + std::to_string(fault_seed);
  out += " duration=" + format_plan_double(duration_s);
  out += " dt=" + format_plan_double(dt_s);
  out += '\n';

  for (const Section& section : kSections) {
    out += section.name;
    for (const SectionKey& key : section.keys) {
      out += ' ';
      out += key.name;
      out += '=';
      out += std::visit([](auto* v) { return format_value(v); },
                        key.read(facility));
    }
    out += '\n';
  }

  for (const SurgeSpec& surge : surges) {
    out += surge.to_line();
    out += '\n';
  }
  for (const fault::FaultSpec& spec : faults.faults) {
    out += "fault " + spec.to_line();
    out += '\n';
  }
  return out;
}

bool ScenarioSpec::operator==(const ScenarioSpec& other) const {
  if (name != other.name || seed != other.seed ||
      fault_seed != other.fault_seed || duration_s != other.duration_s ||
      dt_s != other.dt_s || surges != other.surges || faults != other.faults) {
    return false;
  }
  for (const Section& section : kSections) {
    for (const SectionKey& key : section.keys) {
      const KeyField theirs = key.read(other.facility);
      const bool same = std::visit(
          [&](auto* v) { return *v == *std::get<decltype(v)>(theirs); },
          key.read(facility));
      if (!same) return false;
    }
  }
  return true;
}

}  // namespace sprintcon::scenario
