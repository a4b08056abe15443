#include "fault/fault.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/validation.hpp"

namespace sprintcon::fault {

namespace {

struct KindName {
  FaultKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::kMeterNoise, "meter_noise"},
    {FaultKind::kMeterSpike, "meter_spike"},
    {FaultKind::kMeterDropout, "meter_dropout"},
    {FaultKind::kMeterDelay, "meter_delay"},
    {FaultKind::kDvfsStuck, "dvfs_stuck"},
    {FaultKind::kDvfsLag, "dvfs_lag"},
    {FaultKind::kControlDrop, "control_drop"},
    {FaultKind::kUpsFade, "ups_fade"},
    {FaultKind::kDischargeFail, "discharge_fail"},
    {FaultKind::kCbDrift, "cb_drift"},
    {FaultKind::kUtilityOutage, "utility_outage"},
};

}  // namespace

std::string format_plan_double(double v) {
  if (std::isinf(v)) return v > 0.0 ? "inf" : "-inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* to_string(FaultKind kind) noexcept {
  for (const KindName& k : kKindNames) {
    if (k.kind == kind) return k.name;
  }
  return "unknown";
}

FaultKind parse_fault_kind(std::string_view name) {
  for (const KindName& k : kKindNames) {
    if (name == k.name) return k.kind;
  }
  SPRINTCON_EXPECTS(false, "unknown fault kind: " + std::string(name));
}

std::string FaultSpec::to_line() const {
  std::string out = to_string(kind);
  out += " start=" + format_plan_double(start_s);
  if (std::isfinite(duration_s)) {
    out += " duration=" + format_plan_double(duration_s);
  }
  if (magnitude != 0.0) out += " magnitude=" + format_plan_double(magnitude);
  if (period_s != 0.0) out += " period=" + format_plan_double(period_s);
  return out;
}

FaultSpec FaultSpec::parse_line(std::string_view line) {
  std::istringstream tokens{std::string(line)};
  std::string word;
  SPRINTCON_EXPECTS(static_cast<bool>(tokens >> word),
                    "empty fault spec line");
  FaultSpec spec;
  spec.kind = parse_fault_kind(word);
  while (tokens >> word) {
    const std::size_t eq = word.find('=');
    SPRINTCON_EXPECTS(eq != std::string::npos && eq > 0 && eq + 1 < word.size(),
                      "expected key=value, got '" + word + "'");
    const std::string key = word.substr(0, eq);
    const std::string value = word.substr(eq + 1);
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    SPRINTCON_EXPECTS(end == value.c_str() + value.size(),
                      "malformed number '" + value + "'");
    if (key == "start") {
      spec.start_s = v;
    } else if (key == "duration") {
      spec.duration_s = v;
    } else if (key == "magnitude") {
      spec.magnitude = v;
    } else if (key == "period") {
      spec.period_s = v;
    } else {
      SPRINTCON_EXPECTS(false, "unknown key '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

void FaultSpec::validate() const {
  SPRINTCON_EXPECTS(start_s >= 0.0, "fault start must be non-negative");
  SPRINTCON_EXPECTS(duration_s > 0.0, "fault duration must be positive");
  switch (kind) {
    case FaultKind::kMeterNoise:
      SPRINTCON_EXPECTS(magnitude > 0.0, "meter_noise needs magnitude > 0");
      break;
    case FaultKind::kMeterSpike:
      SPRINTCON_EXPECTS(magnitude > 0.0, "meter_spike needs magnitude > 0");
      SPRINTCON_EXPECTS(period_s > 0.0, "meter_spike needs period > 0");
      break;
    case FaultKind::kMeterDropout:
      break;  // no parameters
    case FaultKind::kMeterDelay:
      SPRINTCON_EXPECTS(magnitude > 0.0,
                        "meter_delay needs magnitude (delay seconds) > 0");
      break;
    case FaultKind::kDvfsStuck:
      break;  // no parameters
    case FaultKind::kDvfsLag:
      SPRINTCON_EXPECTS(magnitude > 0.0,
                        "dvfs_lag needs magnitude (tau seconds) > 0");
      break;
    case FaultKind::kControlDrop:
      SPRINTCON_EXPECTS(magnitude > 0.0 && magnitude <= 1.0,
                        "control_drop needs magnitude (probability) in (0,1]");
      break;
    case FaultKind::kUpsFade:
      SPRINTCON_EXPECTS(magnitude > 0.0 && magnitude <= 1.0,
                        "ups_fade needs magnitude (kept fraction) in (0,1]");
      break;
    case FaultKind::kDischargeFail:
      SPRINTCON_EXPECTS(magnitude >= 0.0 && magnitude <= 1.0,
                        "discharge_fail needs magnitude (gain) in [0,1]");
      break;
    case FaultKind::kCbDrift:
      SPRINTCON_EXPECTS(magnitude > 0.0 && magnitude <= 1.0,
                        "cb_drift needs magnitude (derate) in (0,1]");
      break;
    case FaultKind::kUtilityOutage:
      break;  // no parameters
  }
}

void FaultPlan::validate() const {
  for (const FaultSpec& spec : faults) spec.validate();
}

}  // namespace sprintcon::fault
