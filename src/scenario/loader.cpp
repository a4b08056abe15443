#include "scenario/loader.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>
#include <variant>

#include "common/validation.hpp"

namespace sprintcon::scenario {

namespace {

/// Parser context: filename + current line, so every diagnostic can carry
/// its position. fail() is the single exit for all parse errors.
struct Cursor {
  std::string_view filename;
  int line_no = 0;

  [[noreturn]] void fail(const std::string& msg) const {
    throw InvalidArgumentError(std::string(filename) + ":" +
                               std::to_string(line_no) + ": " + msg);
  }
};

/// Split "key=value"; fails on anything else.
std::pair<std::string, std::string> split_kv(const Cursor& at,
                                             const std::string& word) {
  const std::size_t eq = word.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= word.size()) {
    at.fail("expected key=value, got '" + word + "'");
  }
  return {word.substr(0, eq), word.substr(eq + 1)};
}

/// Strict double parse: the whole token must be consumed (rejects the
/// strtod partial-token accepts like "1.2.3" / "1e" / "12x").
double parse_double(const Cursor& at, const std::string& key,
                    const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size()) {
    at.fail("malformed number for " + key + ": '" + value + "'");
  }
  return v;
}

/// Strict unsigned integer parse: digits only (no sign, hex, or
/// whitespace), no overflow.
std::uint64_t parse_u64(const Cursor& at, const std::string& key,
                        const std::string& value) {
  if (value.empty()) at.fail("malformed integer for " + key + ": ''");
  for (const char c : value) {
    if (c < '0' || c > '9') {
      at.fail("malformed integer for " + key + ": '" + value + "'");
    }
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (errno == ERANGE || end != value.c_str() + value.size()) {
    at.fail("integer out of range for " + key + ": '" + value + "'");
  }
  return static_cast<std::uint64_t>(v);
}

/// Run a section's validate() with the section line's position attached.
template <typename F>
void validate_at(const Cursor& at, F&& validate) {
  try {
    validate();
  } catch (const InvalidArgumentError& e) {
    at.fail(e.what());
  }
}

void parse_scenario_header(const Cursor& at, std::istringstream& tokens,
                           ScenarioSpec& spec) {
  std::string word;
  bool have_name = false;
  while (tokens >> word) {
    const auto [key, value] = split_kv(at, word);
    if (key == "name") {
      spec.name = value;
      have_name = true;
    } else if (key == "seed") {
      spec.seed = parse_u64(at, key, value);
    } else if (key == "fault_seed") {
      spec.fault_seed = parse_u64(at, key, value);
    } else if (key == "duration") {
      spec.duration_s = parse_double(at, key, value);
    } else if (key == "dt") {
      spec.dt_s = parse_double(at, key, value);
    } else {
      at.fail("unknown scenario key '" + key + "'");
    }
  }
  if (!have_name) at.fail("scenario line needs name=<id>");
  // Nothing but the header is set yet (the scenario line comes first), so
  // this checks exactly the header.
  validate_at(at, [&] { spec.validate(); });
}

void parse_into(const Cursor& at, const std::string& key,
                const std::string& value, double& out) {
  out = parse_double(at, key, value);
}

void parse_into(const Cursor& at, const std::string& key,
                const std::string& value, std::size_t& out) {
  out = static_cast<std::size_t>(parse_u64(at, key, value));
}

void parse_into(const Cursor& at, const std::string& key,
                const std::string& value, bool& out) {
  if (value != "true" && value != "false") {
    at.fail("malformed bool for " + key + ": '" + value +
            "' (want true or false)");
  }
  out = value == "true";
}

void parse_into(const Cursor& at, const std::string& /*key*/,
                const std::string& value, Policy& out) {
  validate_at(at, [&] { out = parse_policy_token(value); });
}

/// One fleet/rack/workload line: each key=value lands in the field the
/// section's table names, then the destination configs validate the
/// result.
void parse_section(const Cursor& at, std::istringstream& tokens,
                   const Section& section, FacilityConfig& config) {
  std::string word;
  while (tokens >> word) {
    const auto [name, value] = split_kv(at, word);
    const auto key =
        std::find_if(section.keys.begin(), section.keys.end(),
                     [&](const SectionKey& k) { return name == k.name; });
    if (key == section.keys.end()) {
      at.fail("unknown " + std::string(section.name) + " key '" + name + "'");
    }
    std::visit([&](auto* field) { parse_into(at, name, value, *field); },
               key->field(config));
  }
  validate_at(at, [&] { config.validate(); });
}

/// One surge line; it must start after `earlier`'s last down-ramp ends.
SurgeSpec parse_surge(const Cursor& at, std::istringstream& tokens,
                      const std::vector<SurgeSpec>& earlier) {
  SurgeSpec surge;
  std::string word;
  while (tokens >> word) {
    const auto [key, value] = split_kv(at, word);
    if (key == "start") {
      surge.start_s = parse_double(at, key, value);
    } else if (key == "duration") {
      surge.duration_s = parse_double(at, key, value);
    } else if (key == "peak") {
      surge.peak_utilization = parse_double(at, key, value);
    } else if (key == "ramp") {
      surge.ramp_s = parse_double(at, key, value);
    } else {
      at.fail("unknown surge key '" + key + "'");
    }
  }
  validate_at(at, [&] {
    surge.validate();
    SPRINTCON_EXPECTS(
        earlier.empty() ||
            surge.start_s >= earlier.back().end_s() + earlier.back().ramp_s,
        "overlapping surge windows (including the down-ramp)");
  });
  return surge;
}

}  // namespace

ScenarioSpec parse_scenario(std::istream& in, std::string_view filename) {
  ScenarioSpec spec;
  Cursor at{filename, 0};
  bool seen_scenario = false;
  std::map<std::string_view, int> section_line;  // keyword -> its line

  std::string line;
  while (std::getline(in, line)) {
    ++at.line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::string section;
    if (!(tokens >> section)) continue;  // blank / comment-only line

    if (section == "scenario") {
      if (seen_scenario) at.fail("duplicate 'scenario' line");
      seen_scenario = true;
      parse_scenario_header(at, tokens, spec);
      continue;
    }
    if (!seen_scenario) {
      at.fail("the 'scenario' line must come first (got '" + section + "')");
    }
    const std::span<const Section> sections = key_sections();
    const auto keyed =
        std::find_if(sections.begin(), sections.end(),
                     [&](const Section& s) { return section == s.name; });
    if (keyed != sections.end()) {
      if (!section_line.emplace(keyed->name, at.line_no).second) {
        at.fail("duplicate '" + section + "' line");
      }
      parse_section(at, tokens, *keyed, spec.facility);
    } else if (section == "surge") {
      spec.surges.push_back(parse_surge(at, tokens, spec.surges));
    } else if (section == "fault") {
      std::string rest;
      std::getline(tokens, rest);
      try {
        spec.faults.faults.push_back(fault::FaultSpec::parse_line(rest));
      } catch (const InvalidArgumentError& e) {
        at.fail(e.what());
      }
    } else {
      at.fail("unknown section '" + section +
              "' (want scenario, fleet, rack, workload, surge, fault)");
    }
  }

  if (!seen_scenario) {
    at.line_no = std::max(at.line_no, 1);
    at.fail("missing required 'scenario' line");
  }
  // Every line has validated as it was read. What is left is the one
  // cross-section rule: recovery (fleet line) needs policy=sprintcon (rack
  // line, possibly later in the file), reported at the fleet line.
  at.line_no = section_line["fleet"];
  validate_at(at, [&] { spec.validate(); });
  return spec;
}

ScenarioSpec parse_scenario_string(std::string_view text,
                                   std::string_view filename) {
  std::istringstream in{std::string(text)};
  return parse_scenario(in, filename);
}

ScenarioSpec load_scenario(const std::string& path) {
  std::ifstream in(path);
  SPRINTCON_EXPECTS(static_cast<bool>(in), "cannot open scenario: " + path);
  return parse_scenario(in, path);
}

FacilityConfig compile(const ScenarioSpec& spec) {
  spec.validate();

  // Every key, copied from the spec onto a default configuration.
  FacilityConfig fc;
  for (const Section& section : key_sections()) {
    for (const SectionKey& key : section.keys) {
      const KeyField from = key.read(spec.facility);
      std::visit([&](auto* to) { *to = *std::get<decltype(to)>(from); },
                 key.field(fc));
    }
  }

  RigConfig& rig = fc.rack;
  rig.dt_s = spec.dt_s;
  rig.duration_s = spec.duration_s;
  rig.seed = spec.seed;
  rig.fault_seed = spec.fault_seed;
  rig.faults = spec.faults;
  // The sprint covers the whole run (the rig default keeps them equal
  // too); the overload policy then follows the scenario's horizon.
  rig.sprint.burst_duration_s = spec.duration_s;

  // --- surge lowering ----------------------------------------------------
  workload::InteractiveTraceConfig& trace = rig.interactive;
  if (!spec.surges.empty()) {
    // Trapezoid per surge on the baseline mean. Adjacent points can
    // coincide (a surge starting exactly where the previous down-ramp
    // lands); push() drops those so the envelope stays strictly sorted.
    const double base = trace.mean_utilization;
    double last_t = -1.0;
    const auto push = [&](double t_s, double mean) {
      if (t_s > last_t) {
        trace.envelope.push_back({t_s, mean});
        last_t = t_s;
      }
    };
    if (spec.surges.front().start_s > 0.0) push(0.0, base);
    for (const SurgeSpec& surge : spec.surges) {
      push(surge.start_s, base);
      push(surge.start_s + surge.ramp_s, surge.peak_utilization);
      push(surge.end_s(), surge.peak_utilization);
      push(surge.end_s() + surge.ramp_s, base);
    }
  }
  return fc;
}

}  // namespace sprintcon::scenario
