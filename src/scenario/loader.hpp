// Loading and lowering for the scenario description language (spec.hpp).
//
// parse_scenario() reads the line-oriented text format with full
// diagnostics — every error (unknown section, unknown key, malformed
// number, out-of-range value, overlapping surge windows, bad
// duration/seed) throws InvalidArgumentError whose message starts with
// "<file>:<line>:". compile() lowers a validated spec onto the existing
// runtime: every fleet/rack/workload key is copied through its table
// (spec.hpp key_sections()), surges become interactive-envelope
// breakpoints and the `fault` lines become every rack's fault plan. One
// driver then runs any scenario:
//
//     Facility facility(compile(load_scenario(path)));
//     facility.run();
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "scenario/facility.hpp"
#include "scenario/spec.hpp"

namespace sprintcon::scenario {

/// Parse the text format. `filename` is used only for diagnostics.
/// Throws InvalidArgumentError ("<file>:<line>: message") on any error.
ScenarioSpec parse_scenario(std::istream& in, std::string_view filename);

/// Parse from a string (convenience for tests and the fuzzer).
ScenarioSpec parse_scenario_string(std::string_view text,
                                   std::string_view filename = "<string>");

/// Load from a file; throws InvalidArgumentError if unreadable.
ScenarioSpec load_scenario(const std::string& path);

/// Lower a spec to a runnable facility configuration. Validates the spec;
/// the result has observability off — drivers opt in before constructing
/// the Facility. Deterministic: identical specs compile to identical
/// configurations, so (spec, build) reproduces bit-identical runs.
FacilityConfig compile(const ScenarioSpec& spec);

}  // namespace sprintcon::scenario
