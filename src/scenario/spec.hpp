// The scenario description language (DESIGN.md §12): one declarative text
// file describes a whole facility experiment — fleet composition, rack
// shape, workload mix, timed traffic surges, grid/utility events, an
// embedded fault plan, the controller policy, and run duration/seed. It is
// the only way to describe a facility run: `facility_dashboard --scenario
// FILE` takes nothing else that shapes the experiment.
//
// One section keyword per line followed by key=value pairs, '#' comments,
// blank lines ignored:
//
//     scenario name=black-friday-surge seed=42 duration=900
//     fleet    racks=6 staggered=true
//     rack     servers=16 policy=sprintcon ups_wh=400
//     workload mean_util=0.45 queueing=true
//     surge    start=240 duration=300 peak=0.95 ramp=45
//     grid     derate start=300 duration=300 fraction=0.85
//     fault    meter_noise start=0 duration=900 magnitude=0.05
//
// `scenario` appears exactly once (first); `fleet`/`rack`/`workload` at
// most once; `surge`/`grid`/`fault` repeat. The body of every `fault`
// line is one FaultSpec in the grammar of FaultSpec::parse_line
// (src/fault/fault.hpp).
//
// ScenarioSpec is a value type: parse -> to_text -> parse is the identity
// (tests/scenario_test.cpp pins the round-trip for every shipped scenario
// and for fuzzer-generated specs). Loading and lowering to a runnable
// FacilityConfig live in scenario/loader.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "fault/fault.hpp"
#include "scenario/facility.hpp"

namespace sprintcon::scenario {

/// Spec-grammar token for a policy ("sprintcon", "sgct", "sgct_v1",
/// "sgct_v2", "power_cap") — distinct from to_string(Policy), which
/// returns the human-facing display name.
const char* policy_token(Policy policy) noexcept;

/// Inverse of policy_token; throws InvalidArgumentError on unknown names.
Policy parse_policy_token(std::string_view token);

/// One timed traffic surge: the interactive mean utilization ramps from
/// the workload baseline to `peak_utilization` over `ramp_s`, holds for
/// the window, then ramps back down. Lowered onto the interactive trace
/// envelope (workload::EnvelopePoint) by the loader.
struct SurgeSpec {
  double start_s = 0.0;
  double duration_s = 0.0;
  double peak_utilization = 0.9;
  double ramp_s = 30.0;

  double end_s() const noexcept { return start_s + duration_s; }
  /// One "surge start=... duration=... peak=... ramp=..." line.
  std::string to_line() const;
  void validate() const;

  bool operator==(const SurgeSpec&) const = default;
};

/// Grid/utility event families. Extend here, in to_string/parse, and in
/// the loader's lowering (DESIGN.md §12 lists the extension recipe).
enum class GridEventKind {
  /// Primary feed lost for the window; the rack rides through on the UPS.
  kOutage,
  /// Demand-response curtailment: the utility derates the feed to
  /// `fraction` of the breaker rating for the window.
  kDerate,
};

const char* to_string(GridEventKind kind) noexcept;
GridEventKind parse_grid_event_kind(std::string_view name);

/// One scheduled grid event. Lowered onto the fault taxonomy by the
/// loader (outage -> utility_outage, derate -> cb_drift).
struct GridEventSpec {
  GridEventKind kind = GridEventKind::kOutage;
  double start_s = 0.0;
  double duration_s = 0.0;
  /// Kept fraction of the CB rating (kDerate only), in (0, 1].
  double fraction = 1.0;

  double end_s() const noexcept { return start_s + duration_s; }
  /// One "grid <kind> start=... duration=... [fraction=...]" line.
  std::string to_line() const;
  void validate() const;

  bool operator==(const GridEventSpec&) const = default;
};

/// Where one fleet/rack/workload key lives: a pointer into the runtime
/// configuration it lowers to, typed as the key's value (number, count,
/// bool or policy token).
using KeyField = std::variant<double*, std::size_t*, bool*, Policy*>;

/// One `key=value` of a fleet, rack or workload line. The tables behind
/// key_sections() are the only place a key is defined: the loader parses
/// into `field`, to_text() prints it, operator== compares it and compile()
/// copies it. A key's default and range are its field's own (the
/// destination config's initializer and validate()).
struct SectionKey {
  const char* name;
  KeyField (*field)(FacilityConfig&);

  /// The same field of a const config; callers only read through it.
  KeyField read(const FacilityConfig& config) const {
    return field(const_cast<FacilityConfig&>(config));
  }
};

/// A fleet, rack or workload line: its keyword and its keys.
struct Section {
  const char* name;
  std::span<const SectionKey> keys;
};

/// The fleet, rack and workload sections, in canonical print order.
std::span<const Section> key_sections() noexcept;

/// One complete declarative scenario.
struct ScenarioSpec {
  std::string name;
  std::uint64_t seed = 42;
  std::uint64_t fault_seed = 1729;
  double duration_s = 900.0;
  double dt_s = 1.0;

  /// The fleet/rack/workload keys, held in the fields they lower to.
  /// Only the fields key_sections() names belong to the spec; compile()
  /// copies exactly those onto a default FacilityConfig.
  FacilityConfig facility;
  std::vector<SurgeSpec> surges;
  std::vector<GridEventSpec> grid_events;
  /// Embedded fault plan (one `fault <FaultSpec::to_line()>` per spec).
  fault::FaultPlan faults;

  /// Validate the header, `facility` (its own validate()), every surge,
  /// grid event and fault, plus the cross-cutting rules (recovery needs
  /// SprintCon; surges sorted and non-overlapping including their ramps);
  /// throws InvalidArgumentError. The loader runs the same checks with
  /// file:line context while parsing.
  void validate() const;

  /// Canonical text form (every key explicit, %.17g numbers): feeding it
  /// back through the loader reproduces this spec exactly.
  std::string to_text() const;

  /// Compares the header, every key and every surge/grid/fault line.
  bool operator==(const ScenarioSpec& other) const;
};

}  // namespace sprintcon::scenario
