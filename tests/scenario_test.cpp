// Scenario description language tests (DESIGN.md §12):
//   - the shipped library (examples/scenarios/*.scn) and the benchmark
//     workloads (perfbench/workloads/*.scn) parse, validate, compile, and
//     survive the parse -> to_text -> parse round-trip; their canonical
//     text is pinned under tests/golden/canonical/ (regenerate with
//     SPRINTCON_GOLDEN_UPDATE=1 ./build/tests/scenario_test);
//   - rolling-brownout compiles to the brownout drill's five fault specs,
//     and a rig given those specs in code produces a bit-identical trace;
//   - every loader diagnostic carries "<file>:<line>:" and fires on the
//     malformed input it documents;
//   - compile() lowers surges onto the interactive envelope and grid
//     events onto the fault taxonomy as specified.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "scenario/loader.hpp"
#include "scenario/rig.hpp"
#include "scenario/spec.hpp"

namespace sprintcon::scenario {
namespace {

constexpr const char* kScenarioDir = SPRINTCON_SCENARIO_DIR;
constexpr const char* kWorkloadDir = SPRINTCON_WORKLOAD_DIR;
constexpr const char* kCanonicalDir = SPRINTCON_GOLDEN_DIR "/canonical";

std::vector<std::filesystem::path> scenario_files(const char* dir) {
  std::vector<std::filesystem::path> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".scn") out.push_back(entry.path());
  }
  return out;
}

std::vector<std::filesystem::path> shipped_scenarios() {
  return scenario_files(kScenarioDir);
}

/// The shipped library plus the benchmark workloads: every scenario file
/// the repository runs.
std::vector<std::filesystem::path> every_scenario() {
  std::vector<std::filesystem::path> out = shipped_scenarios();
  for (const auto& path : scenario_files(kWorkloadDir)) out.push_back(path);
  return out;
}

// A minimal valid prefix used by the malformed-line tests below.
constexpr const char* kHeader = "scenario name=t duration=900 dt=1\n";

/// The parse must throw InvalidArgumentError whose message starts with
/// "<file>:<line>:" and mentions `needle`.
void expect_diagnostic(const std::string& text, int line,
                       const std::string& needle) {
  try {
    parse_scenario_string(text, "spec.scn");
    FAIL() << "expected a diagnostic containing '" << needle << "'";
  } catch (const InvalidArgumentError& e) {
    const std::string what = e.what();
    const std::string prefix = "spec.scn:" + std::to_string(line) + ":";
    EXPECT_EQ(what.rfind(prefix, 0), 0u)
        << "diagnostic lacks '" << prefix << "' position: " << what;
    EXPECT_NE(what.find(needle), std::string::npos)
        << "diagnostic lacks '" << needle << "': " << what;
  }
}

// ---------------------------------------------------------------------------
// Shipped library
// ---------------------------------------------------------------------------

TEST(ScenarioLibrary, ShipsAtLeastFourNamedScenarios) {
  EXPECT_GE(shipped_scenarios().size(), 4u);
}

TEST(ScenarioLibrary, EveryScenarioLoadsValidatesAndCompiles) {
  for (const std::filesystem::path& path : every_scenario()) {
    SCOPED_TRACE(path.string());
    const ScenarioSpec spec = load_scenario(path.string());
    // The file name is the scenario's identity everywhere (goldens,
    // update_golden.py --scenario NAME), so the two must agree.
    EXPECT_EQ(spec.name, path.stem().string());
    EXPECT_NO_THROW(spec.validate());
    const FacilityConfig config = compile(spec);
    EXPECT_EQ(config.num_racks, spec.facility.num_racks);
    EXPECT_NO_THROW(config.validate());
  }
}

TEST(ScenarioLibrary, RoundTripIsIdentity) {
  for (const std::filesystem::path& path : every_scenario()) {
    SCOPED_TRACE(path.string());
    const ScenarioSpec spec = load_scenario(path.string());
    const std::string text = spec.to_text();
    const ScenarioSpec reparsed = parse_scenario_string(text);
    EXPECT_EQ(spec, reparsed) << "canonical text:\n" << text;
    // And the canonical form is a fixed point.
    EXPECT_EQ(text, reparsed.to_text());
  }
}

// The canonical text of every scenario file is pinned byte for byte, so a
// change to the serializer (key order, number format, defaults) shows up
// as a diff here. Goldens and scenario files correspond one to one.
TEST(ScenarioLibrary, CanonicalTextMatchesGoldens) {
  const char* update = std::getenv("SPRINTCON_GOLDEN_UPDATE");
  const bool regenerate = update != nullptr && update[0] != '\0';
  std::set<std::string> names;
  for (const std::filesystem::path& path : every_scenario()) {
    SCOPED_TRACE(path.string());
    const std::string name = path.stem().string();
    names.insert(name);
    const std::string text = load_scenario(path.string()).to_text();
    const std::filesystem::path golden =
        std::filesystem::path(kCanonicalDir) / (name + ".scn");
    if (regenerate) {
      std::filesystem::create_directories(kCanonicalDir);
      std::ofstream(golden) << text;
      continue;
    }
    std::ifstream in(golden);
    ASSERT_TRUE(in) << "missing canonical golden " << golden
                    << " (regenerate with SPRINTCON_GOLDEN_UPDATE=1)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(text, want.str());
  }
  for (const std::filesystem::path& golden : scenario_files(kCanonicalDir)) {
    EXPECT_TRUE(names.count(golden.stem().string()) != 0)
        << "stale canonical golden without a scenario: " << golden;
  }
}

// ---------------------------------------------------------------------------
// rolling-brownout's embedded brownout drill
// ---------------------------------------------------------------------------

/// The brownout drill, written out spec by spec: noisy metering, an aged
/// breaker, a mid-sprint utility outage with control-plane flakiness, and
/// stuck DVFS actuators during recovery.
fault::FaultPlan brownout_drill() {
  using fault::FaultKind;
  using fault::FaultSpec;
  return {{
      FaultSpec{.kind = FaultKind::kMeterNoise,
                .duration_s = 900.0,
                .magnitude = 0.05},
      FaultSpec{.kind = FaultKind::kCbDrift, .magnitude = 0.95},
      FaultSpec{.kind = FaultKind::kUtilityOutage,
                .start_s = 300.0,
                .duration_s = 45.0},
      FaultSpec{.kind = FaultKind::kControlDrop,
                .start_s = 300.0,
                .duration_s = 45.0,
                .magnitude = 0.2},
      FaultSpec{.kind = FaultKind::kDvfsStuck,
                .start_s = 500.0,
                .duration_s = 20.0},
  }};
}

TEST(ScenarioLibrary, RollingBrownoutEmbedsTheBrownoutDrillPlan) {
  // compile() puts the file's five `fault` lines onto every rack, in order.
  const ScenarioSpec spec =
      load_scenario(std::string(kScenarioDir) + "/rolling-brownout.scn");
  EXPECT_EQ(compile(spec).rack.faults, brownout_drill());
}

TEST(ScenarioLibrary, EmbeddedAndLegacyFaultPathsAreBitIdentical) {
  const ScenarioSpec spec =
      load_scenario(std::string(kScenarioDir) + "/rolling-brownout.scn");
  const FacilityConfig compiled = compile(spec);

  // The same rack given the drill's specs in code instead of from the file.
  RigConfig in_code = compiled.rack;
  in_code.faults = brownout_drill();

  Rig a(compiled.rack);
  Rig b(in_code);
  a.run();
  b.run();
  for (const char* channel : {"total_power_w", "cb_power_w", "battery_soc",
                              "freq_interactive", "freq_batch"}) {
    const std::vector<double>& va = a.recorder().series(channel).values();
    const std::vector<double>& vb = b.recorder().series(channel).values();
    ASSERT_EQ(va.size(), vb.size()) << channel;
    for (std::size_t i = 0; i < va.size(); ++i) {
      ASSERT_EQ(va[i], vb[i]) << channel << " sample " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

TEST(ScenarioCompile, SurgesLowerOntoTheInteractiveEnvelope) {
  const ScenarioSpec spec = parse_scenario_string(
      "scenario name=t duration=900 dt=1\n"
      "workload mean_util=0.5\n"
      "surge start=100 duration=200 peak=0.9 ramp=20\n");
  const FacilityConfig config = compile(spec);
  const auto& env = config.rack.interactive.envelope;
  ASSERT_EQ(env.size(), 5u);
  EXPECT_EQ(env[0].t_s, 0.0);
  EXPECT_EQ(env[0].mean_utilization, 0.5);
  EXPECT_EQ(env[1].t_s, 100.0);
  EXPECT_EQ(env[1].mean_utilization, 0.5);
  EXPECT_EQ(env[2].t_s, 120.0);
  EXPECT_EQ(env[2].mean_utilization, 0.9);
  EXPECT_EQ(env[3].t_s, 300.0);
  EXPECT_EQ(env[3].mean_utilization, 0.9);
  EXPECT_EQ(env[4].t_s, 320.0);
  EXPECT_EQ(env[4].mean_utilization, 0.5);
}

TEST(ScenarioCompile, BackToBackSurgesKeepTheEnvelopeStrictlySorted) {
  // Second surge starts exactly where the first down-ramp lands.
  const ScenarioSpec spec = parse_scenario_string(
      "scenario name=t duration=900 dt=1\n"
      "surge start=0 duration=100 peak=0.9 ramp=20\n"
      "surge start=120 duration=100 peak=0.8 ramp=20\n");
  const FacilityConfig config = compile(spec);
  const auto& env = config.rack.interactive.envelope;
  ASSERT_GE(env.size(), 2u);
  for (std::size_t i = 1; i < env.size(); ++i) {
    EXPECT_GT(env[i].t_s, env[i - 1].t_s) << "envelope not strictly sorted";
  }
  // The compiled config must pass the trace generator's own validation.
  EXPECT_NO_THROW(config.rack.interactive.validate());
}

TEST(ScenarioCompile, GridEventsLowerOntoTheFaultTaxonomy) {
  const ScenarioSpec spec = parse_scenario_string(
      "scenario name=t duration=900 dt=1\n"
      "fault meter_noise start=0 duration=900 magnitude=0.05\n"
      "grid derate start=300 duration=300 fraction=0.85\n"
      "grid outage start=700 duration=40\n");
  const FacilityConfig config = compile(spec);
  const auto& faults = config.rack.faults.faults;
  ASSERT_EQ(faults.size(), 3u);  // explicit fault first, then grid events
  EXPECT_EQ(faults[0].kind, fault::FaultKind::kMeterNoise);
  EXPECT_EQ(faults[1].kind, fault::FaultKind::kCbDrift);
  EXPECT_EQ(faults[1].start_s, 300.0);
  EXPECT_EQ(faults[1].duration_s, 300.0);
  EXPECT_EQ(faults[1].magnitude, 0.85);
  EXPECT_EQ(faults[2].kind, fault::FaultKind::kUtilityOutage);
  EXPECT_EQ(faults[2].start_s, 700.0);
  EXPECT_EQ(faults[2].duration_s, 40.0);
}

TEST(ScenarioCompile, SprintCoversTheWholeScenario) {
  const ScenarioSpec spec =
      parse_scenario_string("scenario name=t duration=1234 dt=1\n");
  const FacilityConfig config = compile(spec);
  EXPECT_EQ(config.rack.duration_s, 1234.0);
  EXPECT_EQ(config.rack.sprint.burst_duration_s, 1234.0);
}

// ---------------------------------------------------------------------------
// Diagnostics: every documented error class reports file:line
// ---------------------------------------------------------------------------

TEST(ScenarioDiagnostics, UnknownSection) {
  expect_diagnostic(std::string(kHeader) + "flee racks=4\n", 2,
                    "unknown section 'flee'");
}

TEST(ScenarioDiagnostics, UnknownKeyPerSection) {
  expect_diagnostic(std::string(kHeader) + "fleet rack=4\n", 2,
                    "unknown fleet key 'rack'");
  expect_diagnostic(std::string(kHeader) + "rack server=4\n", 2,
                    "unknown rack key 'server'");
  expect_diagnostic(std::string(kHeader) + "workload util=0.5\n", 2,
                    "unknown workload key 'util'");
  expect_diagnostic(
      std::string(kHeader) + "surge start=1 duration=10 top=0.9\n", 2,
      "unknown surge key 'top'");
  expect_diagnostic(std::string(kHeader) + "grid outage begin=1\n", 2,
                    "unknown grid key 'begin'");
  expect_diagnostic("scenario name=t length=900\n", 1,
                    "unknown scenario key 'length'");
}

TEST(ScenarioDiagnostics, ScenarioLineMustComeFirstAndOnce) {
  expect_diagnostic("fleet racks=4\n", 1, "'scenario' line must come first");
  expect_diagnostic(std::string(kHeader) + kHeader, 2,
                    "duplicate 'scenario' line");
  try {
    parse_scenario_string("# just a comment\n", "spec.scn");
    FAIL();
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("missing required 'scenario' line"),
              std::string::npos);
  }
}

TEST(ScenarioDiagnostics, DuplicateSections) {
  expect_diagnostic(std::string(kHeader) + "fleet racks=4\nfleet racks=2\n",
                    3, "duplicate 'fleet' line");
  expect_diagnostic(
      std::string(kHeader) + "rack servers=4\nrack servers=2\n", 3,
      "duplicate 'rack' line");
  expect_diagnostic(
      std::string(kHeader) + "workload mean_util=0.5\nworkload idle_util=0.1\n",
      3, "duplicate 'workload' line");
}

TEST(ScenarioDiagnostics, MalformedNumbers) {
  // The strtod partial-accept classes export_fuzz_test hardens against.
  expect_diagnostic(std::string(kHeader) + "rack ups_wh=1.2.3\n", 2,
                    "malformed number for ups_wh");
  expect_diagnostic(std::string(kHeader) + "rack ups_wh=1e\n", 2,
                    "malformed number for ups_wh");
  expect_diagnostic(std::string(kHeader) + "rack ups_wh=12x\n", 2,
                    "malformed number for ups_wh");
  expect_diagnostic("scenario name=t duration=--5\n", 1,
                    "malformed number for duration");
}

TEST(ScenarioDiagnostics, MalformedSeedAndIntegers) {
  expect_diagnostic("scenario name=t seed=-1\n", 1,
                    "malformed integer for seed");
  expect_diagnostic("scenario name=t seed=12b\n", 1,
                    "malformed integer for seed");
  expect_diagnostic("scenario name=t seed=99999999999999999999999\n", 1,
                    "integer out of range for seed");
  expect_diagnostic(std::string(kHeader) + "fleet racks=4.5\n", 2,
                    "malformed integer for racks");
}

TEST(ScenarioDiagnostics, MalformedBoolsPoliciesAndKinds) {
  expect_diagnostic(std::string(kHeader) + "fleet staggered=yes\n", 2,
                    "malformed bool for staggered");
  expect_diagnostic(std::string(kHeader) + "rack policy=mpc\n", 2,
                    "unknown policy: mpc");
  expect_diagnostic(std::string(kHeader) + "grid blackout start=1\n", 2,
                    "unknown grid event kind: blackout");
  expect_diagnostic(std::string(kHeader) + "grid\n", 2,
                    "grid line needs a kind");
  expect_diagnostic(std::string(kHeader) + "fleet racks\n", 2,
                    "expected key=value");
}

TEST(ScenarioDiagnostics, OutOfRangeValues) {
  expect_diagnostic("scenario name=t duration=0\n", 1,
                    "duration must be positive");
  expect_diagnostic("scenario name=t duration=900 dt=1000\n", 1,
                    "dt must be positive and at most the duration");
  expect_diagnostic("scenario name=Bad duration=900\n", 1,
                    "scenario name must be [a-z0-9_-]");
  expect_diagnostic("scenario duration=900\n", 1, "scenario line needs name=");
  expect_diagnostic(std::string(kHeader) + "fleet racks=0\n", 2,
                    "at least one rack");
  expect_diagnostic(std::string(kHeader) + "rack overload=0.9\n", 2,
                    "overload degree must be >= 1");
  expect_diagnostic(std::string(kHeader) + "rack supercap_wh=-1\n", 2,
                    "supercap capacity must be non-negative");
  expect_diagnostic(std::string(kHeader) + "rack interactive_cores=9\n", 2,
                    "more interactive cores than the server has");
  expect_diagnostic(std::string(kHeader) + "rack interactive_cores=8\n", 2,
                    "SprintCon needs at least one batch core");
  expect_diagnostic(std::string(kHeader) + "rack dedicated=true servers=1\n",
                    2, "SprintCon needs at least one batch core");
  expect_diagnostic(std::string(kHeader) + "workload mean_util=1.5\n", 2,
                    "mean utilization");
  expect_diagnostic(
      std::string(kHeader) + "surge start=1 duration=10 peak=1.5\n", 2,
      "surge peak must be in (0, 1]");
  expect_diagnostic(
      std::string(kHeader) + "surge start=1 duration=10 ramp=10\n", 2,
      "surge ramp must be shorter than its duration");
  expect_diagnostic(
      std::string(kHeader) + "grid derate start=1 duration=10\n", 2,
      "derate needs fraction");
  expect_diagnostic(
      std::string(kHeader) + "grid outage start=1 duration=10 fraction=0.5\n",
      2, "outage takes no fraction");
}

// Edges the destination configs accept: a breaker that never overloads,
// and the baselines on racks without batch cores.
TEST(ScenarioDiagnostics, BoundaryValuesTheRuntimeAcceptsParse) {
  EXPECT_NO_THROW(
      parse_scenario_string(std::string(kHeader) + "rack overload=1.0\n"));
  EXPECT_NO_THROW(parse_scenario_string(
      std::string(kHeader) + "rack interactive_cores=8 policy=sgct\n"));
  EXPECT_NO_THROW(parse_scenario_string(
      std::string(kHeader) +
      "rack dedicated=true servers=1 policy=power_cap\n"));
}

TEST(ScenarioDiagnostics, OverlappingSurgeWindows) {
  // Second surge starts inside the first's down-ramp: 100+100+30 = 230.
  expect_diagnostic(std::string(kHeader) +
                        "surge start=100 duration=100 peak=0.9 ramp=30\n"
                        "surge start=220 duration=50 peak=0.8 ramp=10\n",
                    3, "overlapping surge windows");
}

TEST(ScenarioDiagnostics, BadFaultLinesCarryTheScenarioPosition) {
  expect_diagnostic(std::string(kHeader) + "fault warp start=0\n", 2,
                    "unknown fault kind");
  expect_diagnostic(
      std::string(kHeader) + "fault meter_noise start=0 magnitude=zz\n", 2,
      "malformed number");
}

TEST(ScenarioDiagnostics, RecoveryRequiresSprintCon) {
  expect_diagnostic(std::string(kHeader) + "fleet recovery=true\n" +
                        "rack policy=power_cap\n",
                    2, "recovery requires policy=sprintcon");
}

TEST(ScenarioDiagnostics, UnreadableFile) {
  EXPECT_THROW(load_scenario("/nonexistent/nope.scn"), InvalidArgumentError);
}

// Comments and blank lines are ignored; positions still count them.
TEST(ScenarioDiagnostics, CommentsDoNotShiftLineNumbers) {
  expect_diagnostic("# header comment\n\nscenario name=t duration=900\n"
                    "fleet racks=0  # inline comment\n",
                    4, "at least one rack");
}

}  // namespace
}  // namespace sprintcon::scenario
