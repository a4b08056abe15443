// Deterministic scenario fuzzer (DESIGN.md §12).
//
// A seeded generator composes random *valid* ScenarioSpecs — fleet sizes,
// rack shapes, workload mixes, surge schedules, embedded faults (utility
// outages and derates among them) — and pushes every one through the full
// stack:
//
//   1. round-trip: parse(to_text(spec)) == spec (serializer and loader
//      agree bit-for-bit, the same property scenario_test pins for the
//      shipped library);
//   2. safety: run the compiled facility and assert the invariants that
//      must hold under *any* valid scenario — no NaN/Inf in any recorded
//      channel, battery SOC within [0, 1], non-negative powers, and an
//      open breaker carries no current (post-protection the feed is cut);
//   3. determinism: sequential (run_threads=1) and sharded
//      (run_threads=2) execution produce bit-identical traces.
//
// The smoke corpus is also pinned: tests/golden/scenario_fuzz_digests.txt
// holds one line per smoke spec with an FNV-1a digest of its canonical
// text and of its sequential run's channels, so any change to how a spec
// prints or lowers shows up as a changed line (regenerate with
// SPRINTCON_GOLDEN_UPDATE=1 ./build/tests/scenario_fuzz_test).
//
// Everything is seeded — no wall clock, no global state — so a failure
// reproduces from the printed spec text alone. The default run keeps CI
// fast with a smoke subset; SPRINTCON_SCENARIO_FUZZ_FULL=1 widens to the
// full >=100-spec sweep (wired into scripts/run_sanitizer.sh and the
// nightly lane).
//
// A second fuzzer attacks the *parser* the way export_fuzz_test attacks
// the JSON exporters: truncations and byte mutations of well-formed
// scenario text must either parse or throw InvalidArgumentError — never
// crash, never throw anything untyped.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/validation.hpp"
#include "fault/fault.hpp"
#include "scenario/facility.hpp"
#include "scenario/loader.hpp"
#include "scenario/spec.hpp"

namespace sprintcon::scenario {
namespace {

constexpr std::uint64_t kFuzzSeed = 0xC0FFEE;
constexpr std::size_t kSmokeSpecs = 24;
constexpr std::size_t kFullSpecs = 120;
constexpr const char* kDigestPath =
    SPRINTCON_GOLDEN_DIR "/scenario_fuzz_digests.txt";

std::size_t spec_budget() {
  const char* full = std::getenv("SPRINTCON_SCENARIO_FUZZ_FULL");
  return (full != nullptr && full[0] != '\0') ? kFullSpecs : kSmokeSpecs;
}

const char* const kChannels[] = {
    "total_power_w", "cb_power_w",  "ups_power_w",      "cb_budget_w",
    "unserved_w",    "freq_batch",  "freq_interactive", "battery_soc",
    "breaker_open",  "cb_thermal_stress",
};

/// One random valid scenario. Sizes are kept small (short horizons, few
/// racks) so the full sweep stays seconds, not minutes; every branch of
/// the grammar is still exercised.
ScenarioSpec random_spec(Rng& rng, std::size_t index) {
  ScenarioSpec spec;
  spec.name = "fuzz-" + std::to_string(index);
  spec.seed = rng();
  spec.fault_seed = rng();
  spec.duration_s = 60.0 + 30.0 * static_cast<double>(rng.uniform_index(5));
  spec.dt_s = 1.0;

  spec.facility.num_racks = 1 + rng.uniform_index(3);
  spec.facility.staggered = rng.bernoulli(0.5);
  spec.facility.epoch_s = rng.bernoulli(0.5) ? 15.0 : 30.0;
  spec.facility.health = rng.bernoulli(0.25);

  RigConfig& rack = spec.facility.rack;
  rack.num_servers = 2 + 2 * rng.uniform_index(3);  // 2, 4, 6
  rack.interactive_cores_per_server = 2 + rng.uniform_index(5);
  rack.dedicated_servers = rng.bernoulli(0.2);
  constexpr Policy kPolicies[] = {Policy::kSprintCon, Policy::kSgct,
                                  Policy::kSgctV1, Policy::kSgctV2,
                                  Policy::kPowerCap};
  rack.policy = kPolicies[rng.uniform_index(5)];
  rack.ups_capacity_wh = rng.uniform(100.0, 400.0);
  rack.supercap_wh = rng.bernoulli(0.25) ? rng.uniform(5.0, 30.0) : 0.0;
  rack.batch_deadline_s = spec.duration_s * rng.uniform(0.7, 0.95);
  rack.batch_work_scale = rng.uniform(0.3, 0.7);
  // Rating scaled to the fleet shape, as the canonical rig does.
  rack.sprint.cb_rated_w = static_cast<double>(rack.num_servers) * 300.0 *
                          rng.uniform(0.55, 0.75);
  rack.sprint.cb_overload_degree = rng.uniform(1.1, 1.5);
  rack.sprint.cb_overload_duration_s = rng.uniform(40.0, 120.0);
  rack.sprint.cb_recovery_duration_s = rng.uniform(100.0, 300.0);

  workload::InteractiveTraceConfig& trace = rack.interactive;
  trace.mean_utilization = rng.uniform(0.25, 0.8);
  trace.idle_utilization = trace.mean_utilization * rng.uniform(0.1, 0.5);
  trace.ramp_up_s = rng.uniform(0.0, 30.0);
  trace.swell_amplitude = rng.uniform(0.0, 0.15);
  trace.noise_sigma = rng.uniform(0.0, 0.1);
  rack.use_request_queues = rng.bernoulli(0.3);

  // Surge schedule: sequential windows that respect the no-overlap rule
  // (next start >= previous end + previous ramp) and fit the horizon.
  double t = 10.0 + static_cast<double>(rng.uniform_index(20));
  const std::size_t want_surges = rng.uniform_index(3);
  for (std::size_t i = 0; i < want_surges; ++i) {
    SurgeSpec surge;
    surge.start_s = t;
    surge.ramp_s = 3.0 + static_cast<double>(rng.uniform_index(8));
    surge.duration_s =
        surge.ramp_s + 5.0 + static_cast<double>(rng.uniform_index(20));
    surge.peak_utilization = rng.uniform(0.7, 1.0);
    if (surge.end_s() + surge.ramp_s >= spec.duration_s) break;
    spec.surges.push_back(surge);
    t = surge.end_s() + surge.ramp_s +
        static_cast<double>(rng.uniform_index(15));
  }

  // Utility events (outages and demand-response derates) are drawn before
  // the other faults but listed after them: the pinned corpus
  // (kDigestPath) was recorded in that draw and fault order.
  std::vector<fault::FaultSpec> utility;
  const std::size_t want_utility = rng.uniform_index(3);
  for (std::size_t i = 0; i < want_utility; ++i) {
    fault::FaultSpec f;
    f.start_s = rng.uniform(0.0, spec.duration_s * 0.8);
    if (rng.bernoulli(0.5)) {
      f.kind = fault::FaultKind::kUtilityOutage;
      f.duration_s = rng.uniform(3.0, 15.0);
    } else {
      f.kind = fault::FaultKind::kCbDrift;
      f.duration_s = rng.uniform(10.0, 60.0);
      f.magnitude = rng.uniform(0.7, 0.95);
    }
    utility.push_back(f);
  }

  const std::size_t want_faults = rng.uniform_index(3);
  for (std::size_t i = 0; i < want_faults; ++i) {
    fault::FaultSpec f;
    f.start_s = rng.uniform(0.0, spec.duration_s * 0.8);
    f.duration_s = rng.uniform(5.0, 30.0);
    switch (rng.uniform_index(5)) {
      case 0:
        f.kind = fault::FaultKind::kMeterNoise;
        f.magnitude = rng.uniform(0.01, 0.1);
        break;
      case 1:
        f.kind = fault::FaultKind::kDvfsStuck;
        break;
      case 2:
        f.kind = fault::FaultKind::kControlDrop;
        f.magnitude = rng.uniform(0.05, 0.5);
        break;
      case 3:
        f.kind = fault::FaultKind::kCbDrift;
        f.magnitude = rng.uniform(0.85, 0.99);
        break;
      default:
        f.kind = fault::FaultKind::kUtilityOutage;
        f.duration_s = rng.uniform(3.0, 12.0);
        break;
    }
    spec.faults.faults.push_back(f);
  }
  spec.faults.faults.insert(spec.faults.faults.end(), utility.begin(),
                            utility.end());
  return spec;
}

/// Safety invariants that must hold for any valid scenario, checked over
/// every recorded sample of every rack.
void expect_safety_invariants(Facility& facility, const std::string& text) {
  for (std::size_t r = 0; r < facility.num_racks(); ++r) {
    const sim::TraceRecorder& rec = facility.rig(r).recorder();
    for (const char* name : kChannels) {
      const std::vector<double>& values = rec.series(name).values();
      ASSERT_FALSE(values.empty()) << name;
      for (const double v : values) {
        ASSERT_TRUE(std::isfinite(v))
            << "NaN/Inf in " << name << " (rack " << r << ") for spec:\n"
            << text;
      }
    }
    const std::vector<double>& soc = rec.series("battery_soc").values();
    for (const double v : soc) {
      ASSERT_GE(v, -1e-12) << "SOC below 0 for spec:\n" << text;
      ASSERT_LE(v, 1.0 + 1e-12) << "SOC above 1 for spec:\n" << text;
    }
    const std::vector<double>& cb = rec.series("cb_power_w").values();
    const std::vector<double>& open = rec.series("breaker_open").values();
    const std::vector<double>& unserved = rec.series("unserved_w").values();
    ASSERT_EQ(cb.size(), open.size());
    for (std::size_t i = 0; i < cb.size(); ++i) {
      ASSERT_GE(cb[i], 0.0) << "negative CB power for spec:\n" << text;
      ASSERT_GE(unserved[i], 0.0) << "negative unserved for spec:\n" << text;
      if (open[i] != 0.0) {
        // Post-protection: an open breaker carries no current, so the
        // draw can never sit above the rated/derated limit.
        ASSERT_EQ(cb[i], 0.0)
            << "open breaker carrying power at sample " << i << " for:\n"
            << text;
      }
    }
  }
}

TEST(ScenarioFuzz, RandomSpecsRoundTripRunSafelyAndDeterministically) {
  Rng rng(kFuzzSeed);
  const std::size_t budget = spec_budget();
  for (std::size_t i = 0; i < budget; ++i) {
    const ScenarioSpec spec = random_spec(rng, i);
    ASSERT_NO_THROW(spec.validate()) << spec.to_text();
    const std::string text = spec.to_text();

    // 1. Round-trip identity through the canonical text form.
    const ScenarioSpec reparsed = parse_scenario_string(text);
    ASSERT_EQ(spec, reparsed) << text;

    // 2. Sequential run + safety invariants.
    FacilityConfig sequential = compile(spec);
    sequential.run_threads = 1;
    Facility seq(sequential);
    seq.run();
    expect_safety_invariants(seq, text);

    // 3. Sharded run is bit-identical to sequential.
    FacilityConfig sharded = compile(spec);
    sharded.run_threads = 2;
    Facility shard(sharded);
    shard.run();
    for (std::size_t r = 0; r < seq.num_racks(); ++r) {
      for (const char* name : kChannels) {
        const std::vector<double>& a =
            seq.rig(r).recorder().series(name).values();
        const std::vector<double>& b =
            shard.rig(r).recorder().series(name).values();
        ASSERT_EQ(a.size(), b.size()) << name;
        for (std::size_t s = 0; s < a.size(); ++s) {
          ASSERT_EQ(a[s], b[s])
              << "sharded diverged from sequential: rack " << r << " "
              << name << " sample " << s << " for spec:\n"
              << text;
        }
      }
    }
  }
}

/// FNV-1a over `n` bytes, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// "fuzz-<i> text=<digest> channels=<digest>" for one smoke spec: its
/// canonical text, and every channel of every rack of a sequential run
/// (channel name, then each sample's bit pattern).
std::string digest_line(const ScenarioSpec& spec) {
  const std::string text = spec.to_text();
  FacilityConfig config = compile(spec);
  config.run_threads = 1;
  Facility facility(config);
  facility.run();
  std::uint64_t channels = kFnvOffset;
  for (std::size_t r = 0; r < facility.num_racks(); ++r) {
    for (const char* name : kChannels) {
      channels = fnv1a(channels, name, std::strlen(name));
      for (const double v :
           facility.rig(r).recorder().series(name).values()) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        channels = fnv1a(channels, &bits, sizeof bits);
      }
    }
  }
  char buf[96];
  std::snprintf(buf, sizeof buf, " text=%016llx channels=%016llx",
                static_cast<unsigned long long>(
                    fnv1a(kFnvOffset, text.data(), text.size())),
                static_cast<unsigned long long>(channels));
  return spec.name + buf;
}

// The smoke corpus prints and runs exactly as pinned: a refactor of the
// spec types, the serializer or compile() must leave every line unchanged.
TEST(ScenarioFuzz, SmokeCorpusMatchesGoldenDigests) {
  Rng rng(kFuzzSeed);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < kSmokeSpecs; ++i) {
    lines.push_back(digest_line(random_spec(rng, i)));
  }

  if (const char* update = std::getenv("SPRINTCON_GOLDEN_UPDATE");
      update != nullptr && update[0] != '\0') {
    std::ofstream out(kDigestPath);
    ASSERT_TRUE(out) << "cannot write " << kDigestPath;
    for (const std::string& line : lines) out << line << '\n';
    GTEST_SKIP() << "fuzz digests regenerated at " << kDigestPath;
  }

  std::ifstream in(kDigestPath);
  ASSERT_TRUE(in) << "missing " << kDigestPath
                  << " (regenerate with SPRINTCON_GOLDEN_UPDATE=1)";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_EQ(golden.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], golden[i]) << "smoke spec " << i;
  }
}

// The generator itself is deterministic: the same seed composes the same
// spec sequence (otherwise a fuzz failure would not reproduce).
TEST(ScenarioFuzz, GeneratorIsDeterministic) {
  Rng a(kFuzzSeed);
  Rng b(kFuzzSeed);
  for (std::size_t i = 0; i < 16; ++i) {
    ASSERT_EQ(random_spec(a, i), random_spec(b, i));
  }
}

// Parser fuzz: truncations and byte mutations of valid scenario text
// must parse or throw InvalidArgumentError — nothing else.
TEST(ScenarioFuzz, ParserSurvivesTruncationsAndMutations) {
  Rng rng(kFuzzSeed ^ 0x5eed);
  const ScenarioSpec seedling = random_spec(rng, 0);
  const std::string base = seedling.to_text();

  const auto try_parse = [](const std::string& text) {
    try {
      const ScenarioSpec spec = parse_scenario_string(text, "mutant.scn");
      (void)spec;
    } catch (const InvalidArgumentError&) {
      // Typed rejection is the contract.
    }
    // Anything else (segfault, std::bad_alloc, untyped throw) fails the
    // test by escaping.
  };

  // Every truncation prefix (byte-level, so tokens and numbers split).
  for (std::size_t len = 0; len <= base.size(); ++len) {
    try_parse(base.substr(0, len));
  }

  // Seeded byte mutations: overwrite, insert, delete.
  constexpr char kBytes[] = "=. \n\t#ae0123456789-_xinfscenario";
  for (std::size_t round = 0; round < 400; ++round) {
    std::string mutant = base;
    const std::size_t edits = 1 + rng.uniform_index(4);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.uniform_index(mutant.size());
      const char b = kBytes[rng.uniform_index(sizeof(kBytes) - 1)];
      switch (rng.uniform_index(3)) {
        case 0:
          mutant[pos] = b;
          break;
        case 1:
          mutant.insert(pos, 1, b);
          break;
        default:
          mutant.erase(pos, 1);
          break;
      }
      if (mutant.empty()) mutant = "\n";
    }
    try_parse(mutant);
  }

  // Crossover splices of two valid specs.
  const std::string other = random_spec(rng, 1).to_text();
  for (std::size_t round = 0; round < 50; ++round) {
    const std::size_t a = rng.uniform_index(base.size());
    const std::size_t b = rng.uniform_index(other.size());
    try_parse(base.substr(0, a) + other.substr(b));
  }
}

}  // namespace
}  // namespace sprintcon::scenario
