// Long-horizon chaos soak (opt-in: -DSPRINTCON_SOAK=ON, ctest -L soak).
//
// Seeded random multi-fault plans — overlapping windows, every
// recoverable family plus sensing noise — run across a sharded facility
// with the recovery engine closing the loop. For every seed:
//   - the run completes (no crash, no deadlock, degrade policy holds),
//   - racks that ride out the chaos (no brownout) end fully recovered:
//     every ladder unwound, nothing quarantined, no breaker trip, and
//   - a rack the physics did kill (e.g. an actuator stuck at peak while
//     the discharge circuit is down — no controller can shed that load)
//     is reported honestly: outage latched, quarantine still engaged.
// Across the whole soak the engine must have remediated and closed real
// incidents, and most rack-runs must survive. This is the statistical
// complement of recovery_test.cpp's targeted MTTR cases: breadth over
// precision, hence opt-in rather than tier-1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "scenario/facility.hpp"

namespace sprintcon::scenario {
namespace {

constexpr double kDuration = 1800.0;
// Every window ends by kDuration - kSettle so the ladders have room to
// unwind before the run ends (permanent ups_fade is handled by the
// rebaseline rung, not by waiting).
constexpr double kSettle = 400.0;

fault::FaultPlan random_plan(std::mt19937_64& rng) {
  // Recoverable families (each mapped to a playbook ladder) plus noise
  // that the health rules must ride through without tripping ladders.
  const fault::FaultKind kinds[] = {
      fault::FaultKind::kDvfsStuck,     fault::FaultKind::kMeterDropout,
      fault::FaultKind::kDischargeFail, fault::FaultKind::kUpsFade,
      fault::FaultKind::kMeterNoise,    fault::FaultKind::kDvfsLag,
  };
  std::uniform_int_distribution<std::size_t> pick(0, std::size(kinds) - 1);
  std::uniform_real_distribution<double> start(60.0, 800.0);
  std::uniform_real_distribution<double> duration(60.0, 400.0);
  std::uniform_int_distribution<int> count(3, 6);

  fault::FaultPlan plan;
  const int n = count(rng);
  bool has_recoverable = false;
  for (int i = 0; i < n; ++i) {
    fault::FaultSpec spec;
    spec.kind = kinds[pick(rng)];
    spec.start_s = start(rng);
    spec.duration_s =
        std::min(duration(rng), kDuration - kSettle - spec.start_s);
    if (spec.duration_s <= 1.0) spec.duration_s = 60.0;
    switch (spec.kind) {
      case fault::FaultKind::kMeterNoise:
        spec.magnitude = 0.03;
        break;
      case fault::FaultKind::kDvfsLag:
        spec.magnitude = 5.0;  // settle time constant, seconds
        break;
      case fault::FaultKind::kUpsFade:
        spec.magnitude = 0.6;  // keeps 60% of capacity, permanent
        spec.duration_s = std::numeric_limits<double>::infinity();
        has_recoverable = true;
        break;
      case fault::FaultKind::kDischargeFail:
        spec.magnitude = 0.3;  // delivers 30% of command
        has_recoverable = true;
        break;
      default:  // dvfs_stuck / meter_dropout need no magnitude
        has_recoverable = true;
        break;
    }
    plan.faults.push_back(spec);
  }
  if (!has_recoverable) {
    // Guarantee the engine has something to do in every iteration.
    plan.faults.push_back({.kind = fault::FaultKind::kDvfsStuck,
                           .start_s = 200.0,
                           .duration_s = 300.0});
  }
  plan.validate();
  return plan;
}

TEST(Soak, RandomOverlappingFaultsAcrossShardedFleet) {
  std::uint64_t total_actions = 0;
  std::uint64_t total_resolved = 0;
  std::size_t rack_runs = 0;
  std::size_t survivors = 0;
  for (const std::uint64_t seed : {3u, 17u, 29u, 53u, 71u, 88u}) {
    std::mt19937_64 rng(seed);
    FacilityConfig cfg;
    cfg.num_racks = 6;
    cfg.run_threads = 3;
    cfg.epoch_s = 30.0;
    cfg.observability = true;
    cfg.recovery = true;
    cfg.worker_failure = WorkerFailurePolicy::kDegrade;
    // Paper-default rack sizing (16 servers, 400 Wh UPS): the envelope
    // recovery_test's targeted MTTR cases are known to survive in.
    cfg.rack.duration_s = kDuration;
    cfg.rack.use_request_queues = true;
    cfg.rack.seed = seed;
    cfg.rack.fault_seed = seed * 977 + 13;
    cfg.rack.faults = random_plan(rng);

    const std::string tag = "seed=" + std::to_string(seed);
    Facility facility(cfg);
    ASSERT_NO_THROW(facility.run()) << tag;
    EXPECT_EQ(facility.num_failed_racks(), 0u) << tag;

    for (std::size_t r = 0; r < facility.num_racks(); ++r) {
      const std::string rtag = tag + " rack=" + std::to_string(r);
      Rig& rig = facility.rig(r);
      ASSERT_NE(rig.recovery(), nullptr) << rtag;
      ++rack_runs;
      const metrics::RunSummary s = rig.summary();
      if (s.outage_start_s >= 0.0) {
        // Physics won: the rack browned out and an outage is terminal.
        // The engine must at least have fought (the quarantine that ends
        // the sprint is the last rung) and the loss must be visible.
        EXPECT_GT(rig.recovery()->actions_taken(), 0u)
            << rtag << ": browned out without any remediation attempt";
        continue;
      }
      ++survivors;
      // Survivors come back whole: safety held and every ladder unwound.
      EXPECT_EQ(s.cb_trips, 0) << rtag << ": breaker tripped";
      EXPECT_EQ(rig.recovery()->active_incidents(), 0u)
          << rtag << ": ladder never unwound";
      EXPECT_FALSE(rig.recovery()->quarantined())
          << rtag << ": still quarantined at run end";
      total_actions += rig.recovery()->actions_taken();
      total_resolved += rig.recovery()->incidents_resolved();
    }
    // Every rack still quarantined at the end must be one the run lost.
    for (const std::size_t r : facility.quarantined_racks()) {
      EXPECT_GE(facility.rig(r).summary().outage_start_s, 0.0)
          << tag << ": healthy rack " << r << " left quarantined";
    }
  }
  // Chaos must not mean collapse: most rack-runs ride it out, and across
  // the soak the engine did real work and closed real incidents.
  EXPECT_GE(survivors * 2, rack_runs)
      << "more than half the rack-runs browned out";
  EXPECT_GT(total_actions, 0u);
  EXPECT_GT(total_resolved, 0u);
}

}  // namespace
}  // namespace sprintcon::scenario
