// Sharded-execution determinism sweep.
//
// The sharded Facility executor must be bit-identical to sequential
// execution under every configuration dimension that touches scheduling:
// rig counts that divide unevenly across shards, thread counts above and
// below the rig count, active fault plans (injector RNG lives per rig),
// and observability on/off (the obs emit path runs on worker threads).
// `ASSERT_EQ` on doubles here is deliberate — not NEAR: the contract is
// the same bits, not similar trajectories.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "scenario/facility.hpp"

namespace sprintcon::scenario {
namespace {

// Small but non-trivial: 2 servers x 8 cores per rig, two allocator
// epochs plus a partial third (duration not a multiple of epoch_s), one
// CB overload window.
FacilityConfig sweep_config(std::size_t racks, std::size_t threads,
                            bool faults, bool observability) {
  FacilityConfig cfg;
  cfg.num_racks = racks;
  cfg.staggered = true;
  cfg.run_threads = threads;
  cfg.epoch_s = 30.0;
  cfg.observability = observability;
  cfg.rack.num_servers = 2;
  cfg.rack.sprint.cb_rated_w = 2.0 * 300.0 * (2.0 / 3.0);
  cfg.rack.ups_capacity_wh = 50.0;
  cfg.rack.duration_s = 70.0;
  cfg.rack.completion = workload::CompletionMode::kRepeat;
  if (faults) {
    // One sensing fault and one actuation fault, both windows inside the
    // run; the injector draws from its own per-rig RNG every tick the
    // noise is active, so any cross-shard leakage would show up here.
    cfg.rack.faults.faults = {
        fault::FaultSpec::parse_line(
            "meter_noise start=10 duration=30 magnitude=0.05"),
        fault::FaultSpec::parse_line(
            "dvfs_lag start=20 duration=25 magnitude=3")};
  }
  return cfg;
}

void expect_bit_identical(Facility& reference, Facility& sharded,
                          const std::string& what) {
  ASSERT_EQ(reference.num_racks(), sharded.num_racks()) << what;
  for (std::size_t r = 0; r < reference.num_racks(); ++r) {
    const auto& rec_ref = reference.rig(r).recorder();
    const auto& rec_sh = sharded.rig(r).recorder();
    for (const std::string& channel : rec_ref.channel_names()) {
      const TimeSeries& a = rec_ref.series(channel);
      const TimeSeries& b = rec_sh.series(channel);
      ASSERT_EQ(a.size(), b.size())
          << what << " channel " << channel << " rack " << r;
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << what << " channel " << channel << " rack "
                              << r << " sample " << i;
      }
    }
  }
}

TEST(FacilityShard, SweepIsBitIdenticalToSequential) {
  const std::size_t rack_counts[] = {1, 3, 8};
  const std::size_t thread_counts[] = {2, 3, 5};
  for (const std::size_t racks : rack_counts) {
    for (const bool faults : {false, true}) {
      for (const bool obs : {false, true}) {
        Facility reference(sweep_config(racks, 1, faults, obs));
        reference.run();
        for (const std::size_t threads : thread_counts) {
          const std::string what =
              "racks=" + std::to_string(racks) +
              " threads=" + std::to_string(threads) +
              " faults=" + std::to_string(faults) +
              " obs=" + std::to_string(obs);
          Facility sharded(sweep_config(racks, threads, faults, obs));
          sharded.run();
          expect_bit_identical(reference, sharded, what);
        }
      }
    }
  }
}

TEST(FacilityShard, EpochLengthDoesNotChangeResults) {
  // Epochs only re-cut the schedule, never the simulated trajectories:
  // a whole-run epoch and a per-tick epoch must agree bit-for-bit.
  FacilityConfig coarse = sweep_config(3, 2, true, false);
  coarse.epoch_s = 1e9;  // single epoch
  FacilityConfig fine = sweep_config(3, 2, true, false);
  fine.epoch_s = 7.0;  // many uneven epochs
  Facility a(coarse);
  Facility b(fine);
  a.run();
  b.run();
  expect_bit_identical(a, b, "epoch-length");
}

TEST(FacilityShard, ShardsResolveToAtMostNumRacks) {
  FacilityConfig cfg = sweep_config(3, 16, false, false);
  Facility facility(cfg);
  EXPECT_EQ(facility.num_shards(), 3u);
}

TEST(FacilityShard, EpochCallbackSeesQuiescentRigsAtEpochTime) {
  // One shard runs on the caller, two on worker threads. Both go through
  // the same barrier, so the callback contract is the same.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("run_threads=" + std::to_string(threads));
    FacilityConfig cfg = sweep_config(4, threads, false, false);
    // 70 s at 30 s epochs = boundaries at 30, 60, 70.
    std::vector<std::pair<std::size_t, double>> seen;
    Facility* facility_ptr = nullptr;
    cfg.epoch_callback = [&](std::size_t epoch, double t_s) {
      seen.emplace_back(epoch, t_s);
      // Every worker is parked at the barrier, so every rig's clock must
      // have reached the epoch boundary (the clock overshoots t_s by at
      // most one dt when the epoch is not a tick multiple).
      for (std::size_t r = 0; r < facility_ptr->num_racks(); ++r) {
        const double now =
            facility_ptr->rig(r).simulation().clock().now_s();
        EXPECT_GE(now, t_s);
        EXPECT_LT(now, t_s + facility_ptr->rig(r).config().dt_s + 1e-12);
      }
    };
    Facility facility(cfg);
    ASSERT_EQ(facility.num_shards(), threads);
    facility_ptr = &facility;
    facility.run();
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], (std::pair<std::size_t, double>{0, 30.0}));
    EXPECT_EQ(seen[1], (std::pair<std::size_t, double>{1, 60.0}));
    EXPECT_EQ(seen[2], (std::pair<std::size_t, double>{2, 70.0}));
  }
}

TEST(FacilityShard, InvalidEpochThrows) {
  FacilityConfig cfg = sweep_config(2, 1, false, false);
  cfg.epoch_s = 0.0;
  EXPECT_THROW(Facility{cfg}, InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Worker supervision: fail-fast vs degrade
// ---------------------------------------------------------------------------

/// A tick bound in place of a rig's own: runs Rig::step(), then throws
/// once simulated time reaches `t_fail_s`, so the failure surfaces from
/// inside the owning worker's run_until.
struct FailingTick {
  Rig* rig = nullptr;
  double t_fail_s = 0.0;

  static void tick(void* self) {
    const auto& f = *static_cast<const FailingTick*>(self);
    f.rig->step();
    if (f.rig->simulation().clock().now_s() >= f.t_fail_s) {
      throw std::runtime_error("injected rig failure");
    }
  }
};

/// Make rack `r` blow up its owning worker once simulated time passes
/// `t_fail_s`. The returned tick must outlive the facility's run().
[[nodiscard]] std::unique_ptr<FailingTick> arm_failure(Facility& facility,
                                                       std::size_t r,
                                                       double t_fail_s) {
  auto failing = std::make_unique<FailingTick>(
      FailingTick{&facility.rig(r), t_fail_s});
  facility.rig(r).simulation().bind_tick(failing.get(), &FailingTick::tick);
  return failing;
}

TEST(FacilityWorkerFailure, FailFastStillRethrowsByDefault) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("run_threads=" + std::to_string(threads));
    FacilityConfig cfg = sweep_config(4, threads, false, true);
    ASSERT_EQ(cfg.worker_failure, WorkerFailurePolicy::kFailFast);
    std::vector<std::size_t> epochs_seen;
    cfg.epoch_callback = [&](std::size_t epoch, double) {
      epochs_seen.push_back(epoch);
    };
    Facility facility(cfg);
    const auto failing = arm_failure(facility, 0, 40.0);
    EXPECT_THROW(facility.run(), std::runtime_error);
    // The failed worker keeps arriving at the barrier, so every epoch
    // boundary still runs before run() rethrows, on one shard as on two.
    EXPECT_EQ(epochs_seen, (std::vector<std::size_t>{0, 1, 2}));
    // The error is still fully accounted even though it rethrew.
    ASSERT_EQ(facility.worker_errors().size(), 1u);
    EXPECT_EQ(facility.worker_errors()[0].worker, 0u);
    EXPECT_EQ(facility.worker_errors()[0].epoch, 1u);
    EXPECT_EQ(facility.worker_errors()[0].what, "injected rig failure");
    EXPECT_EQ(facility.obs()->metrics().snapshot().counter(
                  "facility.worker_errors"),
              1u);
  }
}

TEST(FacilityWorkerFailure, DegradePolicyCompletesOnSurvivors) {
  FacilityConfig cfg = sweep_config(4, 2, false, true);
  cfg.worker_failure = WorkerFailurePolicy::kDegrade;
  Facility facility(cfg);
  // Worker 0 owns racks {0, 1}; blowing up rack 0 in epoch 1 takes the
  // whole shard out of service.
  const auto failing = arm_failure(facility, 0, 40.0);
  EXPECT_NO_THROW(facility.run());

  EXPECT_TRUE(facility.rack_failed(0));
  EXPECT_TRUE(facility.rack_failed(1));
  EXPECT_FALSE(facility.rack_failed(2));
  EXPECT_FALSE(facility.rack_failed(3));
  EXPECT_EQ(facility.num_failed_racks(), 2u);
  EXPECT_EQ(facility.quarantined_racks(),
            (std::vector<std::size_t>{0, 1}));

  // Survivors ran to completion; the failed shard stopped mid-run.
  EXPECT_GE(facility.rig(2).simulation().clock().now_s(), 70.0);
  EXPECT_GE(facility.rig(3).simulation().clock().now_s(), 70.0);
  EXPECT_LT(facility.rig(0).simulation().clock().now_s(), 70.0);

  // The loss is observable: records, counter, events, failed-racks gauge.
  ASSERT_EQ(facility.worker_errors().size(), 1u);
  EXPECT_EQ(facility.worker_errors()[0].worker, 0u);
  const obs::MetricsSnapshot snap = facility.obs()->metrics().snapshot();
  EXPECT_EQ(snap.counter("facility.worker_errors"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauge("facility.failed_racks"), 2.0);
  bool saw_event = false;
  for (const obs::Event& e : facility.obs()->events().snapshot()) {
    if (e.cause != nullptr && std::string(e.cause) == "worker_failure") {
      saw_event = true;
      EXPECT_DOUBLE_EQ(e.field("worker"), 0.0);
      EXPECT_DOUBLE_EQ(e.field("epoch"), 1.0);
    }
  }
  EXPECT_TRUE(saw_event);

  // Aggregation still works over the truncated series (the failed racks
  // hold their last sample instead of underflowing the index math).
  const TimeSeries total = facility.facility_total_power();
  EXPECT_GT(total.size(), 0u);
  EXPECT_GT(total.max(), 0.0);
}

TEST(FacilityWorkerFailure, MultipleWorkerFailuresAllCounted) {
  FacilityConfig cfg = sweep_config(4, 4, false, true);
  cfg.worker_failure = WorkerFailurePolicy::kDegrade;
  Facility facility(cfg);
  const auto failing1 = arm_failure(facility, 1, 35.0);
  const auto failing3 = arm_failure(facility, 3, 35.0);
  EXPECT_NO_THROW(facility.run());

  EXPECT_EQ(facility.num_failed_racks(), 2u);
  EXPECT_TRUE(facility.rack_failed(1));
  EXPECT_TRUE(facility.rack_failed(3));
  ASSERT_EQ(facility.worker_errors().size(), 2u);  // none silently dropped
  EXPECT_EQ(facility.worker_errors()[0].worker, 1u);
  EXPECT_EQ(facility.worker_errors()[1].worker, 3u);
  EXPECT_EQ(facility.obs()->metrics().snapshot().counter(
                "facility.worker_errors"),
            2u);
}

TEST(FacilityWorkerFailure, SequentialDegradeLosesTheSingleShard) {
  FacilityConfig cfg = sweep_config(2, 1, false, true);
  cfg.worker_failure = WorkerFailurePolicy::kDegrade;
  Facility facility(cfg);
  const auto failing = arm_failure(facility, 0, 40.0);
  EXPECT_NO_THROW(facility.run());
  // One worker owns everything, so everything is lost — but run() still
  // completes and reports instead of throwing.
  EXPECT_EQ(facility.num_failed_racks(), 2u);
  ASSERT_EQ(facility.worker_errors().size(), 1u);
}

// ---------------------------------------------------------------------------
// Recovery + re-route determinism across shard counts
// ---------------------------------------------------------------------------

// A DVFS actuator stuck long enough for the default playbook's
// dvfs-divergence ladder to climb through reset, PID fallback and the
// conservative cap to quarantine, then released so the ladder unwinds —
// the run exercises quarantine, the epoch-boundary load re-route, and
// the unwind.
FacilityConfig reroute_config(std::size_t threads) {
  FacilityConfig cfg = sweep_config(3, threads, false, true);
  cfg.recovery = true;
  // Boundaries every 10 s make sure the re-route coordinator sees the
  // quarantine window.
  cfg.epoch_s = 10.0;
  cfg.rack.duration_s = 300.0;
  cfg.rack.use_request_queues = true;
  cfg.rack.faults.faults = {
      fault::FaultSpec::parse_line("dvfs_stuck start=10 duration=200")};
  return cfg;
}

TEST(FacilityShard, RecoveryAndRerouteAreBitIdenticalToSequential) {
  Facility reference(reroute_config(1));
  reference.run();
  // The scenario is live: the fault actually drove a quarantine and the
  // facility re-routed load at least once (out, and back after unwind).
  EXPECT_GE(
      reference.obs()->metrics().snapshot().counter("facility.reroutes"), 1u);
  std::uint64_t actions = 0;
  for (std::size_t r = 0; r < reference.num_racks(); ++r) {
    actions += reference.rig(r).recovery()->actions_taken();
  }
  EXPECT_GT(actions, 0u);

  for (const std::size_t threads : {2, 3}) {
    Facility sharded(reroute_config(threads));
    sharded.run();
    expect_bit_identical(reference, sharded,
                         "recovery threads=" + std::to_string(threads));
    EXPECT_EQ(
        sharded.obs()->metrics().snapshot().counter("facility.reroutes"),
        reference.obs()->metrics().snapshot().counter("facility.reroutes"));
  }
}

TEST(FacilityShard, RerouteFollowsTheRigsRecoveryEngine) {
  // Recovery asked for per rack (rack.recovery) rather than facility-wide
  // still gives every rig a recovery engine, so quarantined racks must
  // shed their load exactly as with the facility-wide flag.
  Facility facility_wide(reroute_config(1));
  facility_wide.run();
  FacilityConfig cfg = reroute_config(1);
  cfg.recovery = false;
  cfg.rack.recovery = true;
  Facility per_rack(cfg);
  per_rack.run();
  EXPECT_GE(per_rack.obs()->metrics().snapshot().counter("facility.reroutes"),
            1u);
  expect_bit_identical(facility_wide, per_rack, "rack.recovery");
}

}  // namespace
}  // namespace sprintcon::scenario
