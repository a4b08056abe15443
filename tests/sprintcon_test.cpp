// Coordinator-level unit tests for SprintConController and the common CLI
// helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "scenario/rig.hpp"

namespace sprintcon {
namespace {

scenario::RigConfig small_rig() {
  scenario::RigConfig cfg;
  cfg.num_servers = 2;
  cfg.sprint.cb_rated_w = 2.0 * 300.0 * (2.0 / 3.0);
  cfg.ups_capacity_wh = 50.0;
  return cfg;
}

// --- SprintConController ------------------------------------------------------

TEST(SprintCon, CbTargetFollowsTheOverloadSchedule) {
  scenario::Rig rig(small_rig());
  rig.run_until(100.0);  // inside the first overload window
  EXPECT_DOUBLE_EQ(rig.sprintcon()->p_cb_effective_w(),
                   rig.config().sprint.cb_overload_w());
  rig.run_until(200.0);  // recovery
  EXPECT_DOUBLE_EQ(rig.sprintcon()->p_cb_effective_w(),
                   rig.config().sprint.cb_rated_w);
  rig.run_until(460.0);  // second overload window
  EXPECT_DOUBLE_EQ(rig.sprintcon()->p_cb_effective_w(),
                   rig.config().sprint.cb_overload_w());
}

TEST(SprintCon, UpsCommandEngagesDuringRecovery) {
  scenario::Rig rig(small_rig());
  rig.run_until(450.0);
  // During the recovery phase the rack demand exceeds the rated CB, so
  // the UPS command must have been nonzero at some point.
  const auto& ups = rig.recorder().series("ups_power_w");
  EXPECT_GT(ups.mean_between(160.0, 440.0), 1.0);
  // And during the overload window it is mostly idle.
  EXPECT_LT(ups.mean_between(30.0, 140.0), ups.mean_between(160.0, 440.0));
}

TEST(SprintCon, PBatchTargetTracksTheScheduleShape) {
  scenario::Rig rig(small_rig());
  rig.run();
  const auto& target = rig.recorder().series("p_batch_target_w");
  // Budget during overload windows exceeds the recovery budget.
  EXPECT_GT(target.mean_between(60.0, 140.0),
            target.mean_between(200.0, 440.0));
}

TEST(SprintCon, AccessorsExposeSubsystems) {
  scenario::Rig rig(small_rig());
  rig.run_until(50.0);
  auto* ctrl = rig.sprintcon();
  ASSERT_NE(ctrl, nullptr);
  EXPECT_EQ(ctrl->state(), core::SprintState::kSprinting);
  EXPECT_FALSE(ctrl->outage());
  EXPECT_GE(ctrl->ups_command_w(), 0.0);
  EXPECT_GT(ctrl->p_batch_w(), 0.0);
  EXPECT_EQ(ctrl->config().cb_rated_w, rig.config().sprint.cb_rated_w);
  // Allocator and server controller are reachable for advanced tuning.
  EXPECT_GT(ctrl->allocator().targets(0.0).p_cb_w, 0.0);
  EXPECT_GT(ctrl->server_controller().model().gain_w_per_f(), 0.0);
}

// --- interactive-power pass-through ------------------------------------------

// Step `rig` to `until_s`. In every control period, Eq. 6's feedback must
// equal the meter reading minus the interactive power estimated afresh at
// the frequencies the period left behind (a bid cap or a pin at peak may
// have moved them after the tick's own estimate). Returns the number of
// periods whose mean interactive frequency differed from the previous
// period's, i.e. in which the cap or the pin moved a frequency.
int check_feedback_until(scenario::Rig& rig, double until_s) {
  core::SprintConController& ctrl = *rig.sprintcon();
  const double period_s = ctrl.config().mpc.control_period_s;
  double prev_freq = -1.0;
  int moved_periods = 0;
  while (rig.simulation().clock().now_s() < until_s) {
    const bool control_tick = rig.simulation().clock().every(period_s);
    rig.step();
    if (!control_tick) continue;
    EXPECT_FALSE(ctrl.outage());
    const double expected = std::max(
        0.0, rig.rack().total_power_w() -
                 ctrl.server_controller().estimate_interactive_power_w());
    EXPECT_EQ(ctrl.server_controller().last_p_fb_w(), expected)
        << "t = " << rig.simulation().clock().now_s();
    const double freq = rig.rack().telemetry().freq_interactive;
    if (prev_freq >= 0.0 && freq != prev_freq) ++moved_periods;
    prev_freq = freq;
  }
  return moved_periods;
}

TEST(SprintCon, UpsConserveBiddingFeedsBackTheCappedInteractivePower) {
  scenario::RigConfig cfg = small_rig();
  cfg.ups_capacity_wh = 2.0;  // runs low by ~240 s: UPS-conserve bidding
  scenario::Rig rig(cfg);
  const int moved = check_feedback_until(rig, 400.0);
  EXPECT_EQ(rig.sprintcon()->state(), core::SprintState::kUpsConserve);
  EXPECT_GT(moved, 0);
}

TEST(SprintCon, ConservativeCapFeedsBackTheCappedInteractivePower) {
  scenario::Rig rig(small_rig());
  rig.run_until(60.0);
  rig.sprintcon()->set_control_mode(core::ControlMode::kConservativeCap);
  const int moved = check_feedback_until(rig, 300.0);
  EXPECT_GT(moved, 0);
}

// --- CLI helpers ----------------------------------------------------------------

TEST(Cli, ParsesCsvFlagForms) {
  const char* none[] = {"bench"};
  EXPECT_FALSE(parse_bench_options(1, none).csv_dir.has_value());

  const char* argv[] = {"bench", "--csv", "/tmp/x"};
  const auto opts = parse_bench_options(3, argv);
  ASSERT_TRUE(opts.csv_dir.has_value());
  EXPECT_EQ(*opts.csv_dir, "/tmp/x");
}

TEST(Cli, RejectsEverythingButCsvDir) {
  const char* joined[] = {"bench", "--csv=/tmp/y"};
  EXPECT_THROW(parse_bench_options(2, joined), InvalidArgumentError);
  const char* misspelled[] = {"bench", "--cvs", "x"};
  EXPECT_THROW(parse_bench_options(3, misspelled), InvalidArgumentError);
  const char* help[] = {"bench", "--help"};
  EXPECT_THROW(parse_bench_options(2, help), InvalidArgumentError);
  const char* positional[] = {"bench", "12"};
  EXPECT_THROW(parse_bench_options(2, positional), InvalidArgumentError);
  const char* extra[] = {"bench", "--csv", "/tmp/x", "extra"};
  EXPECT_THROW(parse_bench_options(4, extra), InvalidArgumentError);
}

TEST(Cli, MissingCsvValueThrows) {
  const char* argv[] = {"bench", "--csv"};
  EXPECT_THROW(parse_bench_options(2, argv), InvalidArgumentError);
}

TEST(Cli, MaybeWriteCsvIsNoOpWithoutFlag) {
  BenchOptions opts;
  TimeSeries ts("x", 1.0);
  ts.push(1.0);
  EXPECT_TRUE(maybe_write_csv(opts, "nothing", {&ts}).empty());
}

TEST(Cli, MaybeWriteCsvCreatesArtifact) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "sprintcon_cli_test_artifacts";
  fs::remove_all(dir);

  BenchOptions opts;
  opts.csv_dir = dir.string();
  TimeSeries ts("chan", 1.0);
  ts.push(1.0);
  ts.push(2.0);
  const std::string path = maybe_write_csv(opts, "unit", {&ts});
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "time_s,chan");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sprintcon
