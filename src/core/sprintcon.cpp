#include "core/sprintcon.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/validation.hpp"
#include "fault/injector.hpp"
#include "server/platform.hpp"

namespace sprintcon::core {

namespace {
// Period of the UPS power controller: faster than the batch loop, so
// interactive swings between MPC periods land on the UPS, not the CB.
constexpr double kUpsPeriodS = 1.0;
}  // namespace

SprintConController::SprintConController(const SprintConfig& config,
                                         server::Rack& rack,
                                         power::PowerPath& path)
    : config_(config),
      rack_(rack),
      path_(path),
      allocator_(config),
      server_ctrl_(config, rack,
                   server::LinearPowerModel(rack.servers().front().spec())) {
  config.validate();
}

void SprintConController::set_control_mode(ControlMode mode) {
  if (mode == mode_) return;
  mode_ = mode;
  // Modes are exclusive operating points, not a stack: escalating from
  // PID fallback to the cap (or quarantine) hands batch control back to
  // the MPC under the tighter budget — the stronger containment
  // supersedes the weaker one.
  server_ctrl_.set_pid_fallback(mode == ControlMode::kPidFallback);
}

void SprintConController::set_obs(obs::ObsSink* sink) {
  obs_ = sink;
  met_ = ObsHandles{};
  safety_.set_obs(sink);
  allocator_.set_obs(sink);
  server_ctrl_.set_obs(sink);
}

double SprintConController::bid_batch_budget_w(double budget_w,
                                               double p_inter_w,
                                               double now_s,
                                               bool& interactive_moved) {
  const obs::ScopedSpan span(obs_ != nullptr ? obs_->trace() : nullptr,
                             "bid_collect", "decision", "budget_w", budget_w);
  const auto& model = server_ctrl_.model();

  // Only the *dynamic* power is controllable; the idle shares of powered
  // cores are a physical floor no bidding can go below. Allocate the
  // budget above that floor.
  double batch_idle_w = 0.0;
  double batch_dyn_demand_w = 0.0;  // full-speed dynamic power
  double batch_urgency = 0.0;
  std::size_t active_jobs = 0;
  for (const server::CpuCore* core : server_ctrl_.batch_cores()) {
    batch_idle_w += model.constant_w();
    const workload::BatchJob& job = *core->job();
    if (job.completed()) continue;
    batch_dyn_demand_w += model.gain_w_per_f() * core->freq_max();
    batch_urgency += job.penalty_weight(now_s);
    ++active_jobs;
  }
  if (active_jobs > 0) batch_urgency /= static_cast<double>(active_jobs);

  // Summed core by core: n * constant_w would round differently.
  double inter_idle_w = 0.0;
  for (std::size_t i = 0; i < server_ctrl_.num_interactive_cores(); ++i) {
    inter_idle_w += model.constant_w();
  }
  const double inter_dyn_w = std::max(0.0, p_inter_w - inter_idle_w);
  const double dyn_budget_w =
      std::max(0.0, budget_w - batch_idle_w - inter_idle_w);

  // Bids after the sprinting game: urgency-weighted demand. Interactive
  // work is latency-critical, so it bids with a higher weight; batch bids
  // with the mean deadline urgency of its jobs.
  const std::vector<PowerBid> bids = {
      {/*bid=*/2.0, /*demand_w=*/inter_dyn_w},
      {/*bid=*/std::max(batch_urgency, 0.1), /*demand_w=*/batch_dyn_demand_w},
  };
  const std::vector<double> alloc = allocate_power(dyn_budget_w, bids);

  // Cap the interactive class if its allocation fell short: scale the
  // interactive frequency by the dynamic-power ratio (dynamic power is
  // ~linear in f at fixed utilization, and the cubic term only makes the
  // cap conservative); the next period's feedback refines the cap.
  if (alloc[0] + 1e-9 < inter_dyn_w && inter_dyn_w > 0.0) {
    const double ratio = std::clamp(alloc[0] / inter_dyn_w, 0.0, 1.0);
    interactive_moved = server_ctrl_.cap_interactive(ratio);
  } else {
    interactive_moved = server_ctrl_.pin_interactive_at_peak();
  }
  // The batch target is expressed in the controller's attribution (idle
  // share included), matching the p_fb feedback of Eq. 6.
  return batch_idle_w + alloc[1];
}

void SprintConController::step(const sim::SimClock& clock) {
  const double now = clock.now_s();
  const double dt = clock.dt_s();

  if (!started_) {
    // Sprint start: interactive cores jump to peak frequency.
    server_ctrl_.pin_interactive_at_peak();
    started_ = true;
  }

  if (outage_) {
    // The rack is dark; nothing to control. (Cannot happen under
    // SprintCon's own safety envelope; kept for completeness.)
    path_.step(0.0, 0.0, dt);
    return;
  }

  // Physical truth drives the power path; the *measured* power (possibly
  // corrupted by an attached fault injector) drives every decision below.
  const double p_total = rack_.total_power_w();
  const double p_meas =
      fault_ != nullptr ? fault_->meter_power_w(p_total) : p_total;

  if (obs_ != nullptr) {
    // Redundant-sensor cross-check: the decision path sees the (possibly
    // faulted) meter, the physics path sees truth. Their residual is the
    // meter-health signal the HealthMonitor watches (DESIGN.md §8.5).
    if (met_.p_total == nullptr) {
      auto& m = obs_->metrics();
      met_.p_total = &m.gauge("control.p_total_w");
      met_.p_meas = &m.gauge("control.p_meas_w");
      met_.meter_residual = &m.gauge("control.meter_residual_w");
    }
    met_.p_total->set(p_total);
    met_.p_meas->set(p_meas);
    met_.meter_residual->set(std::abs(p_meas - p_total));
  }

  if (fault_ != nullptr && fault_->control_dropped()) {
    // Control-plane hiccup: this tick's decisions never ran. The physics
    // still advances under the standing commands from the last good tick.
    resolve_flows(p_total, now, dt);
    return;
  }

  const double p_inter = server_ctrl_.estimate_interactive_power_w();

  // --- safety state -------------------------------------------------------
  const SprintState state =
      safety_.update(path_.breaker(), path_.battery(), now);

  // Battery SOC threshold crossings (reporting only, both directions).
  if (obs_ != nullptr) {
    static constexpr double kSocMarks[] = {0.75, 0.5, 0.25};
    const double soc = path_.battery().state_of_charge();
    if (prev_soc_ >= 0.0 && soc != prev_soc_) {
      const auto crossed = [&](double mark) {
        return (prev_soc_ > mark && soc <= mark) ||
               (prev_soc_ < mark && soc >= mark);
      };
      for (const double mark : kSocMarks) {
        if (crossed(mark)) {
          obs_->events().emit(now, obs::EventType::kSocThreshold,
                              soc < prev_soc_ ? "discharge" : "recharge",
                              {{"threshold", mark}, {"soc", soc}});
        }
      }
      if (crossed(kUpsReserveFraction)) {
        obs_->events().emit(now, obs::EventType::kSocThreshold,
                            soc < prev_soc_ ? "reserve-reached" : "recharge",
                            {{"threshold", kUpsReserveFraction}, {"soc", soc}});
      }
    }
    prev_soc_ = soc;
  }

  // --- allocator ----------------------------------------------------------
  allocator_.observe_interactive_power(p_inter);
  if (clock.every(config_.allocator_period_s)) {
    const obs::ScopedSpan span(obs_ != nullptr ? obs_->trace() : nullptr,
                               "allocator_epoch", "decision", "t_s", now);
    allocator_.adapt(now, server_ctrl_.job_statuses(now));
  }
  AllocatorTargets targets = allocator_.targets(now);

  // Safety overrides of the CB target; the degraded recovery modes give
  // up the overload entirely (conservative operation under rated P_cb).
  p_cb_eff_w_ = targets.p_cb_w;
  if (safety_.cb_protect() || state == SprintState::kEnded ||
      mode_ == ControlMode::kConservativeCap ||
      mode_ == ControlMode::kQuarantined) {
    p_cb_eff_w_ = std::min(p_cb_eff_w_, config_.cb_rated_w);
  }

  // Post-burst: the sprint is over; the rack returns to normal operation
  // (all workloads under the rated capacity) and the charger refills the
  // store from the headroom it frees, readying the next sprint of the day.
  const bool post_burst = now >= config_.burst_duration_s;
  recharge_w_ = 0.0;
  if (post_burst && config_.recharge_power_w > 0.0 &&
      path_.battery().state_of_charge() < 1.0) {
    recharge_w_ = config_.recharge_power_w;
  }
  const double recharge_w = recharge_w_;

  // --- server power controller ---------------------------------------------
  if (clock.every(config_.mpc.control_period_s) &&
      mode_ == ControlMode::kQuarantined) {
    // Quarantine: the sprint is over for this rack. Batch pinned at the
    // DVFS floor (re-imposed every period so a wedged actuator cannot
    // creep it back up); no MPC, no bidding. The rig/facility layer
    // sheds or re-routes the interactive load.
    server_ctrl_.force_batch_frequency(
        server_ctrl_.batch_cores().front()->freq_min());
    p_batch_eff_w_ = 0.0;
  } else if (clock.every(config_.mpc.control_period_s)) {
    double batch_target = std::min(targets.p_batch_w, p_cb_eff_w_);
    // The margin absorbs model error and interactive spikes that the CB
    // must not see when the UPS cannot (or should not) cover them.
    constexpr double kCapMargin = 0.05;
    // A protected breaker that is STILL delivering above rated means the
    // UPS is not absorbing the excess (e.g. a failed discharge circuit —
    // see the fault-injection chaos suite): the workloads themselves are
    // the only remaining defense, so bid everything under P_cb. A healthy
    // UPS keeps cb_w at rated during protect and never takes this path.
    // The recovery engine's conservative-cap rung commands the same
    // containment preemptively.
    const bool ups_shortfall =
        safety_.cb_protect() &&
        path_.last().cb_w > config_.cb_rated_w * 1.02;
    bool interactive_moved = false;
    if (state == SprintState::kUpsConserve || state == SprintState::kEnded ||
        ups_shortfall || mode_ == ControlMode::kConservativeCap) {
      // Battery low: P_cb caps ALL workloads; classes bid for power.
      batch_target = bid_batch_budget_w(p_cb_eff_w_ * (1.0 - kCapMargin),
                                        p_inter, now, interactive_moved);
    } else if (post_burst) {
      // Normal operation: everything under rated minus the charger draw.
      const double budget =
          std::max(0.0, (p_cb_eff_w_ - recharge_w) * (1.0 - kCapMargin));
      batch_target =
          bid_batch_budget_w(budget, p_inter, now, interactive_moved);
    } else {
      interactive_moved = server_ctrl_.pin_interactive_at_peak();
    }
    p_batch_eff_w_ = batch_target;
    // Eq. 6 subtracts the interactive power at the frequencies just
    // written: the tick's estimate still holds unless a pin or a bid cap
    // moved one of them.
    const double p_inter_now = interactive_moved
                                   ? server_ctrl_.estimate_interactive_power_w()
                                   : p_inter;
    server_ctrl_.update(p_meas, p_inter_now, batch_target, now);
  }

  // --- UPS power controller -------------------------------------------------
  if (clock.every(kUpsPeriodS)) {
    // In the conserve modes the workload caps drive p_total down to P_cb,
    // so this command naturally decays toward zero discharge.
    const double prev_cmd = ups_command_w_;
    // A quarantined rack leaves its store alone: demand is already under
    // rated, and a faulted discharge path must not keep draining it.
    ups_command_w_ = config_.ups_controller_enabled &&
                             mode_ != ControlMode::kQuarantined
                         ? ups_discharge_command_w(p_meas, p_cb_eff_w_)
                         : 0.0;
    // Report setpoint moves above noise (0.5 W) — per-tick jitter from the
    // power monitor would otherwise flood the log.
    if (obs_ != nullptr && std::abs(ups_command_w_ - prev_cmd) > 0.5) {
      obs_->events().emit(now, obs::EventType::kUpsSetpointChange,
                          ups_command_w_ > prev_cmd ? "demand-rise"
                                                    : "demand-fall",
                          {{"setpoint_w", ups_command_w_},
                           {"prev_w", prev_cmd},
                           {"p_total_w", p_meas},
                           {"p_cb_w", p_cb_eff_w_}});
    }
  }

  // --- physical power flows --------------------------------------------------
  resolve_flows(p_total, now, dt);
}

void SprintConController::resolve_flows(double p_total_w, double now_s,
                                        double dt_s) {
  const obs::ScopedSpan span(obs_ != nullptr ? obs_->trace() : nullptr,
                             "power_outcome", "decision", "p_total_w",
                             p_total_w);
  const power::PowerFlows flows =
      path_.step(p_total_w, ups_command_w_, dt_s, recharge_w_);
  if (obs_ != nullptr) {
    // UPS delivery audit: the commanded discharge (capped at demand — the
    // path never pushes upstream) minus what actually arrived. Healthy
    // hardware over-delivers if anything (the duty grid rounds up), so a
    // sustained deficit is the discharge-path fault signature the
    // "ups-discharge-shortfall" health rule watches. The 5 W dead band
    // absorbs duty quantization at the grid edges.
    const double expected_w = std::min(ups_command_w_, flows.demand_w);
    const double shortfall_w = expected_w - flows.ups_w;
    if (shortfall_w > 5.0) {
      if (met_.ups_shortfall_j == nullptr) {
        met_.ups_shortfall_j =
            &obs_->metrics().counter("power.ups_shortfall_j");
      }
      met_.ups_shortfall_j->add(
          static_cast<std::uint64_t>(shortfall_w * dt_s + 0.5));
    }
  }
  if (flows.unserved_w > 50.0) {
    // Demand nobody could serve: the rack browns out.
    outage_ = true;
    rack_.set_all_powered(false);
    if (obs_ != nullptr) {
      obs_->events().emit(now_s, obs::EventType::kOutage, "unserved-demand",
                          {{"unserved_w", flows.unserved_w},
                           {"p_total_w", p_total_w}});
    }
  }
}

}  // namespace sprintcon::core
