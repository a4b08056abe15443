#include "scenario/rig.hpp"

#include <algorithm>
#include <cmath>

#include "common/attributes.hpp"
#include "common/validation.hpp"
#include "fault/injector.hpp"
#include "power/wear.hpp"
#include "server/platform.hpp"
#include "workload/batch_profile.hpp"
#include "workload/queueing.hpp"

namespace sprintcon::scenario {

namespace {

/// Sprints per day assumed by the battery-lifetime metrics (the paper's
/// periodic daily sprinting, Section VII-D).
constexpr double kSprintsPerDay = 10.0;
/// Sim-time period of the health check and the recovery poll.
constexpr double kHealthPeriodS = 5.0;
/// The sliding-window metric (queue.response_ms.window, which the
/// latency-slo rule reads) rotates every this many seconds of sim time;
/// quantiles cover the last kWindows such spans.
constexpr double kMetricsWindowS = 60.0;

/// Adapts the recovery engine's action interface onto one rig: modes are
/// mapped onto the SprintConController with quarantine > cap > PID
/// precedence, and each modal action is reference-counted so several
/// triggers can hold the same rung without fighting over the mode.
class RigRecoveryTarget final : public recovery::RecoveryTarget {
 public:
  RigRecoveryTarget(core::SprintConController& ctrl,
                    obs::HealthMonitor& health,
                    std::vector<workload::RequestQueueSource*>& queues)
      : ctrl_(ctrl), health_(health), queues_(queues) {}

  void reset_actuator(std::string_view trigger) override {
    // The only actuator this simulation can meaningfully re-drive is the
    // DVFS command path; a meter or discharge-circuit power cycle has no
    // simulated effect, which is exactly the "reset did not help" case
    // the ladder escalates past.
    if (trigger == "dvfs-divergence") {
      ctrl_.server_controller().reissue_last_command();
    }
  }

  void engage_pid_fallback() override { ++pid_; apply_mode(); }
  void release_pid_fallback() override { --pid_; apply_mode(); }
  void engage_conservative_cap() override { ++cap_; apply_mode(); }
  void release_conservative_cap() override { --cap_; apply_mode(); }

  void engage_quarantine() override {
    if (++quarantine_ == 1) {
      // The front-end stops routing requests at this rack; a facility
      // re-route coordinator may later redistribute them to peers.
      for (auto* q : queues_) q->set_load_scale(0.0);
    }
    apply_mode();
  }
  void release_quarantine() override {
    if (--quarantine_ == 0) {
      for (auto* q : queues_) q->set_load_scale(1.0);
    }
    apply_mode();
  }

  bool rebaseline(std::string_view trigger, double margin) override {
    return health_.rebaseline(trigger, margin);
  }

 private:
  void apply_mode() {
    ctrl_.set_control_mode(quarantine_ > 0
                               ? core::ControlMode::kQuarantined
                               : cap_ > 0 ? core::ControlMode::kConservativeCap
                                          : pid_ > 0
                                                ? core::ControlMode::kPidFallback
                                                : core::ControlMode::kNormal);
  }

  core::SprintConController& ctrl_;
  obs::HealthMonitor& health_;
  std::vector<workload::RequestQueueSource*>& queues_;
  int pid_ = 0;
  int cap_ = 0;
  int quarantine_ = 0;
};

/// The rig's channels, in recording order; Rig::fill_row writes them.
std::vector<std::string> rig_channels(bool faults, bool queues) {
  std::vector<std::string> names = {
      "total_power_w", "cb_power_w", "ups_power_w", "unserved_w",
      "cb_budget_w", "p_batch_target_w",
      "freq_interactive", "freq_batch", "core_temp_max_c",
      "interactive_p95_latency_ms",
      "battery_soc", "cb_thermal_stress", "breaker_open"};
  if (faults) names.emplace_back("fault_active");
  names.emplace_back("battery_component_soc");
  if (queues) {
    names.emplace_back("queue_backlog_mean");
    names.emplace_back("queue_response_ms");
  }
  return names;
}

}  // namespace

const char* to_string(Policy policy) noexcept {
  switch (policy) {
    case Policy::kSprintCon: return "SprintCon";
    case Policy::kSgct: return "SGCT";
    case Policy::kSgctV1: return "SGCT-V1";
    case Policy::kSgctV2: return "SGCT-V2";
    case Policy::kPowerCap: return "PowerCap";
  }
  return "unknown";
}

RigConfig::RigConfig() : sprint(core::paper_config()) {}

void RigConfig::validate() const {
  SPRINTCON_EXPECTS(num_servers > 0, "need at least one server");
  SPRINTCON_EXPECTS(dt_s > 0.0, "dt must be positive");
  SPRINTCON_EXPECTS(duration_s > 0.0, "duration must be positive");
  SPRINTCON_EXPECTS(batch_deadline_s > 0.0, "deadline must be positive");
  SPRINTCON_EXPECTS(batch_work_scale > 0.0, "work scale must be positive");
  SPRINTCON_EXPECTS(ups_capacity_wh > 0.0, "UPS capacity must be positive");
  SPRINTCON_EXPECTS(supercap_wh >= 0.0,
                    "supercap capacity must be non-negative");
  const std::size_t cores = server::paper_platform().cores_per_server;
  SPRINTCON_EXPECTS(interactive_cores_per_server <= cores,
                    "more interactive cores than the server has");
  // The MPC needs at least one batch core to steer; the baselines run
  // without any.
  const bool has_batch_core = dedicated_servers
                                  ? num_servers > (num_servers + 1) / 2
                                  : interactive_cores_per_server < cores;
  SPRINTCON_EXPECTS(policy != Policy::kSprintCon || has_batch_core,
                    "SprintCon needs at least one batch core to control");
  SPRINTCON_EXPECTS(!recovery || policy == Policy::kSprintCon,
                    "recovery drives the SprintCon controller ladder; "
                    "enable it with Policy::kSprintCon");
  sprint.validate();
  interactive.validate();
  faults.validate();
}

Rig::Rig(const RigConfig& config) : config_(config) {
  config.validate();

  const server::PlatformSpec spec = server::paper_platform();

  Rng master(config.seed);
  const auto spec_profiles = workload::spec2006_profiles();

  // --- build the rack -------------------------------------------------------
  std::vector<server::Server> servers;
  servers.reserve(config.num_servers);
  std::size_t batch_index = 0;  // cycles through the SPEC profiles
  for (std::size_t s = 0; s < config.num_servers; ++s) {
    std::vector<server::CpuCore> cores;
    cores.reserve(spec.cores_per_server);
    for (std::size_t c = 0; c < spec.cores_per_server; ++c) {
      const bool interactive_core =
          config.dedicated_servers
              ? s < (config.num_servers + 1) / 2
              : c < config.interactive_cores_per_server;
      if (interactive_core) {
        // Interactive core: per-server phase offset decorrelates the slow
        // swell across servers, matching rack-level aggregate behaviour.
        const double phase =
            static_cast<double>(s) * 13.0 + static_cast<double>(c) * 3.0;
        if (config.use_request_queues) {
          workload::RequestQueueConfig queue;
          queue.offered_load = config.interactive;
          cores.emplace_back(
              spec.freq_min, spec.freq_max,
              std::in_place_type<workload::RequestQueueSource>, queue,
              master.split(), phase);
        } else {
          cores.emplace_back(
              spec.freq_min, spec.freq_max,
              std::in_place_type<workload::InteractiveTraceGenerator>,
              config.interactive, master.split(), phase);
        }
      } else {
        // The paper's traces repeat for the whole run; the deadline
        // applies to each job's first execution.
        const auto& profile =
            spec_profiles[batch_index++ % spec_profiles.size()];
        cores.emplace_back(
            spec.freq_min, spec.freq_max,
            std::in_place_type<workload::BatchJob>, profile,
            config.batch_deadline_s,
            profile.nominal_work_s * config.batch_work_scale,
            workload::CompletionMode::kRepeat, master.split());
      }
    }
    servers.emplace_back(spec, std::move(cores), master.split());
  }
  rack_ = std::make_unique<server::Rack>(std::move(servers));
  // The queue pointers are taken once the servers sit at their final
  // addresses: the cores hold their sources by value.
  for (server::Server& s : rack_->servers()) {
    for (server::CpuCore& c : s.cores()) {
      if (auto* q = std::get_if<workload::RequestQueueSource>(&c.workload())) {
        queues_.push_back(q);
      }
    }
  }

  // --- power infrastructure --------------------------------------------------
  const double max_rack_w =
      spec.peak_power_w * static_cast<double>(config.num_servers);
  std::unique_ptr<power::EnergyStore> store;
  if (config.supercap_wh > 0.0) {
    store = std::make_unique<power::HybridStore>(
        power::UpsBattery(config.ups_capacity_wh,
                          /*max_discharge_w=*/max_rack_w),
        power::Supercapacitor(config.supercap_wh,
                              /*max_discharge_w=*/2.0 * max_rack_w));
  } else {
    store = std::make_unique<power::UpsBattery>(
        config.ups_capacity_wh, /*max_discharge_w=*/max_rack_w);
  }
  path_ = std::make_unique<power::PowerPath>(
      power::CircuitBreaker(config.sprint.cb_rated_w,
                            power::TripCurve::bulletin_1489a()),
      std::move(store),
      power::DischargeCircuit(/*full_scale_w=*/max_rack_w, /*duty_steps=*/200,
                              /*efficiency=*/0.95));

  hybrid_ = dynamic_cast<const power::HybridStore*>(&path_->battery());

  // --- controller -------------------------------------------------------------
  sim_ = std::make_unique<sim::Simulation>(
      config.dt_s, this, [](void* rig) { static_cast<Rig*>(rig)->step(); });
  if (!config.faults.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(
        config.faults, config.fault_seed, *rack_, *path_);
  }
  switch (config.policy) {
    case Policy::kSprintCon:
      sprintcon_ = std::make_unique<core::SprintConController>(config.sprint,
                                                               *rack_, *path_);
      sprintcon_->set_fault(injector_.get());
      break;
    case Policy::kSgct:
      sgct_ = std::make_unique<baselines::SgctController>(
          config.sprint, *rack_, *path_, baselines::SgctVariant::kRaw);
      break;
    case Policy::kSgctV1:
      sgct_ = std::make_unique<baselines::SgctController>(
          config.sprint, *rack_, *path_, baselines::SgctVariant::kV1);
      break;
    case Policy::kSgctV2:
      sgct_ = std::make_unique<baselines::SgctController>(
          config.sprint, *rack_, *path_, baselines::SgctVariant::kV2);
      break;
    case Policy::kPowerCap:
      cap_ = std::make_unique<baselines::PowerCapController>(config.sprint,
                                                             *rack_, *path_);
      break;
  }

  // --- observability ----------------------------------------------------------
  const bool health_on = config.health || config.recovery;
  if (config.observability || health_on) {
    obs_ = std::make_unique<obs::ObsSink>();
    path_->breaker().set_obs(obs_.get());
    if (sprintcon_) sprintcon_->set_obs(obs_.get());
    if (injector_) injector_->set_obs(obs_.get());
  }

  // --- health monitoring ------------------------------------------------------
  if (health_on) {
    health_ = std::make_unique<obs::HealthMonitor>(obs_.get());
    // Default rule set (thresholds discussed in DESIGN.md §8.5). Every
    // rule is quiet on a healthy rig by construction: divergence signals
    // are exactly zero without a fault, capacity only moves when fade is
    // injected, and the stuck rule needs the reference to move while the
    // signal does not — impossible while they are the same number.
    const double nominal_wh = path_->battery().capacity_wh();
    health_->add_rule({.name = "meter-divergence",
                       .kind = obs::HealthRuleKind::kAbove,
                       .signal = obs::HealthSignal::kGauge,
                       .metric = "control.meter_residual_w",
                       .reference = {},
                       .threshold = 25.0});
    health_->add_rule({.name = "meter-stuck",
                       .kind = obs::HealthRuleKind::kStuck,
                       .signal = obs::HealthSignal::kGauge,
                       .metric = "control.p_meas_w",
                       .reference = "control.p_total_w",
                       .threshold = 0.5});
    health_->add_rule({.name = "dvfs-divergence",
                       .kind = obs::HealthRuleKind::kAbove,
                       .signal = obs::HealthSignal::kGauge,
                       .metric = "rig.dvfs_divergence",
                       .reference = {},
                       .threshold = 0.02});
    health_->add_rule({.name = "ups-capacity-fade",
                       .kind = obs::HealthRuleKind::kBelow,
                       .signal = obs::HealthSignal::kGauge,
                       .metric = "rig.battery_capacity_wh",
                       .reference = {},
                       .threshold = 0.9 * nominal_wh});
    health_->add_rule({.name = "latency-slo",
                       .kind = obs::HealthRuleKind::kAbove,
                       .signal = obs::HealthSignal::kWindowedP99,
                       .metric = "queue.response_ms.window",
                       .reference = {},
                       .threshold = 500.0});
    // UPS delivery audit: joules the discharge path failed to deliver
    // against its command (sprintcon.cpp resolve_flows). Healthy hardware
    // over-delivers if anything, so a sustained rate is the
    // discharge-fault signature — ~30 W deficit across two 5 s checks.
    health_->add_rule({.name = "ups-discharge-shortfall",
                       .kind = obs::HealthRuleKind::kRateAbove,
                       .signal = obs::HealthSignal::kCounter,
                       .metric = "power.ups_shortfall_j",
                       .reference = {},
                       .threshold = 150.0});
  }

  // --- recovery engine --------------------------------------------------------
  if (config.recovery) {
    recovery_target_ = std::make_unique<RigRecoveryTarget>(
        *sprintcon_, *health_, queues_);
    recovery_ = std::make_unique<recovery::RecoveryManager>(
        obs_.get(), health_.get(), recovery_target_.get(),
        recovery::Playbook::defaults());
  }

  // --- recorder ----------------------------------------------------------------
  auto& rec = sim_->recorder();
  // Pre-size every channel for the run horizon so per-tick sampling never
  // reallocates (capped so a "never-ending" tick-driven rig, e.g. the
  // BM_RigTick harness with duration 1e9, does not reserve gigabytes).
  rec.reserve_horizon(
      std::min<std::size_t>(
          static_cast<std::size_t>(config.duration_s / config.dt_s) + 2,
          std::size_t{1} << 20));
  rec.set_channels(rig_channels(injector_ != nullptr, !queues_.empty()), this,
                   [](const void* rig, double* row) {
                     static_cast<const Rig*>(rig)->fill_row(row);
                   });
}

Rig::~Rig() = default;

void Rig::run() {
  if (ran_) return;
  sim_->run_until(config_.duration_s);
  ran_ = true;
}

void Rig::run_until(double t_s) { sim_->run_until(t_s); }

SPRINTCON_HOT void Rig::step() {
  sim::SimClock& clock = sim_->clock();
  rack_->step(clock);
  // The injector steps after the rack (so it sees this tick's true power)
  // and before the controller (so the pulled hooks are resolved); its
  // actuator stage runs after the controller's frequency writes.
  if (injector_) injector_->step(clock);
  if (sprintcon_) {
    sprintcon_->step(clock);
  } else if (sgct_) {
    sgct_->step(clock);
  } else {
    cap_->step(clock);
  }
  if (injector_) injector_->post_tick(clock);
  clock.advance();
  sim_->recorder().sample();
  if (obs_) record_tick_metrics();
  // Every health check is followed by exactly one recovery poll at the
  // same simulated instant.
  if (health_ && clock.every(kHealthPeriodS)) {
    health_->check(clock.now_s());
    if (recovery_) recovery_->poll(clock.now_s());
  }
}

SPRINTCON_HOT void Rig::fill_row(double* row) const {
  const power::PowerFlows& flows = path_->last();
  *row++ = rack_->total_power_w();
  *row++ = flows.cb_w;
  *row++ = flows.ups_w;
  *row++ = flows.unserved_w;
  *row++ = sprintcon_ ? sprintcon_->p_cb_effective_w()
           : cap_     ? cap_->cap_w()
                      : sgct_->cb_target_at(sim_->clock().now_s());
  *row++ = sprintcon_ ? sprintcon_->p_batch_w() : 0.0;
  // The four per-core channels ride one fused O(num_cores) scan (see
  // Rack::telemetry for the bit-identity argument).
  const server::RackTelemetry t = rack_->telemetry();
  *row++ = t.freq_interactive;
  *row++ = t.freq_batch;
  *row++ = t.core_temp_max_c;
  *row++ = t.p95_latency_ms;
  *row++ = path_->battery().state_of_charge();
  *row++ = path_->breaker().thermal_stress();
  *row++ = path_->breaker().open() ? 1.0 : 0.0;
  if (injector_) *row++ = static_cast<double>(injector_->active_count());
  *row++ = hybrid_ != nullptr ? hybrid_->battery().state_of_charge()
                              : path_->battery().state_of_charge();
  if (!queues_.empty()) {
    double b = 0.0;
    for (const auto* q : queues_) b += q->backlog();
    *row++ = b / static_cast<double>(queues_.size());
    *row = mean_response_s() * 1000.0;
  }
}

double Rig::mean_response_s() const {
  double t = 0.0;
  for (const auto* q : queues_) t += q->response_time_s();
  return t / static_cast<double>(queues_.size());
}

// Per-tick derived health gauges + periodic window rotation. Runs after
// the actuator stage, so "realized" frequencies include any injected
// actuation fault — exactly what a real monitor would see. A conditional
// metric such as rig.batch_freq appears in snapshots only once it has a
// value.
void Rig::record_tick_metrics() {
  auto& m = obs_->metrics();
  TickMetrics& h = tick_metrics_;
  if (!queues_.empty()) {
    if (h.response_ms == nullptr) {
      h.response_ms = &m.windowed("queue.response_ms.window");
    }
    h.response_ms->record(mean_response_s() * 1000.0);
  }
  if (h.cmd_freq == nullptr) {
    h.cmd_freq = &m.gauge("control.cmd_batch_freq");
    h.capacity_wh = &m.gauge("rig.battery_capacity_wh");
    // The rack's layout is fixed, so its batch cores resolve once; the
    // per-tick sum below keeps batch_cores()' order (bit-identical).
    for (const auto& ref : rack_->batch_cores()) {
      h.batch_cores.push_back(&rack_->core(ref));
    }
  }
  const double cmd = h.cmd_freq->value();
  if (cmd > 0.0) {
    double sum = 0.0;
    for (const server::CpuCore* c : h.batch_cores) sum += c->freq();
    const double realized =
        h.batch_cores.empty()
            ? 0.0
            : sum / static_cast<double>(h.batch_cores.size());
    if (h.batch_freq == nullptr) {
      h.batch_freq = &m.gauge("rig.batch_freq");
      h.divergence = &m.gauge("rig.dvfs_divergence");
    }
    h.batch_freq->set(realized);
    h.divergence->set(std::abs(realized - cmd));
  }
  h.capacity_wh->set(path_->battery().capacity_wh());
  if (sim_->clock().every(kMetricsWindowS)) m.rotate_windows();
}

metrics::RunSummary Rig::summary() const {
  metrics::RunSummary out;
  out.label = to_string(config_.policy);
  const auto& rec = sim_->recorder();

  out.avg_freq_interactive = rec.series("freq_interactive").mean();
  out.avg_freq_batch = rec.series("freq_batch").mean();
  out.mean_p95_latency_ms = rec.series("interactive_p95_latency_ms").mean();
  out.avg_total_power_w = rec.series("total_power_w").mean();
  out.avg_cb_power_w = rec.series("cb_power_w").mean();
  out.peak_cb_power_w = rec.series("cb_power_w").max();
  out.cb_energy_wh = rec.series("cb_power_w").integral() / 3600.0;
  out.unserved_energy_wh = rec.series("unserved_w").integral() / 3600.0;
  out.outage_start_s = rec.series("unserved_w").first_time_above(1.0);

  const power::EnergyStore& battery = path_->battery();
  out.ups_discharged_wh = battery.total_discharged_wh();
  out.depth_of_discharge = out.ups_discharged_wh / battery.capacity_wh();
  out.battery_cycle_life = power::lfp_cycle_life(out.depth_of_discharge);
  out.battery_lifetime_days = power::lfp_lifetime_days(
      out.depth_of_discharge, kSprintsPerDay);

  out.rainflow_damage =
      power::rainflow_damage(rec.series("battery_component_soc").values());
  out.rainflow_lifetime_days = power::rainflow_lifetime_days(
      out.rainflow_damage, kSprintsPerDay);

  out.cb_trips = path_->breaker().trip_count();

  out.deadline_s = config_.batch_deadline_s;
  out.jobs_total = rack_->batch_cores().size();
  double worst = 0.0;
  for (const auto& ref : rack_->batch_cores()) {
    const workload::BatchJob& job = *rack_->core(ref).job();
    const bool done = job.completion_time_s() >= 0.0;
    if (done) {
      ++out.jobs_completed;
      worst = std::max(worst, job.completion_time_s());
    } else {
      // Never finished within the run: count as a miss at run end.
      out.all_deadlines_met = false;
      worst = std::max(worst, sim_->clock().now_s());
    }
    if (done && job.completion_time_s() > job.deadline_s()) {
      out.all_deadlines_met = false;
    }
  }
  out.worst_completion_s = worst;
  out.normalized_time_use = worst / config_.batch_deadline_s;
  return out;
}

obs::RunReport Rig::report() const {
  SPRINTCON_ENSURES(obs_ != nullptr,
                    "Rig::report() needs RigConfig::observability = true");
  obs::RunReport out;
  out.label = to_string(config_.policy);
  out.summary = summary();
  out.metrics = obs_->metrics().snapshot();
  out.events = obs_->events().snapshot();
  out.dropped_count = obs_->events().dropped();
  return out;
}

metrics::RunSummary run_policy(const RigConfig& config) {
  Rig rig(config);
  rig.run();
  return rig.summary();
}

}  // namespace sprintcon::scenario
