#include "core/server_controller.hpp"

#include <algorithm>

#include "common/validation.hpp"

namespace sprintcon::core {

namespace {
// Thermal guard: how much a hot core's ceiling drops per control period
// (normalized frequency).
constexpr double kThermalBackoffPerPeriod = 0.1;
}  // namespace

ServerPowerController::ServerPowerController(const SprintConfig& config,
                                             server::Rack& rack,
                                             server::LinearPowerModel model)
    : config_(config),
      rack_(rack),
      model_(model),
      mpc_(config.mpc),
      gain_estimator_(model.gain_w_per_f()) {
  config.validate();
  SPRINTCON_EXPECTS(!rack.batch_cores().empty(),
                    "server power controller needs batch cores to actuate");
  batch_cores_.reserve(rack.batch_cores().size());
  for (const server::BatchCoreRef& ref : rack.batch_cores()) {
    batch_cores_.push_back(&rack.core(ref));
  }
  std::size_t num_cores = 0;
  for (const server::Server& s : rack.servers()) num_cores += s.cores().size();
  interactive_cores_.reserve(num_cores - batch_cores_.size());
  for (server::Server& s : rack.servers()) {
    for (server::CpuCore& core : s.cores()) {
      if (!core.is_batch()) interactive_cores_.push_back({&s, &core});
    }
  }
}

double ServerPowerController::effective_gain_w_per_f() const {
  return config_.adaptive_gain ? gain_estimator_.gain()
                               : model_.gain_w_per_f();
}

double ServerPowerController::estimate_interactive_power_w() const {
  // Eq. 5 with a frequency correction: during a sprint the interactive
  // cores run at peak and the correction is exactly 1, but in the
  // degraded (bidding) modes they may be throttled — estimating them at
  // peak power would under-attribute the batch class and make the MPC
  // push batch frequencies up against the cap.
  double p = 0.0;
  for (const InteractiveCoreRef& ref : interactive_cores_) {
    const double u = ref.server->powered() ? ref.core->utilization() : 0.0;
    p += model_.constant_w() +
         model_.interactive_gain_w_per_util() * u * ref.core->freq();
  }
  return p;
}

void ServerPowerController::update(double p_total_w, double p_inter_w,
                                   double p_batch_target_w, double now_s) {
  SPRINTCON_EXPECTS(p_total_w >= 0.0, "measured power must be >= 0");
  SPRINTCON_EXPECTS(p_batch_target_w >= 0.0, "P_batch must be >= 0");

  const std::size_t n = batch_cores_.size();

  // Eq. 6: the batch power cannot be metered directly on colocated
  // servers, so subtract the modeled interactive power from the rack meter.
  const double p_fb = std::max(0.0, p_total_w - p_inter_w);

  // Reuse the controller-owned problem buffers; resize is a no-op at
  // steady state so a warm-started update allocates nothing.
  control::MpcProblem& problem = problem_;
  problem.gains_w_per_f.resize(n);
  problem.freq_current.resize(n);
  problem.freq_min.resize(n);
  problem.freq_max.resize(n);
  problem.penalty_weights.resize(n);

  // One pass reads each core: its frequency (also summed, in core order,
  // for the adaptive gain), bounds and job weight. The gain k may depend
  // on that sum, so a second pass applies it.
  double freq_sum = 0.0;
  const std::vector<server::BatchCoreRef>& refs = rack_.batch_cores();
  for (std::size_t i = 0; i < n; ++i) {
    const server::CpuCore& core = *batch_cores_[i];
    const double freq = core.freq();
    freq_sum += freq;
    problem.freq_current[i] = freq;
    problem.freq_min[i] = core.freq_min();
    // A finished run-once job idles its core at the DVFS floor.
    problem.freq_max[i] =
        core.job()->completed() ? core.freq_min() : core.freq_max();
    // Thermal guard: a core above its throttle point gets its ceiling
    // pulled below the current frequency so it must cool off.
    if (rack_.servers()[refs[i].server].core_throttled(refs[i].core)) {
      problem.freq_max[i] = std::max(
          core.freq_min(),
          std::min(problem.freq_max[i], freq - kThermalBackoffPerPeriod));
    }
    problem.penalty_weights[i] = core.job()->penalty_weight(now_s);
  }

  // Adaptive gain: learn dP/df from (applied frequency move, observed
  // power change) pairs across control periods.
  if (config_.adaptive_gain && prev_freq_sum_ >= 0.0) {
    gain_estimator_.observe(freq_sum - prev_freq_sum_, p_fb - prev_p_fb_w_);
  }
  prev_freq_sum_ = freq_sum;
  prev_p_fb_w_ = p_fb;
  last_p_fb_w_ = p_fb;

  const double k = effective_gain_w_per_f();
  for (std::size_t i = 0; i < n; ++i) {
    problem.gains_w_per_f[i] = k;
    problem.penalty_weights[i] =
        std::max(problem.penalty_weights[i], 1e-3) * penalty_scale_ * k * k;
  }

  if (pid_fallback_) {
    update_pid(p_fb, p_batch_target_w);
    return;
  }

  problem.power_feedback_w = last_p_fb_w_;
  problem.power_target_w = p_batch_target_w;

  mpc_.step(problem, last_out_);

  // Step 3 of the loop: write the new frequencies to the DVFS actuators.
  {
    const obs::ScopedSpan span(obs_ != nullptr ? obs_->trace() : nullptr,
                               "dvfs_actuate", "decision", "cores",
                               static_cast<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
      batch_cores_[i]->set_freq(last_out_.freq_next[i]);
    }
  }
  record_commanded_freq();
}

void ServerPowerController::set_pid_fallback(bool on) {
  if (on == pid_fallback_) return;
  pid_fallback_ = on;
  if (on) {
    // One loop drives the *mean* batch frequency: u in [0, 1] spans
    // [freq_min, freq_max] uniformly across cores, so the plant gain is
    // dP/du ~= n * K * (fmax - fmin). Gains are normalized by it so the
    // closed loop converges in a handful of control periods regardless
    // of rack size or model gain.
    const server::CpuCore& first = *batch_cores_.front();
    const double span = std::max(1e-9, first.freq_max() - first.freq_min());
    const double dp_du =
        std::max(1e-9, static_cast<double>(batch_cores_.size()) *
                           effective_gain_w_per_f() * span);
    control::PidConfig pc;
    pc.kp = 0.4 / dp_du;
    pc.ki = 0.25 / dp_du;
    pc.output_min = 0.0;
    pc.output_max = 1.0;
    pid_ = control::PiController(pc);
    pid_primed_ = false;
  } else {
    // Back on the MPC: drop its warm start (the fallback moved the plant
    // out from under it) and forget the adaptive-gain observation pair.
    mpc_.reset();
    prev_freq_sum_ = -1.0;
  }
}

void ServerPowerController::update_pid(double p_fb_w,
                                       double p_batch_target_w) {
  const std::size_t n = batch_cores_.size();
  const server::CpuCore& first = *batch_cores_.front();
  const double fmin = first.freq_min();
  const double span = std::max(1e-9, first.freq_max() - fmin);

  if (!pid_primed_) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += batch_cores_[i]->freq();
    const double mean = sum / static_cast<double>(n);
    pid_.preload_output(std::clamp((mean - fmin) / span, 0.0, 1.0));
    pid_primed_ = true;
  }

  const double u =
      pid_.step(p_batch_target_w, p_fb_w, config_.mpc.control_period_s);
  const double freq = fmin + u * span;
  // Honor the same per-core ceilings the MPC would (completed jobs idle
  // at the floor, thermal guard pulls throttled cores down) — they were
  // just folded into problem_.freq_max by update().
  if (last_out_.freq_next.size() != n) last_out_.freq_next.assign(n, fmin);
  for (std::size_t i = 0; i < n; ++i) {
    const double f =
        std::clamp(freq, problem_.freq_min[i], problem_.freq_max[i]);
    last_out_.freq_next[i] = f;
    batch_cores_[i]->set_freq(f);
  }
  if (obs_ != nullptr) obs_->metrics().counter("control.pid_updates").add(1);
  record_commanded_freq();
}

void ServerPowerController::reissue_last_command() {
  if (last_out_.freq_next.size() != batch_cores_.size()) return;
  for (std::size_t i = 0; i < batch_cores_.size(); ++i) {
    batch_cores_[i]->set_freq(last_out_.freq_next[i]);
  }
  record_commanded_freq();
}

bool ServerPowerController::cap_interactive(double ratio) {
  bool moved = false;
  for (const InteractiveCoreRef& ref : interactive_cores_) {
    server::CpuCore& c = *ref.core;
    const double before = c.freq();
    c.set_freq(std::max(c.freq_min(), c.freq_max() * ratio));
    if (c.freq() != before) moved = true;
  }
  return moved;
}

void ServerPowerController::force_batch_frequency(double freq) {
  rack_.for_each_core(server::CoreRole::kBatch, [freq](server::CpuCore& c) {
    c.set_freq(freq);
  });
  mpc_.reset();
  record_commanded_freq();
}

void ServerPowerController::record_commanded_freq() {
  if (obs_ == nullptr) return;
  // The DVFS writes above are the last word this controller has; anything
  // that later diverges from this gauge (a stuck actuator overwriting the
  // command, for instance) is an actuation fault the HealthMonitor can
  // catch by comparing against the realized batch frequencies.
  double sum = 0.0;
  for (const server::CpuCore* core : batch_cores_) sum += core->freq();
  if (cmd_freq_ == nullptr) {
    cmd_freq_ = &obs_->metrics().gauge("control.cmd_batch_freq");
  }
  cmd_freq_->set(batch_cores_.empty()
                     ? 0.0
                     : sum / static_cast<double>(batch_cores_.size()));
}

std::vector<BatchJobStatus> ServerPowerController::job_statuses(
    double now_s) const {
  std::vector<BatchJobStatus> out;
  out.reserve(batch_cores_.size());
  for (const server::CpuCore* core : batch_cores_) {
    const workload::BatchJob& job = *core->job();
    BatchJobStatus status;
    status.remaining_work_s = job.remaining_work_s();
    status.time_left_s = std::max(0.0, job.deadline_s() - now_s);
    status.compute_fraction = job.model().compute_fraction();
    status.gain_w_per_f = effective_gain_w_per_f();
    status.constant_w = model_.constant_w();
    status.freq_min = core->freq_min();
    status.freq_max = core->freq_max();
    // Deadline pressure applies while the first execution is incomplete;
    // later passes of a repeating trace are throughput work (the paper's
    // 15-minute continuous traces) and never raise the P_batch floor.
    status.active = !job.completed() && job.completions() == 0;
    out.push_back(status);
  }
  return out;
}

}  // namespace sprintcon::core
