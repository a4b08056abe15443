// Interactive workload synthesis (Wikipedia-like request traces).
//
// The paper drives its interactive cores from traces of a Wikipedia data
// center [31]: a 15-minute window of a request stream whose intensity has
// (a) a slow swell over minutes, (b) short-term correlated noise, and
// (c) occasional sharp spikes. The UPS power controller exists precisely
// because this signal fluctuates faster than a throttling loop could
// track; this generator reproduces those dynamics deterministically.
//
// The generator emits per-core *utilization* in [0, 1] — interactive cores
// always run at peak frequency during a sprint, so their power depends on
// utilization only (Eq. 5 of the paper).
#pragma once

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "common/validation.hpp"
#include "workload/sin_memo.hpp"

namespace sprintcon::workload {

/// One breakpoint of a burst envelope: the target mean utilization at an
/// absolute trace time. Between breakpoints the mean is interpolated
/// linearly; before the first / after the last it holds.
struct EnvelopePoint {
  double t_s = 0.0;
  double mean_utilization = 0.5;
};

/// Shape parameters of the synthetic interactive trace.
struct InteractiveTraceConfig {
  /// Burst-average core utilization once the burst has ramped up.
  double mean_utilization = 0.65;
  /// Optional burst envelope overriding the constant mean: lets scenarios
  /// model step bursts, ramps, flash crowds, or decaying events. Points
  /// must be sorted by time. Empty = constant mean (the ramp_up_s onset
  /// below still applies).
  std::vector<EnvelopePoint> envelope;
  /// Amplitude of the slow sinusoidal swell (minutes time scale).
  double swell_amplitude = 0.15;
  double swell_period_s = 210.0;
  /// AR(1) noise: stationary standard deviation and correlation time.
  double noise_sigma = 0.07;
  double noise_tau_s = 12.0;
  /// Poisson spike process: expected arrivals per second, initial height,
  /// and exponential decay time of each spike.
  double spike_rate_per_s = 1.0 / 90.0;
  double spike_magnitude = 0.22;
  double spike_decay_s = 12.0;
  /// Burst onset: utilization ramps from `idle_utilization` to the mean
  /// over this many seconds at the start of the trace.
  double ramp_up_s = 20.0;
  double idle_utilization = 0.15;

  /// Validate ranges and envelope monotonicity (points strictly sorted by
  /// time, means in [0, 1]); throws InvalidArgumentError. The scenario
  /// loader relies on this when lowering surge windows to envelopes.
  void validate() const;
};

/// Deterministic per-core interactive utilization generator.
///
/// step() and envelope_mean() are inline: every interactive core calls
/// them every tick from CpuCore::step (DESIGN.md §7.5).
class InteractiveTraceGenerator {
 public:
  /// @param config   trace shape
  /// @param rng      private random stream (use Rng::split per core)
  /// @param phase_s  phase offset of the slow swell, decorrelating servers
  InteractiveTraceGenerator(const InteractiveTraceConfig& config, Rng rng,
                            double phase_s = 0.0);

  /// Advance by dt and return the utilization for the elapsed interval
  /// (trace-driven: the core frequency is ignored).
  double step(double dt_s, double /*freq*/ = 1.0) {
    SPRINTCON_EXPECTS(dt_s > 0.0, "dt must be positive");
    now_s_ += dt_s;

    // Burst envelope (or constant mean), with the onset ramp applied on top.
    const double mean = envelope_mean(now_s_);
    double base = mean;
    if (config_.ramp_up_s > 0.0 && now_s_ < config_.ramp_up_s) {
      const double x = now_s_ / config_.ramp_up_s;
      base = config_.idle_utilization + (mean - config_.idle_utilization) * x;
    }

    // Slow swell (minutes scale). Its sin argument repeats across cores
    // and racks, so it goes through the per-thread memo.
    const double swell =
        config_.swell_amplitude *
        memo_sin(2.0 * std::numbers::pi * (now_s_ + phase_s_) /
                 config_.swell_period_s);

    // AR(1) noise discretized to stay stationary for any dt, and the spike
    // process' decay/arrival factors. All four depend only on (config, dt);
    // the fixed-step simulator always passes the same dt, so the hot path
    // reuses the cached factors instead of re-evaluating exp/sqrt per tick.
    if (dt_s != cached_dt_s_) {
      noise_rho_ = std::exp(-dt_s / config_.noise_tau_s);
      innovation_sigma_ =
          config_.noise_sigma *
          std::sqrt(std::max(1.0 - noise_rho_ * noise_rho_, 0.0));
      spike_retain_ = std::exp(-dt_s / config_.spike_decay_s);
      spike_p_arrival_ = 1.0 - std::exp(-config_.spike_rate_per_s * dt_s);
      cached_dt_s_ = dt_s;
    }
    ar_state_ = noise_rho_ * ar_state_ + rng_.normal(0.0, innovation_sigma_);

    // Spike process: Poisson arrivals, exponential decay.
    spike_level_ *= spike_retain_;
    if (rng_.bernoulli(spike_p_arrival_)) {
      spike_level_ += config_.spike_magnitude * rng_.uniform(0.6, 1.4);
    }

    utilization_ =
        std::clamp(base + swell + ar_state_ + spike_level_, 0.0, 1.0);
    return utilization_;
  }

  /// Utilization of the last completed interval (initial value before any
  /// step: the idle utilization).
  double utilization() const noexcept { return utilization_; }

  const InteractiveTraceConfig& config() const noexcept { return config_; }

  /// The envelope's target mean at an absolute trace time (the constant
  /// mean when no envelope is configured). Exposed for tests.
  double envelope_mean(double t_s) const {
    const auto& env = config_.envelope;
    if (env.empty()) return config_.mean_utilization;
    if (t_s <= env.front().t_s) return env.front().mean_utilization;
    if (t_s >= env.back().t_s) return env.back().mean_utilization;
    for (std::size_t i = 1; i < env.size(); ++i) {
      if (t_s <= env[i].t_s) {
        const double x =
            (t_s - env[i - 1].t_s) / (env[i].t_s - env[i - 1].t_s);
        return env[i - 1].mean_utilization +
               x * (env[i].mean_utilization - env[i - 1].mean_utilization);
      }
    }
    return env.back().mean_utilization;  // unreachable
  }

 private:
  InteractiveTraceConfig config_;
  Rng rng_;
  double phase_s_;
  double now_s_ = 0.0;
  double ar_state_ = 0.0;
  double spike_level_ = 0.0;
  double utilization_;
  // The AR(1)/spike discretization factors depend only on (config, dt).
  // dt is fixed for a whole simulation, so cache them keyed on the last
  // dt seen instead of paying three exp + one sqrt per core per tick.
  // Values are computed by the exact same expressions, so cached runs are
  // bit-identical to uncached ones.
  double cached_dt_s_ = -1.0;
  double noise_rho_ = 0.0;
  double innovation_sigma_ = 0.0;
  double spike_retain_ = 0.0;
  double spike_p_arrival_ = 0.0;
};

}  // namespace sprintcon::workload
