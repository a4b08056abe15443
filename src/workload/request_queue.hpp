// Request-queue interactive source: utilization that responds to DVFS.
//
// The trace-driven sources play back a fixed utilization regardless of
// what the controller does to the core — good enough while interactive
// cores stay at peak (the nominal SprintCon sprint), but wrong the moment
// a policy throttles them: a real request server does not get less work
// because it got slower, it gets *more utilized* and builds a backlog.
//
// RequestQueueSource closes that loop with a fluid queue: an offered-load
// generator produces the arrival rate; the core serves at a rate
// proportional to its frequency; unserved work accumulates as backlog and
// drains when capacity returns. Utilization is the fraction of the tick
// the core was busy, and Little's law gives the measured response time —
// so throttled baselines show the latency damage the analytic M/M/1 model
// (queueing.hpp) can only predict.
#pragma once

#include <algorithm>

#include "common/validation.hpp"
#include "workload/interactive.hpp"

namespace sprintcon::workload {

/// Fluid-queue configuration.
struct RequestQueueConfig {
  /// Requests/s the core serves at peak frequency.
  double service_rate_peak = 1000.0;
  /// The offered load as a fraction of peak capacity is produced by an
  /// InteractiveTraceGenerator with this shape (its "utilization" output
  /// is interpreted as lambda / mu_peak).
  InteractiveTraceConfig offered_load;
  /// Backlog cap in requests (admission control sheds load beyond this;
  /// prevents unbounded state during long outages).
  double max_backlog = 1e6;
};

/// A per-core request queue driven by a synthetic offered-load trace.
///
/// step() is inline: every queue-backed core calls it every tick from
/// CpuCore::step (DESIGN.md §7.5). Of its config the queue keeps only the
/// two scalars it reads; the offered-load shape lives in the generator.
class RequestQueueSource {
 public:
  /// @param config config
  /// @param rng    stream for the offered-load generator
  /// @param phase_s phase offset of the offered-load swell
  RequestQueueSource(const RequestQueueConfig& config, Rng rng,
                     double phase_s = 0.0);

  /// Advance the queue by dt with the core at normalized frequency `freq`.
  /// Returns the busy fraction of the interval.
  double step(double dt_s, double freq) {
    SPRINTCON_EXPECTS(dt_s > 0.0, "dt must be positive");
    SPRINTCON_EXPECTS(freq >= 0.0 && freq <= 1.0 + 1e-9,
                      "normalized frequency must be in [0, 1]");

    // Offered load fraction -> arrival rate. The routing scale rides on
    // top of the generator so the underlying trace (and its RNG stream)
    // advances identically whether or not traffic is re-routed.
    const double load_fraction = offered_.step(dt_s);
    arrival_rate_ = load_fraction * service_rate_peak_ * load_scale_;

    // Fluid queue: capacity this tick, work available, work served.
    const double capacity = service_rate_peak_ * freq * dt_s;
    const double arriving = arrival_rate_ * dt_s;
    const double available = backlog_ + arriving;
    const double served = std::min(available, capacity);
    const double backlog_before = backlog_;
    backlog_ = available - served;

    // Admission control: shed load beyond the cap.
    if (backlog_ > max_backlog_) {
      shed_ += backlog_ - max_backlog_;
      backlog_ = max_backlog_;
    }

    // Busy fraction of the tick.
    utilization_ =
        capacity > 0.0 ? served / capacity : (available > 0.0 ? 1.0 : 0.0);
    utilization_ = std::clamp(utilization_, 0.0, 1.0);

    // Little's law on the mean backlog over the tick, plus the bare
    // service time at the current speed.
    const double mean_backlog = 0.5 * (backlog_before + backlog_);
    const double service_time =
        freq > 0.0 ? 1.0 / (service_rate_peak_ * freq) : 0.0;
    response_s_ = service_time + (arrival_rate_ > 1e-9
                                      ? mean_backlog / arrival_rate_
                                      : 0.0);
    return utilization_;
  }
  double utilization() const noexcept { return utilization_; }

  /// Requests waiting at the end of the last tick.
  double backlog() const noexcept { return backlog_; }
  /// Offered arrival rate of the last tick (requests/s).
  double arrival_rate() const noexcept { return arrival_rate_; }
  /// Requests shed by admission control so far.
  double shed_requests() const noexcept { return shed_; }
  /// Measured response time over the last tick via Little's law
  /// (mean backlog / arrival rate) plus the bare service time.
  double response_time_s() const noexcept { return response_s_; }

  /// Scale the offered arrival rate (request routing, not admission
  /// control): 0 drains the queue entirely — the front-end stopped
  /// sending traffic here — while > 1 models load re-routed *onto* this
  /// queue from a quarantined peer. Takes effect on the next tick.
  void set_load_scale(double scale);
  double load_scale() const noexcept { return load_scale_; }

 private:
  InteractiveTraceGenerator offered_;
  double service_rate_peak_;
  double max_backlog_;
  double backlog_ = 0.0;
  double arrival_rate_ = 0.0;
  double utilization_ = 0.0;
  double response_s_ = 0.0;
  double shed_ = 0.0;
  double load_scale_ = 1.0;
};

}  // namespace sprintcon::workload
