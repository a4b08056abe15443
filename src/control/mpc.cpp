#include "control/mpc.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/validation.hpp"

namespace sprintcon::control {

namespace {

// Solver budget and stopping residual of every MPC solve.
constexpr QpOptions kQpOptions{};

void check_problem(const MpcProblem& p) {
  const std::size_t n = p.gains_w_per_f.size();
  SPRINTCON_EXPECTS(n > 0, "MPC problem needs at least one actuated core");
  SPRINTCON_EXPECTS(p.freq_current.size() == n, "freq_current size mismatch");
  SPRINTCON_EXPECTS(p.freq_min.size() == n, "freq_min size mismatch");
  SPRINTCON_EXPECTS(p.freq_max.size() == n, "freq_max size mismatch");
  SPRINTCON_EXPECTS(p.penalty_weights.size() == n,
                    "penalty_weights size mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    SPRINTCON_EXPECTS(p.freq_min[i] <= p.freq_max[i], "frequency bounds crossed");
    SPRINTCON_EXPECTS(p.penalty_weights[i] > 0.0, "penalty must be > 0");
    SPRINTCON_EXPECTS(p.gains_w_per_f[i] >= 0.0,
                      "power gain must be non-negative");
  }
}

/// Number of prediction steps mapped to control block b and the sum of
/// (reference - base) over those steps. All blocks but the last cover one
/// step; the last covers the rest of the prediction horizon.
struct BlockTracking {
  double steps = 0.0;
  double ref_sum = 0.0;
};

BlockTracking block_tracking(const Vector& reference, double pred_base,
                             std::size_t b, std::size_t lc, std::size_t lp) {
  const std::size_t first_step = b;  // 0-based step index s-1
  const std::size_t last_step = (b + 1 == lc) ? lp - 1 : b;
  BlockTracking t;
  for (std::size_t s = first_step; s <= last_step; ++s) {
    t.steps += 1.0;
    t.ref_sum += reference[s] - pred_base;
  }
  return t;
}

}  // namespace

MpcPowerController::MpcPowerController(const MpcConfig& config)
    : config_(config) {
  SPRINTCON_EXPECTS(config.control_horizon >= 1, "control horizon >= 1");
  SPRINTCON_EXPECTS(config.prediction_horizon >= config.control_horizon,
                    "prediction horizon must cover the control horizon");
  SPRINTCON_EXPECTS(config.control_period_s > 0.0, "control period > 0");
  SPRINTCON_EXPECTS(config.reference_time_constant_s > 0.0, "tau_r > 0");
  reference_decay_ =
      std::exp(-config_.control_period_s / config_.reference_time_constant_s);
}

double MpcPowerController::build_reference(const MpcProblem& problem) {
  // Reference trajectory (Eq. 7), evaluated at x = 1..Lp.
  // r(x) = P - e^{-(T/tau) x} (P - p_fb)
  const std::size_t lp = config_.prediction_horizon;
  const double decay = reference_decay_;
  reference_.resize(lp);
  double e = problem.power_target_w - problem.power_feedback_w;
  for (std::size_t s = 0; s < lp; ++s) {
    e *= decay;
    reference_[s] = problem.power_target_w - e;
  }
  // Constant part of the power prediction: p_fb(t) - K . F(t).
  return problem.power_feedback_w -
         std::inner_product(problem.gains_w_per_f.begin(),
                            problem.gains_w_per_f.end(),
                            problem.freq_current.begin(), 0.0);
}

void MpcPowerController::set_obs(obs::ObsSink* sink) {
  obs_ = sink;
  met_ = ObsHandles{};
  if (sink == nullptr) return;
  auto& m = sink->metrics();
  met_.solves_structured = &m.counter("mpc.solves.structured");
  met_.qp_iterations = &m.counter("mpc.qp.iterations");
  met_.qp_direct_passes = &m.counter("mpc.qp.direct_passes");
  met_.qp_restarts = &m.counter("mpc.qp.restarts");
  met_.qp_not_converged = &m.counter("mpc.qp.not_converged");
  met_.exit_residual = &m.histogram("mpc.qp.exit_residual");
  met_.step_us = &m.histogram("mpc.step_us");
}

void MpcPowerController::step(const MpcProblem& problem, MpcOutput& out) {
  check_problem(problem);
  const obs::ScopedTimer timer(obs_ != nullptr ? met_.step_us : nullptr);
  const obs::ScopedSpan span(obs_ != nullptr ? obs_->trace() : nullptr,
                             "mpc_solve", "decision", "horizon",
                             static_cast<double>(config_.prediction_horizon));
  step_structured(problem, out);
  if (obs_ != nullptr) {
    met_.solves_structured->add();
    met_.qp_iterations->add(static_cast<std::uint64_t>(out.qp.iterations));
    met_.qp_direct_passes->add(
        static_cast<std::uint64_t>(out.qp.direct_passes));
    met_.qp_restarts->add(static_cast<std::uint64_t>(out.qp.restarts));
    if (!out.qp.converged) met_.qp_not_converged->add();
    met_.exit_residual->record(out.qp.residual);
  }
}

void MpcPowerController::step_structured(const MpcProblem& problem,
                                         MpcOutput& out) {
  const std::size_t n = problem.gains_w_per_f.size();
  const std::size_t lc = config_.control_horizon;
  const std::size_t lp = config_.prediction_horizon;
  const std::size_t dim = n * lc;
  const double pred_base = build_reference(problem);

  // Assemble the operator form of the Hessian (see structured_qp.hpp) in
  // controller-owned buffers; copy-assignment reuses their capacity.
  sqp_.gains = problem.gains_w_per_f;
  sqp_.penalty = problem.penalty_weights;
  sqp_.rank_weight.resize(lc);
  sqp_.gradient.resize(dim);
  sqp_.lower.resize(dim);
  sqp_.upper.resize(dim);

  for (std::size_t b = 0; b < lc; ++b) {
    const BlockTracking t = block_tracking(reference_, pred_base, b, lc, lp);
    sqp_.rank_weight[b] = t.steps;
    const std::size_t off = b * n;
    for (std::size_t i = 0; i < n; ++i) {
      sqp_.gradient[off + i] =
          -problem.gains_w_per_f[i] * t.ref_sum -
          problem.penalty_weights[i] * problem.freq_max[i];
      sqp_.lower[off + i] = problem.freq_min[i];
      sqp_.upper[off + i] = problem.freq_max[i];
    }
  }

  // Warm start from the previous solution when the shape is unchanged.
  if (warm_start_.size() == dim) {
    x0_ = warm_start_;
  } else {
    x0_.resize(dim);
    for (std::size_t b = 0; b < lc; ++b)
      std::copy(problem.freq_current.begin(), problem.freq_current.end(),
                x0_.begin() + static_cast<std::ptrdiff_t>(b * n));
  }

  solve_structured_qp(sqp_, x0_, kQpOptions, sqp_scratch_, out.qp);
  warm_start_ = out.qp.x;

  out.freq_next.assign(out.qp.x.begin(),
                       out.qp.x.begin() + static_cast<std::ptrdiff_t>(n));
  out.predicted_power_w =
      pred_base + std::inner_product(problem.gains_w_per_f.begin(),
                                     problem.gains_w_per_f.end(),
                                     out.freq_next.begin(), 0.0);
}

}  // namespace sprintcon::control
