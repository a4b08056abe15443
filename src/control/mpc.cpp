#include "control/mpc.hpp"

#include <algorithm>
#include <cmath>

#include "common/validation.hpp"

namespace sprintcon::control {

namespace {

// Solver budget and stopping residual of every MPC solve.
constexpr QpOptions kQpOptions{};

/// True when cores i and j have bitwise-equal inputs: gain, penalty
/// weight and frequency bounds. Every per-core array of the QP (gain,
/// penalty, each block's gradient and bounds) is a function of those four
/// and per-block scalars, so such cores are bitwise-equal coordinates.
bool same_core(const MpcProblem& p, std::size_t i, std::size_t j) {
  return same_bits(p.gains_w_per_f[i], p.gains_w_per_f[j]) &&
         same_bits(p.penalty_weights[i], p.penalty_weights[j]) &&
         same_bits(p.freq_min[i], p.freq_min[j]) &&
         same_bits(p.freq_max[i], p.freq_max[j]);
}

/// True when the representatives of two classes of `qp` have come to
/// match, so the partition should be built afresh to merge them. Only a
/// pair with equal penalty weights compares the other inputs.
bool classes_coincide(const MpcProblem& p, const StructuredClassQp& qp) {
  const std::size_t m = qp.num_classes();
  for (std::size_t a = 0; a < m; ++a) {
    const double w = p.penalty_weights[qp.class_rep[a]];
    for (std::size_t b = a + 1; b < m; ++b)
      if (p.penalty_weights[qp.class_rep[b]] == w &&
          same_core(p, qp.class_rep[a], qp.class_rep[b]))
        return true;
  }
  return false;
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

double MpcPowerController::build_reference(const MpcProblem& problem,
                                           double k_dot_f) {
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
  return problem.power_feedback_w - k_dot_f;
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

double MpcPowerController::check_problem(const MpcProblem& p) {
  const std::size_t n = p.gains_w_per_f.size();
  SPRINTCON_EXPECTS(n > 0, "MPC problem needs at least one actuated core");
  SPRINTCON_EXPECTS(p.freq_current.size() == n, "freq_current size mismatch");
  SPRINTCON_EXPECTS(p.freq_min.size() == n, "freq_min size mismatch");
  SPRINTCON_EXPECTS(p.freq_max.size() == n, "freq_max size mismatch");
  SPRINTCON_EXPECTS(p.penalty_weights.size() == n,
                    "penalty_weights size mismatch");
  // The same pass keeps the partition while every core still matches its
  // class's representative (singleton classes cost nothing), and sums
  // K . F(t) in index order: that chain of adds hides behind the checks.
  bool holds = sqp_.block_size() == n;
  double k_dot_f = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    SPRINTCON_EXPECTS(p.freq_min[i] <= p.freq_max[i], "frequency bounds crossed");
    SPRINTCON_EXPECTS(p.penalty_weights[i] > 0.0, "penalty must be > 0");
    SPRINTCON_EXPECTS(p.gains_w_per_f[i] >= 0.0,
                      "power gain must be non-negative");
    k_dot_f += p.gains_w_per_f[i] * p.freq_current[i];
    if (holds) {
      const std::size_t rep = sqp_.class_rep[sqp_.class_of[i]];
      holds = rep == i || same_core(p, i, rep);
    }
  }
  // Build it afresh on first use, for a new core count, when a core stops
  // matching, or when two classes have come to match (so they merge). The
  // merge check costs m (m - 1) / 2 compares, so only a compact partition
  // (m < n) runs it. With every core distinct the solve runs the plain
  // per-core loops and the check would cost more than a merge saves (~5%
  // of small-rig-fleet's run_s on its 8-core rigs), so an all-distinct
  // partition is kept as it is.
  if (!holds ||
      (sqp_.num_classes() < n && classes_coincide(p, sqp_)))
    sqp_.partition(n, [&p](std::size_t i, std::size_t j) {
      return same_core(p, i, j);
    });
  return k_dot_f;
}

void MpcPowerController::step(const MpcProblem& problem, MpcOutput& out) {
  const obs::ScopedTimer timer(obs_ != nullptr ? met_.step_us : nullptr);
  const obs::ScopedSpan span(obs_ != nullptr ? obs_->trace() : nullptr,
                             "mpc_solve", "decision", "horizon",
                             static_cast<double>(config_.prediction_horizon));
  step_structured(problem, check_problem(problem), out);
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
                                         double k_dot_f, MpcOutput& out) {
  const std::size_t n = problem.gains_w_per_f.size();
  const std::size_t lc = config_.control_horizon;
  const std::size_t lp = config_.prediction_horizon;
  const std::size_t dim = n * lc;
  const double pred_base = build_reference(problem, k_dot_f);

  // Assemble the operator form of the Hessian (see structured_qp.hpp) for
  // the class representatives only, in controller-owned buffers. Each
  // array is a per-core function of the four inputs the partition
  // compares, so a class's value is every member's value.
  sqp_.resize_classes(lc);
  const std::size_t m = sqp_.num_classes();
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t rep = sqp_.class_rep[j];
    sqp_.gains[j] = problem.gains_w_per_f[rep];
    sqp_.penalty[j] = problem.penalty_weights[rep];
  }
  for (std::size_t b = 0; b < lc; ++b) {
    const BlockTracking t = block_tracking(reference_, pred_base, b, lc, lp);
    sqp_.rank_weight[b] = t.steps;
    const std::size_t off = b * m;
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t rep = sqp_.class_rep[j];
      sqp_.gradient[off + j] =
          -problem.gains_w_per_f[rep] * t.ref_sum -
          problem.penalty_weights[rep] * problem.freq_max[rep];
      sqp_.lower[off + j] = problem.freq_min[rep];
      sqp_.upper[off + j] = problem.freq_max[rep];
    }
  }

  // Warm start from the previous solution when the shape is unchanged.
  if (warm_start_.size() != dim) {
    warm_start_.resize(dim);
    for (std::size_t b = 0; b < lc; ++b)
      std::copy(problem.freq_current.begin(), problem.freq_current.end(),
                warm_start_.begin() + static_cast<std::ptrdiff_t>(b * n));
  }

  solve_structured_qp(sqp_, warm_start_, kQpOptions, sqp_scratch_, out.qp);
  warm_start_ = out.qp.x;

  out.freq_next.assign(out.qp.x.begin(),
                       out.qp.x.begin() + static_cast<std::ptrdiff_t>(n));
  // K . freq_next, summed in index order: the solver's k . x_0 of the
  // solution it returned is that very sum.
  out.predicted_power_w = pred_base + sqp_scratch_.block_dots[0];
}

}  // namespace sprintcon::control
