#include "control/structured_qp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/attributes.hpp"
#include "common/validation.hpp"

namespace sprintcon::control {

void StructuredBlockQp::validate() const {
  const std::size_t n = gains.size();
  const std::size_t blocks = rank_weight.size();
  SPRINTCON_EXPECTS(n > 0, "structured QP needs at least one variable");
  SPRINTCON_EXPECTS(blocks > 0, "structured QP needs at least one block");
  SPRINTCON_EXPECTS(penalty.size() == n, "penalty size mismatch");
  SPRINTCON_EXPECTS(gradient.size() == n * blocks, "gradient size mismatch");
  SPRINTCON_EXPECTS(lower.size() == n * blocks && upper.size() == n * blocks,
                    "bound size mismatch");
  for (std::size_t b = 0; b < blocks; ++b)
    SPRINTCON_EXPECTS(rank_weight[b] >= 0.0, "rank weight must be >= 0");
  for (std::size_t i = 0; i < n; ++i)
    SPRINTCON_EXPECTS(penalty[i] > 0.0, "penalty must be > 0");
  for (std::size_t i = 0; i < n * blocks; ++i)
    SPRINTCON_EXPECTS(lower[i] <= upper[i], "QP bounds crossed");
}

double structured_lambda_max_bound(const StructuredBlockQp& qp) {
  double r_max = 0.0;
  for (const double r : qp.penalty) r_max = std::max(r_max, r);
  double c_max = 0.0;
  for (const double c : qp.rank_weight) c_max = std::max(c_max, c);
  double k_sq = 0.0;
  for (const double k : qp.gains) k_sq += k * k;
  return r_max + c_max * k_sq;
}

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// True when coordinates i and j have bitwise-equal inputs: gain, penalty
/// and every block's gradient and bounds.
bool same_coordinate(const StructuredBlockQp& qp, std::size_t i,
                     std::size_t j) {
  if (!same_bits(qp.gains[i], qp.gains[j]) ||
      !same_bits(qp.penalty[i], qp.penalty[j]))
    return false;
  const std::size_t n = qp.block_size();
  for (std::size_t off = 0; off < qp.dim(); off += n) {
    if (!same_bits(qp.gradient[off + i], qp.gradient[off + j]) ||
        !same_bits(qp.lower[off + i], qp.lower[off + j]) ||
        !same_bits(qp.upper[off + i], qp.upper[off + j]))
      return false;
  }
  return true;
}

/// Partition the coordinates afresh: each joins the first class whose
/// representative it matches, or starts a new one. The partition is sized
/// for n classes, so a later rebuild for this block size never allocates.
void build_partition(const StructuredBlockQp& qp, StructuredQpScratch& s) {
  const std::size_t n = qp.block_size();
  s.class_of.resize(n);
  s.class_rep.reserve(n);
  s.class_rep.clear();
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t j = 0;
    while (j < s.class_rep.size() && !same_coordinate(qp, i, s.class_rep[j]))
      ++j;
    s.class_of[i] = static_cast<std::uint32_t>(j);
    if (j == s.class_rep.size())
      s.class_rep.push_back(static_cast<std::uint32_t>(i));
  }
}

/// Keep the partition while every coordinate still matches its class's
/// representative bit for bit, and build it afresh otherwise: on first
/// use, for a new block size, or when a member stops matching. Singleton
/// classes are not checked, so a partition of singletons costs nothing to
/// keep.
void refresh_partition(const StructuredBlockQp& qp, StructuredQpScratch& s) {
  const std::size_t n = qp.block_size();
  bool holds = s.class_of.size() == n;
  for (std::size_t i = 0; holds && s.class_rep.size() < n && i < n; ++i) {
    const std::uint32_t rep = s.class_rep[s.class_of[i]];
    holds = rep == i || same_coordinate(qp, i, rep);
  }
  if (!holds) build_partition(qp, s);
}

/// What a solve iterates on: one coordinate per class, m per block with
/// block stride m, next to the caller's problem `full` (n per block). With
/// every coordinate its own class (kCompact = false) the arrays are
/// `full`'s own, m = n, and `of` and `terms` are unused.
struct Classes {
  const StructuredBlockQp& full;
  std::size_t m;
  const double* gains;
  const double* penalty;
  const double* gradient;
  const double* lower;
  const double* upper;
  const std::uint32_t* of;  ///< class of each coordinate, length n
  double* terms;            ///< per-class summands, length 2m
};

/// The classes of `qp` when every coordinate is its own.
Classes identity_classes(const StructuredBlockQp& qp) {
  return {qp,
          qp.block_size(),
          qp.gains.data(),
          qp.penalty.data(),
          qp.gradient.data(),
          qp.lower.data(),
          qp.upper.data(),
          nullptr,
          nullptr};
}

/// Copy each class's representative into `s.compact`. Its buffers and the
/// iterates are sized for n classes, so the partition can later split or
/// dissolve without an allocation; a partition of singletons never gets
/// here and never pays for them.
Classes gather_classes(const StructuredBlockQp& qp, StructuredQpScratch& s) {
  const std::size_t n = qp.block_size();
  const std::size_t m = s.class_rep.size();
  const std::size_t blocks = qp.num_blocks();
  // Layout: gains, penalty, then gradient, lower and upper with block
  // stride m, then two summand slots per class.
  s.compact.reserve((4 + 3 * blocks) * n);
  for (Vector* v : {&s.x, &s.y, &s.x_next, &s.grad}) v->reserve(n * blocks);
  s.compact.resize((4 + 3 * blocks) * m);
  double* gains = s.compact.data();
  double* penalty = gains + m;
  double* gradient = penalty + m;
  double* lower = gradient + m * blocks;
  double* upper = lower + m * blocks;
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t rep = s.class_rep[j];
    gains[j] = qp.gains[rep];
    penalty[j] = qp.penalty[rep];
    for (std::size_t b = 0; b < blocks; ++b) {
      gradient[b * m + j] = qp.gradient[b * n + rep];
      lower[b * m + j] = qp.lower[b * n + rep];
      upper[b * m + j] = qp.upper[b * n + rep];
    }
  }
  return {qp,    m,     gains, penalty, gradient,
          lower, upper, s.class_of.data(), upper + m * blocks};
}

/// acc + the sum over coordinates i = 0..n-1, in index order, of
/// term(class of i). The compact path evaluates term once per class and
/// then adds all n summands, so the result has the bits of the
/// per-coordinate sum; the identity path is that sum, fused.
template <bool kCompact, typename Term>
inline double ordered_sum(const Classes& cl, double acc, Term term) {
  const std::size_t n = cl.full.block_size();
  if constexpr (kCompact) {
    for (std::size_t j = 0; j < cl.m; ++j) cl.terms[j] = term(j);
    for (std::size_t i = 0; i < n; ++i) acc += cl.terms[cl.of[i]];
  } else {
    for (std::size_t i = 0; i < n; ++i) acc += term(i);
  }
  return acc;
}

/// Two ordered sums formed together: term(j, a, b) adds coordinate j's
/// summands to a and b, and may leave either alone. The compact path
/// gives each class two slots that start at -0.0: x + (-0.0) == x for
/// every x, so a slot ends up holding exactly the summand added to it,
/// and a slot the term left alone adds nothing.
template <bool kCompact, typename Term>
inline void ordered_sum2(const Classes& cl, double& acc_a, double& acc_b,
                         Term term) {
  const std::size_t n = cl.full.block_size();
  if constexpr (kCompact) {
    for (std::size_t j = 0; j < cl.m; ++j) {
      double* t = cl.terms + 2 * j;
      t[0] = t[1] = -0.0;
      term(j, t[0], t[1]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double* t = cl.terms + 2 * std::size_t{cl.of[i]};
      acc_a += t[0];
      acc_b += t[1];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) term(i, acc_a, acc_b);
  }
}

/// Exact minimizer of one block: 0.5 x^T (diag(r) + c k k^T) x + g^T x over
/// the box. For a fixed scalar s = k^T x the problem separates —
/// x_i(s) = clamp(-(g_i + c k_i s) / r_i) — and phi(s) = k^T x(s) - s is
/// continuous, piecewise linear and strictly decreasing (slope <= -1), so
/// its unique root is the KKT point. Safeguarded Newton on phi lands on it
/// in a handful of O(n) passes, versus hundreds of projected-gradient
/// iterations when c ||k||^2 >> max r (the rig's regime: power gains of
/// tens of W/GHz against unit-scale comfort penalties). Requires every
/// r_i > 0 (validate() checks it). Writes one value per class into `x` and
/// returns the scalar iteration count.
template <bool kCompact>
int solve_block_direct(const Classes& cl, std::size_t b, double tolerance,
                       const Vector& x0, double* x) {
  const std::size_t n = cl.full.block_size();
  const std::size_t m = cl.m;
  const double c = cl.full.rank_weight[b];
  const double* k = cl.gains;
  const double* r = cl.penalty;
  const double* g = cl.gradient + b * m;
  const double* lower = cl.lower + b * m;
  const double* upper = cl.upper + b * m;
  double* xb = x + b * m;

  double k_max = 0.0;
  for (std::size_t j = 0; j < m; ++j) k_max = std::max(k_max, std::abs(k[j]));
  if (c * k_max == 0.0) {
    // Diagonal block: coordinates are independent.
    for (std::size_t j = 0; j < m; ++j)
      xb[j] = std::clamp(-g[j] / r[j], lower[j], upper[j]);
    return 1;
  }

  // s* = k^T x* is bracketed by the box images of k.
  double lo = 0.0, hi = 0.0;
  ordered_sum2<kCompact>(
      cl, lo, hi, [&](std::size_t j, double& lo_sum, double& hi_sum) {
        const double a = k[j] * lower[j];
        const double b2 = k[j] * upper[j];
        lo_sum += std::min(a, b2);
        hi_sum += std::max(a, b2);
      });
  // phi error |phi| maps to a projected-gradient residual of at most
  // c k_max |phi|; aim well under the caller's tolerance.
  const double tol_s = 0.25 * tolerance / std::max(1.0, c * k_max);

  // The warm start need not be constant on a class: seed from every
  // coordinate.
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += cl.full.gains[i] * x0[b * n + i];
  s = std::clamp(s, lo, hi);

  int iterations = 0;
  double s_prev = s;
  for (; iterations < 200; ++iterations) {
    double kx = 0.0;
    double interior_slope = 0.0;
    ordered_sum2<kCompact>(
        cl, kx, interior_slope,
        [&](std::size_t j, double& kx_sum, double& slope_sum) {
          const double xi_free = -(g[j] + c * k[j] * s) / r[j];
          if (xi_free <= lower[j]) {
            kx_sum += k[j] * lower[j];
          } else if (xi_free >= upper[j]) {
            kx_sum += k[j] * upper[j];
          } else {
            kx_sum += k[j] * xi_free;
            slope_sum += c * k[j] * k[j] / r[j];
          }
        });
    const double phi = kx - s;
    if (std::abs(phi) <= tol_s) break;
    if (phi > 0.0) {
      lo = s;
    } else {
      hi = s;
    }
    // On an all-clamped segment (no interior coordinate) kx is constant,
    // so the local root is exactly kx; computing it as s + phi would round
    // twice and can land an ulp outside the bracket.
    const double s_newton =
        interior_slope == 0.0 ? kx : s + phi / (1.0 + interior_slope);
    // FP floor: when the local slope is steep (c ||k||^2 >> 1) the Newton
    // increment can underflow below one ulp of s while |phi| is still above
    // tol_s — s is then the best representable point and further bisection
    // of the bracket would only grind ~50 O(n) passes to the same place.
    if (s_newton == s) break;
    // Inclusive bracket test: the root frequently sits exactly on an
    // endpoint (e.g. every coordinate clamped low makes s* = k^T lower,
    // the initial lo), and a strict test would reject the exact answer
    // and bisect the whole bracket down to it.
    double s_next =
        (s_newton >= lo && s_newton <= hi) ? s_newton : 0.5 * (lo + hi);
    // 2-cycle guard: with exact endpoint landings the Newton iterate can
    // alternate between the same two points (each updating one bracket
    // side) without ever shrinking the bracket — force a bisection step.
    if (s_next == s_prev) s_next = 0.5 * (lo + hi);
    if (s_next == s) break;
    s_prev = s;
    s = s_next;
  }

  for (std::size_t j = 0; j < m; ++j)
    xb[j] = std::clamp(-(g[j] + c * k[j] * s) / r[j], lower[j], upper[j]);
  return iterations + 1;
}

/// Projected-gradient residual ||x - clamp(x - (Hx + g))||_inf of a
/// class-level iterate; the max over classes is the max over coordinates.
template <bool kCompact>
double residual(const Classes& cl, const Vector& x) {
  const std::size_t m = cl.m;
  double res = 0.0;
  for (std::size_t b = 0; b < cl.full.num_blocks(); ++b) {
    const std::size_t off = b * m;
    const double kx = ordered_sum<kCompact>(
        cl, 0.0, [&](std::size_t j) { return cl.gains[j] * x[off + j]; });
    const double c_kx = cl.full.rank_weight[b] * kx;
    for (std::size_t j = 0; j < m; ++j) {
      const double g = cl.penalty[j] * x[off + j] + cl.gains[j] * c_kx +
                       cl.gradient[off + j];
      const double stepped =
          std::clamp(x[off + j] - g, cl.lower[off + j], cl.upper[off + j]);
      res = std::max(res, std::abs(x[off + j] - stepped));
    }
  }
  return res;
}

/// Copy the class-level solution to every coordinate.
template <bool kCompact>
void write_solution(const Classes& cl, const Vector& x, Vector& out) {
  if constexpr (kCompact) {
    const std::size_t n = cl.full.block_size();
    out.resize(cl.full.dim());
    for (std::size_t b = 0; b < cl.full.num_blocks(); ++b)
      for (std::size_t i = 0; i < n; ++i)
        out[b * n + i] = x[b * cl.m + cl.of[i]];
  } else {
    out = x;
  }
}

/// The whole solve over the classes of `cl` (see solve_structured_qp).
template <bool kCompact>
SPRINTCON_HOT void solve_classes(const Classes& cl, const Vector& x0,
                   const QpOptions& options, StructuredQpScratch& scratch,
                   QpResult& result) {
  const std::size_t m = cl.m;
  const std::size_t blocks = cl.full.num_blocks();
  const std::size_t dim = m * blocks;

  Vector& x = scratch.x;
  x.resize(dim);
  int direct_iterations = 0;
  for (std::size_t b = 0; b < blocks; ++b)
    direct_iterations += solve_block_direct<kCompact>(
        cl, b, options.tolerance, x0, x.data());
  result.direct_passes = direct_iterations;
  const double direct_res = residual<kCompact>(cl, x);
  if (direct_res < options.tolerance) {
    result.iterations = direct_iterations;
    result.restarts = 0;
    result.converged = true;
    result.residual = direct_res;
    write_solution<kCompact>(cl, x, result.x);
    return;
  }

  // The analytic bound is a true upper bound on lambda_max (triangle
  // inequality per block), so no safety padding is needed beyond a floor
  // against an all-zero Hessian. Its ||k||^2 sums every coordinate.
  const double lmax = structured_lambda_max_bound(cl.full);
  const double step = 1.0 / std::max(lmax, 1e-12);

  Vector& y = scratch.y;
  Vector& x_next = scratch.x_next;
  Vector& g = scratch.grad;
  x_next.resize(dim);
  g.resize(dim);
  y = x;  // the direct answer, already inside the box
  double t_momentum = 1.0;

  result.iterations = 0;
  result.restarts = 0;
  result.converged = false;

  for (int it = 0; it < options.max_iterations; ++it) {
    // g = H y, one block at a time.
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t off = b * m;
      const double ky = ordered_sum<kCompact>(
          cl, 0.0, [&](std::size_t j) { return cl.gains[j] * y[off + j]; });
      const double c_ky = cl.full.rank_weight[b] * ky;
      for (std::size_t j = 0; j < m; ++j)
        g[off + j] = cl.penalty[j] * y[off + j] + cl.gains[j] * c_ky;
    }
    for (std::size_t d = 0; d < dim; ++d) {
      x_next[d] = std::clamp(y[d] - step * (g[d] + cl.gradient[d]),
                             cl.lower[d], cl.upper[d]);
    }

    // O'Donoghue-Candes gradient restart (see solve_box_qp): drop the
    // momentum whenever it opposes the descent direction, restoring
    // linear convergence on strongly convex problems.
    double restart_test = 0.0;
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t off = b * m;
      restart_test =
          ordered_sum<kCompact>(cl, restart_test, [&](std::size_t j) {
            const std::size_t d = off + j;
            return (g[d] + cl.gradient[d]) * (x_next[d] - x[d]);
          });
    }
    if (restart_test > 0.0) {
      t_momentum = 1.0;
      ++result.restarts;
    }

    const double t_next =
        0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t_momentum * t_momentum));
    const double beta = (t_momentum - 1.0) / t_next;
    for (std::size_t d = 0; d < dim; ++d)
      y[d] = x_next[d] + beta * (x_next[d] - x[d]);
    std::swap(x, x_next);
    t_momentum = t_next;
    result.iterations = it + 1;

    // Convergence check on the true iterate (not the extrapolated point),
    // every iteration: the polish starts within a few iterations of the
    // tolerance, so checking exits sooner than it costs.
    const double res = residual<kCompact>(cl, x);
    if (res < options.tolerance) {
      result.converged = true;
      result.residual = res;
      write_solution<kCompact>(cl, x, result.x);
      return;
    }
  }

  result.residual = residual<kCompact>(cl, x);
  result.converged = result.residual < options.tolerance;
  write_solution<kCompact>(cl, x, result.x);
}

}  // namespace

SPRINTCON_HOT void solve_structured_qp(const StructuredBlockQp& qp,
                                       const Vector& x0,
                                       const QpOptions& options,
                                       StructuredQpScratch& scratch,
                                       QpResult& result) {
  qp.validate();
  SPRINTCON_EXPECTS(x0.size() == qp.dim(), "QP warm-start dimension mismatch");
  SPRINTCON_EXPECTS(options.max_iterations > 0, "QP needs >= 1 iteration");

  // Each block is solved through its scalar KKT equation. The FISTA loop
  // runs only when that answer's residual misses the tolerance, and then
  // polishes it. That is routine, not rare: perfbench at seed 42 polished
  // 63% of solves on paper-racks, 6% on small-rig-fleet and 69% on
  // surge-brownout, mostly with a single FISTA step.
  //
  // Coordinates with bitwise-equal inputs take bitwise-equal values at
  // every step of that algorithm, so it runs on one coordinate per class.
  // The template flag is chosen once per solve: when every coordinate is
  // its own class the passes are the plain per-coordinate loops.
  refresh_partition(qp, scratch);
  if (scratch.class_rep.size() == qp.block_size()) {
    solve_classes<false>(identity_classes(qp), x0, options, scratch, result);
  } else {
    solve_classes<true>(gather_classes(qp, scratch), x0, options, scratch,
                        result);
  }
}

}  // namespace sprintcon::control
