#include "control/structured_qp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/attributes.hpp"
#include "common/validation.hpp"

namespace sprintcon::control {

void StructuredClassQp::resize_classes(std::size_t blocks) {
  const std::size_t n = block_size();
  const std::size_t m = num_classes();
  rank_weight.resize(blocks);
  for (Vector* v : {&gains, &penalty}) {
    v->reserve(n);
    v->resize(m);
  }
  for (Vector* v : {&gradient, &lower, &upper}) {
    v->reserve(n * blocks);
    v->resize(m * blocks);
  }
}

void StructuredClassQp::validate() const {
  const std::size_t n = block_size();
  const std::size_t m = num_classes();
  const std::size_t blocks = num_blocks();
  SPRINTCON_EXPECTS(n > 0, "structured QP needs at least one variable");
  SPRINTCON_EXPECTS(blocks > 0, "structured QP needs at least one block");
  SPRINTCON_EXPECTS(m > 0 && m <= n, "class partition size mismatch");
  SPRINTCON_EXPECTS(gains.size() == m, "gain size mismatch");
  SPRINTCON_EXPECTS(penalty.size() == m, "penalty size mismatch");
  SPRINTCON_EXPECTS(gradient.size() == m * blocks, "gradient size mismatch");
  SPRINTCON_EXPECTS(lower.size() == m * blocks && upper.size() == m * blocks,
                    "bound size mismatch");
  for (std::size_t b = 0; b < blocks; ++b)
    SPRINTCON_EXPECTS(rank_weight[b] >= 0.0, "rank weight must be >= 0");
  for (std::size_t j = 0; j < m; ++j)
    SPRINTCON_EXPECTS(penalty[j] > 0.0, "penalty must be > 0");
  for (std::size_t d = 0; d < m * blocks; ++d)
    SPRINTCON_EXPECTS(lower[d] <= upper[d], "QP bounds crossed");
}

namespace {

/// What a solve iterates on: one value per class, m per block with block
/// stride m. With every coordinate its own class (kCompact = false) class
/// j is coordinate j, m = n and `of` is unused.
struct Classes {
  std::size_t n;  ///< coordinates per block
  std::size_t m;  ///< classes
  std::size_t blocks;
  const double* gains;
  const double* penalty;
  const double* rank_weight;
  const double* gradient;
  const double* lower;
  const double* upper;
  const std::uint32_t* of;  ///< class of each coordinate, length n
  double* terms;            ///< per-class summand slots, 5 per class
  double* slopes;           ///< per-class interior slopes, m per searched block
};

/// The summands of no sum that varies within a class.
struct NoCoordinateSummands {
  void operator()(std::size_t, std::size_t) const noexcept {}
};

/// K ordered sums formed in one pass over the coordinates: for i = 0..n-1
/// in index order, acc[q] += summand q of i's class. `term(j, t)` adds
/// class j's summands into t[0..K-1] and may leave any alone. The compact
/// path evaluates each class once into K slots that start at -0.0:
/// x + (-0.0) == x for every x, so a slot ends up holding exactly the
/// summand added to it, and a slot the term left alone adds nothing. So
/// each sum sees the summands of the per-coordinate sum in the same order
/// and has its bits; the identity path is that sum, fused. `each(i, j)`
/// runs for every coordinate i (of class j) in the same pass, for sums
/// whose summands differ within a class. The K + `each` chains are
/// independent, so their latencies overlap.
template <bool kCompact, std::size_t K, typename Term,
          typename Each = NoCoordinateSummands>
inline void ordered_sums(const Classes& cl, double* acc, Term term,
                         Each each = {}) {
  if constexpr (kCompact) {
    for (std::size_t j = 0; j < cl.m; ++j) {
      double* t = cl.terms + K * j;
      for (std::size_t q = 0; q < K; ++q) t[q] = -0.0;
      term(j, t);
    }
    for (std::size_t i = 0; i < cl.n; ++i) {
      const std::size_t j = cl.of[i];
      const double* t = cl.terms + K * j;
      for (std::size_t q = 0; q < K; ++q) acc[q] += t[q];
      each(i, j);
    }
  } else {
    for (std::size_t i = 0; i < cl.n; ++i) {
      term(i, acc);
      each(i, i);
    }
  }
}

/// k . x_b of every block b into `dots`, two blocks per pass (an odd
/// last block fills both slots of its pass). With kNorm the same passes
/// also sum ||k||^2, which is returned (0 otherwise); without it a pass
/// keeps two slots per class, which the compiler adds as one pair.
template <bool kCompact, bool kNorm = false>
double block_dots(const Classes& cl, const double* x, double* dots) {
  const double* k = cl.gains;
  double k_sq = 0.0;
  for (std::size_t b = 0; b < cl.blocks; b += 2) {
    const double* xa = x + b * cl.m;
    const double* xb = b + 1 < cl.blocks ? xa + cl.m : xa;
    double acc[3] = {0.0, 0.0, 0.0};
    ordered_sums<kCompact, kNorm ? 3 : 2>(cl, acc, [&](std::size_t j,
                                                       double* t) {
      t[0] += k[j] * xa[j];
      t[1] += k[j] * xb[j];
      if constexpr (kNorm) t[2] += k[j] * k[j];
    });
    dots[b] = acc[0];
    if (b + 1 < cl.blocks) dots[b + 1] = acc[1];
    k_sq = acc[2];
  }
  return k_sq;
}

/// One block's safeguarded Newton search for the root of phi(s) =
/// k^T x(s) - s (see solve_direct), between passes.
struct NewtonSearch {
  double c;             ///< the block's rank weight
  const double* g;      ///< the block's class-level gradient
  const double* lower;  ///< ... and bounds
  const double* upper;
  const double* slope;  ///< c k_j^2 / r_j per class
  double* x;            ///< the block's class-level solution
  double lo = 0.0;      ///< bracket on the root
  double hi = 0.0;
  double s = 0.0;
  double s_prev = 0.0;
  double tol_s = 0.0;
  /// k . x(s) at the current s; NaN when no pass has been taken there.
  double dot = std::numeric_limits<double>::quiet_NaN();
  int iterations = 0;

  /// Add class j's summands at the current s to kx and the interior
  /// slope: x_j(s) = clamp(-(g_j + c k_j s) / r_j), and c k_j^2 / r_j
  /// when x_j(s) is interior.
  void add_pass(const double* k, const double* r, std::size_t j,
                double& kx, double& slope_sum) const {
    const double xi_free = -(g[j] + c * k[j] * s) / r[j];
    if (xi_free <= lower[j]) {
      kx += k[j] * lower[j];
    } else if (xi_free >= upper[j]) {
      kx += k[j] * upper[j];
    } else {
      kx += k[j] * xi_free;
      slope_sum += slope[j];
    }
  }

  /// Take one pass's sums; false when the search is over.
  bool advance(double kx, double interior_slope) {
    // Each summand of kx is k_j x_j(s) (finish() clamps the same quotient,
    // and a bound it lands on differs at most in the sign of a zero, which
    // no sum started at +0.0 can see), so while s stays put kx is the
    // block's k . x: the residual needs no pass of its own.
    dot = kx;
    const double phi = kx - s;
    if (std::abs(phi) <= tol_s) return false;
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
    if (s_newton == s) return false;
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
    if (s_next == s) return false;
    s_prev = s;
    s = s_next;
    dot = std::numeric_limits<double>::quiet_NaN();
    return ++iterations < 200;
  }

  /// Write the block's solution x_j(s) and return its pass count.
  int finish(const Classes& cl) const {
    const double* k = cl.gains;
    const double* r = cl.penalty;
    for (std::size_t j = 0; j < cl.m; ++j)
      x[j] = std::clamp(-(g[j] + c * k[j] * s) / r[j], lower[j], upper[j]);
    return iterations + 1;
  }
};

/// Search P = 1 or 2 blocks in lockstep: their bracket and seed sums share
/// one pass over the coordinates, and so do their Newton passes until one
/// finishes and drops out. Writes each block's k . x_b into `dots` (NaN
/// where its last pass did not form it) and ||k||^2, summed in the bracket
/// pass, into `k_sq`; returns the blocks' pass count.
template <bool kCompact, std::size_t P>
int search_blocks(const Classes& cl, const std::size_t (&blocks)[P],
                  double tolerance, double k_max, const Vector& x0, double* x,
                  double* dots, double& k_sq) {
  const double* k = cl.gains;
  const double* r = cl.penalty;
  NewtonSearch search[P];
  const double* x0_block[P];
  for (std::size_t p = 0; p < P; ++p) {
    const std::size_t b = blocks[p];
    const std::size_t off = b * cl.m;
    const double c = cl.rank_weight[b];
    double* slope = cl.slopes + p * cl.m;
    // The interior slope of a class does not depend on s: once per search.
    for (std::size_t j = 0; j < cl.m; ++j) slope[j] = c * k[j] * k[j] / r[j];
    search[p] = NewtonSearch{c,         cl.gradient + off, cl.lower + off,
                             cl.upper + off, slope,        x + off};
    x0_block[p] = x0.data() + b * cl.n;
  }

  // s* = k^T x* is bracketed by the box images of k. The warm start need
  // not be constant on a class: seed s = k^T x0 from every coordinate.
  double bracket[2 * P + 1] = {};
  double seed[P] = {};
  ordered_sums<kCompact, 2 * P + 1>(
      cl, bracket,
      [&](std::size_t j, double* t) {
        for (std::size_t p = 0; p < P; ++p) {
          const double a = k[j] * search[p].lower[j];
          const double b2 = k[j] * search[p].upper[j];
          t[2 * p] += std::min(a, b2);
          t[2 * p + 1] += std::max(a, b2);
        }
        t[2 * P] += k[j] * k[j];
      },
      [&](std::size_t i, std::size_t j) {
        for (std::size_t p = 0; p < P; ++p) seed[p] += k[j] * x0_block[p][i];
      });
  k_sq = bracket[2 * P];
  for (std::size_t p = 0; p < P; ++p) {
    NewtonSearch& sp = search[p];
    sp.lo = bracket[2 * p];
    sp.hi = bracket[2 * p + 1];
    // phi error |phi| maps to a projected-gradient residual of at most
    // c k_max |phi|; aim well under the caller's tolerance.
    sp.tol_s = 0.25 * tolerance / std::max(1.0, sp.c * k_max);
    sp.s = std::clamp(seed[p], sp.lo, sp.hi);
    sp.s_prev = sp.s;
  }

  int passes = 0;
  std::size_t active = P;
  NewtonSearch* live[P];
  for (std::size_t p = 0; p < P; ++p) live[p] = &search[p];
  while (active == 2) {
    const NewtonSearch a = *live[0];
    const NewtonSearch b = *live[1];
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    ordered_sums<kCompact, 4>(cl, acc, [&](std::size_t j, double* t) {
      a.add_pass(k, r, j, t[0], t[1]);
      b.add_pass(k, r, j, t[2], t[3]);
    });
    const bool a_on = live[0]->advance(acc[0], acc[1]);
    const bool b_on = live[1]->advance(acc[2], acc[3]);
    if (!b_on) {
      passes += live[1]->finish(cl);
      --active;
    }
    if (!a_on) {
      passes += live[0]->finish(cl);
      live[0] = live[1];
      --active;
    }
  }
  if (active == 1) {
    NewtonSearch& sp = *live[0];
    for (;;) {
      const NewtonSearch a = sp;
      double acc[2] = {0.0, 0.0};
      ordered_sums<kCompact, 2>(cl, acc, [&](std::size_t j, double* t) {
        a.add_pass(k, r, j, t[0], t[1]);
      });
      if (!sp.advance(acc[0], acc[1])) break;
    }
    passes += sp.finish(cl);
  }
  for (std::size_t p = 0; p < P; ++p) dots[blocks[p]] = search[p].dot;
  return passes;
}

/// Exact minimizer of each block: 0.5 x^T (diag(r) + c k k^T) x + g^T x
/// over the box. For a fixed scalar s = k^T x the problem separates —
/// x_i(s) = clamp(-(g_i + c k_i s) / r_i) — and phi(s) = k^T x(s) - s is
/// continuous, piecewise linear and strictly decreasing (slope <= -1), so
/// its unique root is the KKT point. Safeguarded Newton on phi lands on it
/// in a handful of O(n) passes, versus hundreds of projected-gradient
/// iterations when c ||k||^2 >> max r (the rig's regime: power gains of
/// tens of W/GHz against unit-scale comfort penalties). Requires every
/// r_i > 0 (validate() checks it). The blocks are independent, so two
/// are searched in lockstep. Writes one value per class into `x`, each
/// block's k . x_b into `dots` and ||k||^2 into `k_sq` where the searches
/// formed them (NaN elsewhere), and returns the blocks' scalar pass count.
template <bool kCompact>
int solve_direct(const Classes& cl, double tolerance, const Vector& x0,
                 double* x, double* dots, double& k_sq) {
  double k_max = 0.0;
  for (std::size_t j = 0; j < cl.m; ++j)
    k_max = std::max(k_max, std::abs(cl.gains[j]));
  std::fill(dots, dots + cl.blocks, std::numeric_limits<double>::quiet_NaN());

  int passes = 0;
  std::size_t pending = cl.blocks;  // a block waiting for a search partner
  for (std::size_t b = 0; b < cl.blocks; ++b) {
    const double c = cl.rank_weight[b];
    const std::size_t off = b * cl.m;
    if (c * k_max == 0.0) {
      // Diagonal block: coordinates are independent.
      for (std::size_t j = 0; j < cl.m; ++j)
        x[off + j] = std::clamp(-cl.gradient[off + j] / cl.penalty[j],
                                cl.lower[off + j], cl.upper[off + j]);
      passes += 1;
    } else if (pending == cl.blocks) {
      pending = b;
    } else {
      passes += search_blocks<kCompact, 2>(cl, {pending, b}, tolerance,
                                           k_max, x0, x, dots, k_sq);
      pending = cl.blocks;
    }
  }
  if (pending != cl.blocks)
    passes += search_blocks<kCompact, 1>(cl, {pending}, tolerance, k_max, x0,
                                         x, dots, k_sq);
  return passes;
}

/// Projected-gradient residual ||x - clamp(x - (Hx + g))||_inf of a
/// class-level iterate whose block dots k . x_b are `dots`; the max over
/// classes is the max over coordinates.
double residual(const Classes& cl, const Vector& x, const double* dots) {
  const std::size_t m = cl.m;
  double res = 0.0;
  for (std::size_t b = 0; b < cl.blocks; ++b) {
    const std::size_t off = b * m;
    const double c_kx = cl.rank_weight[b] * dots[b];
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

/// Analytic upper bound on lambda_max(H): max(R) + max_b(c_b) ||k||^2,
/// given ||k||^2 summed over every coordinate.
double lambda_max_bound(const Classes& cl, double k_sq) {
  double r_max = 0.0;
  for (std::size_t j = 0; j < cl.m; ++j) r_max = std::max(r_max, cl.penalty[j]);
  double c_max = 0.0;
  for (std::size_t b = 0; b < cl.blocks; ++b)
    c_max = std::max(c_max, cl.rank_weight[b]);
  return r_max + c_max * k_sq;
}

/// Copy the class-level solution to every coordinate.
template <bool kCompact>
void write_solution(const Classes& cl, const Vector& x, Vector& out) {
  if constexpr (kCompact) {
    out.resize(cl.n * cl.blocks);
    for (std::size_t b = 0; b < cl.blocks; ++b)
      for (std::size_t i = 0; i < cl.n; ++i)
        out[b * cl.n + i] = x[b * cl.m + cl.of[i]];
  } else {
    out = x;
  }
}

/// The whole solve over the classes of `cl` (see solve_structured_qp).
template <bool kCompact>
SPRINTCON_HOT void solve_classes(const Classes& cl, const Vector& x0,
                                 const QpOptions& options,
                                 StructuredQpScratch& scratch,
                                 QpResult& result) {
  const std::size_t m = cl.m;
  const std::size_t blocks = cl.blocks;
  const std::size_t dim = m * blocks;
  double* dots = scratch.block_dots.data();

  Vector& x = scratch.x;
  x.resize(dim);
  double k_sq = std::numeric_limits<double>::quiet_NaN();
  const int direct_passes =
      solve_direct<kCompact>(cl, options.tolerance, x0, x.data(), dots, k_sq);
  result.direct_passes = direct_passes;
  // Where no search pass formed a block's dot (a diagonal block, or a
  // search stopped by its pass cap), sum the dots and ||k||^2 here.
  if (std::any_of(dots, dots + blocks,
                  [](double d) { return std::isnan(d); }))
    k_sq = block_dots<kCompact, true>(cl, x.data(), dots);
  const double direct_res = residual(cl, x, dots);
  if (direct_res < options.tolerance) {
    result.iterations = direct_passes;
    result.restarts = 0;
    result.converged = true;
    result.residual = direct_res;
    write_solution<kCompact>(cl, x, result.x);
    return;
  }

  // The analytic bound is a true upper bound on lambda_max (triangle
  // inequality per block), so no safety padding is needed beyond a floor
  // against an all-zero Hessian.
  const double lmax = lambda_max_bound(cl, k_sq);
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

  double res = direct_res;
  for (int it = 0; it < options.max_iterations; ++it) {
    // g = H y, one block at a time. The first y is x, whose dots the
    // residual has just used.
    if (it > 0) block_dots<kCompact>(cl, y.data(), dots);
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t off = b * m;
      const double c_ky = cl.rank_weight[b] * dots[b];
      for (std::size_t j = 0; j < m; ++j)
        g[off + j] = cl.penalty[j] * y[off + j] + cl.gains[j] * c_ky;
    }
    for (std::size_t d = 0; d < dim; ++d) {
      x_next[d] = std::clamp(y[d] - step * (g[d] + cl.gradient[d]),
                             cl.lower[d], cl.upper[d]);
    }

    // O'Donoghue-Candes gradient restart (see solve_box_qp): drop the
    // momentum whenever it opposes the descent direction, restoring
    // linear convergence on strongly convex problems. The test is one
    // sum across every block; each block's pass also forms k . x_next_b
    // for the residual of the next iterate.
    double restart_test = 0.0;
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t off = b * m;
      double acc[2] = {restart_test, 0.0};
      ordered_sums<kCompact, 2>(cl, acc, [&](std::size_t j, double* t) {
        const std::size_t d = off + j;
        t[0] += (g[d] + cl.gradient[d]) * (x_next[d] - x[d]);
        t[1] += cl.gains[j] * x_next[d];
      });
      restart_test = acc[0];
      dots[b] = acc[1];
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
    res = residual(cl, x, dots);
    if (res < options.tolerance) break;
  }

  result.residual = res;
  result.converged = res < options.tolerance;
  write_solution<kCompact>(cl, x, result.x);
}

}  // namespace

SPRINTCON_HOT void solve_structured_qp(const StructuredClassQp& qp,
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
  // every step of that algorithm, so it runs on one value per class. The
  // template flag is chosen once per solve: when every coordinate is its
  // own class the passes are the plain per-coordinate loops.
  const std::size_t n = qp.block_size();
  const std::size_t m = qp.num_classes();
  const std::size_t blocks = qp.num_blocks();
  for (Vector* v : {&scratch.x, &scratch.y, &scratch.x_next, &scratch.grad})
    v->reserve(n * blocks);
  scratch.terms.reserve(7 * n);
  scratch.terms.resize(7 * m);
  scratch.block_dots.resize(blocks);
  const Classes cl{n,
                   m,
                   blocks,
                   qp.gains.data(),
                   qp.penalty.data(),
                   qp.rank_weight.data(),
                   qp.gradient.data(),
                   qp.lower.data(),
                   qp.upper.data(),
                   qp.class_of.data(),
                   scratch.terms.data(),
                   scratch.terms.data() + 5 * m};
  if (m == n) {
    solve_classes<false>(cl, x0, options, scratch, result);
  } else {
    solve_classes<true>(cl, x0, options, scratch, result);
  }
}

}  // namespace sprintcon::control
