// Tests for the structured MPC QP operator: every O(n Lc) routine must
// agree with the dense reference implementation, the class-compact solver
// must reproduce the per-coordinate oracle bit for bit, and the MPC
// controller must reproduce the frequencies of a dense `solve_box_qp`
// assembly of the same problem to solver accuracy across random problems.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "control/linalg.hpp"
#include "control/mpc.hpp"
#include "control/qp.hpp"
#include "control/structured_block_qp.hpp"
#include "control/structured_qp_reference.hpp"

namespace sprintcon::control {
namespace {

/// Materialize the dense equivalent of a structured problem.
BoxQp densify(const StructuredBlockQp& sqp) {
  const std::size_t n = sqp.block_size();
  const std::size_t blocks = sqp.num_blocks();
  const std::size_t dim = sqp.dim();
  BoxQp qp;
  qp.hessian = Matrix(dim, dim, 0.0);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t off = b * n;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j)
        qp.hessian(off + i, off + j) +=
            sqp.rank_weight[b] * sqp.gains[i] * sqp.gains[j];
      qp.hessian(off + i, off + i) += sqp.penalty[i];
    }
  }
  qp.gradient = sqp.gradient;
  qp.lower = sqp.lower;
  qp.upper = sqp.upper;
  return qp;
}

StructuredBlockQp random_problem(Rng& rng, std::size_t n, std::size_t blocks) {
  StructuredBlockQp sqp;
  sqp.gains.resize(n);
  sqp.penalty.resize(n);
  sqp.rank_weight.resize(blocks);
  const std::size_t dim = n * blocks;
  sqp.gradient.resize(dim);
  sqp.lower.resize(dim);
  sqp.upper.resize(dim);
  for (std::size_t i = 0; i < n; ++i) {
    sqp.gains[i] = rng.uniform(0.0, 25.0);
    sqp.penalty[i] = rng.uniform(0.1, 8.0);
  }
  for (std::size_t b = 0; b < blocks; ++b)
    sqp.rank_weight[b] = rng.uniform(0.0, 4.0);
  for (std::size_t i = 0; i < dim; ++i) {
    sqp.gradient[i] = rng.uniform(-50.0, 50.0);
    sqp.lower[i] = rng.uniform(0.1, 0.4);
    sqp.upper[i] = rng.uniform(0.6, 1.0);
  }
  return sqp;
}

TEST(StructuredQp, MatvecMatchesDense) {
  Rng rng(31);
  const StructuredBlockQp sqp = random_problem(rng, 5, 3);
  const BoxQp dense = densify(sqp);
  Vector x(sqp.dim());
  for (auto& v : x) v = rng.uniform(-2.0, 2.0);
  Vector hx;
  structured_matvec(sqp, x, hx);
  const Vector dense_hx = dense.hessian * x;
  ASSERT_EQ(hx.size(), dense_hx.size());
  for (std::size_t i = 0; i < hx.size(); ++i)
    EXPECT_NEAR(hx[i], dense_hx[i], 1e-9);
}

TEST(StructuredQp, ResidualMatchesDense) {
  Rng rng(32);
  const StructuredBlockQp sqp = random_problem(rng, 4, 2);
  const BoxQp dense = densify(sqp);
  Vector x(sqp.dim());
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  EXPECT_NEAR(structured_residual(sqp, x), box_qp_residual(dense, x), 1e-9);
}

TEST(StructuredQp, LambdaMaxBoundDominatesTrueEigenvalue) {
  Rng rng(33);
  for (int trial = 0; trial < 10; ++trial) {
    const StructuredBlockQp sqp = random_problem(rng, 6, 2);
    const BoxQp dense = densify(sqp);
    const double bound = structured_lambda_max_bound(sqp);
    const double estimate = power_iteration_max_eig(dense.hessian);
    EXPECT_GE(bound * (1.0 + 1e-9), estimate);
  }
}

TEST(StructuredQp, LambdaMaxBoundTightForUniformPenalty) {
  // With uniform R the gains vector is an eigenvector of each block, so
  // the bound max(R) + max(c_b) ||k||^2 is the exact top eigenvalue.
  StructuredBlockQp sqp;
  sqp.gains = {3.0, 4.0};
  sqp.penalty = {2.0, 2.0};
  sqp.rank_weight = {1.5};
  sqp.gradient.assign(2, 0.0);
  sqp.lower.assign(2, 0.0);
  sqp.upper.assign(2, 1.0);
  const double bound = structured_lambda_max_bound(sqp);
  const double exact =
      power_iteration_max_eig(densify(sqp).hessian, 200);
  EXPECT_NEAR(bound, exact, 1e-6 * bound);
  EXPECT_DOUBLE_EQ(bound, 2.0 + 1.5 * 25.0);
}

TEST(StructuredQp, SolverMatchesDenseSolver) {
  Rng rng(34);
  QpOptions opts;
  opts.max_iterations = 5000;
  opts.tolerance = 1e-11;
  StructuredBlockScratch scratch;
  QpResult structured;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 6);
    const std::size_t blocks = 1 + static_cast<std::size_t>(trial % 3);
    const StructuredBlockQp sqp = random_problem(rng, n, blocks);
    const BoxQp dense = densify(sqp);
    Vector x0(sqp.dim(), 0.5);
    solve_structured_qp(sqp, x0, opts, scratch, structured);
    const QpResult ref = solve_box_qp(dense, x0, opts);
    EXPECT_TRUE(structured.converged);
    EXPECT_TRUE(ref.converged);
    for (std::size_t i = 0; i < sqp.dim(); ++i)
      EXPECT_NEAR(structured.x[i], ref.x[i], 1e-9)
          << "trial " << trial << " component " << i;
  }
}

TEST(StructuredQp, InvalidProblemThrows) {
  Rng rng(35);
  StructuredBlockQp sqp = random_problem(rng, 3, 2);
  StructuredBlockScratch scratch;
  QpResult result;
  QpOptions opts;
  sqp.penalty[0] = -1.0;
  EXPECT_THROW(solve_structured_qp(sqp, Vector(sqp.dim(), 0.5), opts, scratch,
                                   result),
               InvalidArgumentError);
  // A zero penalty makes the block rank-deficient, and the per-block
  // direct solve divides by every R_i.
  sqp.penalty[0] = 0.0;
  EXPECT_THROW(solve_structured_qp(sqp, Vector(sqp.dim(), 0.5), opts, scratch,
                                   result),
               InvalidArgumentError);
  sqp = random_problem(rng, 3, 2);
  sqp.lower[2] = 2.0;  // crosses upper
  EXPECT_THROW(solve_structured_qp(sqp, Vector(sqp.dim(), 0.5), opts, scratch,
                                   result),
               InvalidArgumentError);
  sqp = random_problem(rng, 3, 2);
  EXPECT_THROW(solve_structured_qp(sqp, Vector(2, 0.5), opts, scratch, result),
               InvalidArgumentError);
}

// --- class-compact solve vs the per-coordinate oracle -----------------------

void expect_same_bits(const QpResult& got, const QpResult& want,
                      const std::string& where) {
  ASSERT_EQ(got.x.size(), want.x.size()) << where;
  for (std::size_t i = 0; i < got.x.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.x[i]),
              std::bit_cast<std::uint64_t>(want.x[i]))
        << where << " x[" << i << "] " << got.x[i] << " vs " << want.x[i];
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(got.direct_passes, want.direct_passes) << where;
  EXPECT_EQ(got.restarts, want.restarts) << where;
  EXPECT_EQ(got.converged, want.converged) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.residual),
            std::bit_cast<std::uint64_t>(want.residual))
      << where << " residual " << got.residual << " vs " << want.residual;
}

/// A problem shaped like the MPC's (power gains of tens of W per unit
/// frequency, penalties 0.02 w k^2, gradients -k c_b T - R upper around a
/// power target T) whose n coordinates copy `classes` prototypes:
/// cyclically, as a rack's job profiles cycle over its cores, or in a
/// random order. At this scale c ||k||^2 >> max R, so many direct answers
/// stop at the FP floor and need the FISTA polish.
StructuredBlockQp classed_problem(Rng& rng, std::size_t n, std::size_t blocks,
                                  std::size_t classes, bool cyclic) {
  StructuredBlockQp sqp;
  for (std::size_t b = 0; b < blocks; ++b)
    sqp.rank_weight.push_back(b + 1 == blocks ? rng.uniform(1.0, 7.0) : 1.0);
  const double target = rng.uniform(0.3, 0.9) * 20.0 * static_cast<double>(n);
  Vector gains(classes), penalty(classes);
  Vector gradient(classes * blocks), lower(classes * blocks),
      upper(classes * blocks);
  for (std::size_t p = 0; p < classes; ++p) {
    gains[p] = rng.uniform(5.0, 40.0);
    penalty[p] = 0.02 * rng.uniform(1e-3, 2.0) * gains[p] * gains[p];
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t d = b * classes + p;
      lower[d] = rng.uniform(0.1, 0.4);
      upper[d] = rng.uniform(0.6, 1.0);
      gradient[d] = -gains[p] * sqp.rank_weight[b] * target *
                        rng.uniform(0.9, 1.1) -
                    penalty[p] * upper[d];
    }
  }
  sqp.gains.resize(n);
  sqp.penalty.resize(n);
  sqp.gradient.resize(n * blocks);
  sqp.lower.resize(n * blocks);
  sqp.upper.resize(n * blocks);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = cyclic || i < classes ? i % classes
                                                : rng.uniform_index(classes);
    sqp.gains[i] = gains[p];
    sqp.penalty[i] = penalty[p];
    for (std::size_t b = 0; b < blocks; ++b) {
      sqp.gradient[b * n + i] = gradient[b * classes + p];
      sqp.lower[b * n + i] = lower[b * classes + p];
      sqp.upper[b * n + i] = upper[b * classes + p];
    }
  }
  return sqp;
}

/// A warm start that differs between members of a class.
Vector random_start(Rng& rng, const StructuredBlockQp& sqp) {
  Vector x0(sqp.dim());
  for (std::size_t d = 0; d < x0.size(); ++d)
    x0[d] = rng.uniform(sqp.lower[d], sqp.upper[d]);
  return x0;
}

TEST(StructuredQp, ClassCompactSolveIsBitIdenticalToPerCoordinate) {
  Rng rng(36);
  const QpOptions opts;
  StructuredBlockScratch scratch;
  QpResult got;
  int polished = 0;
  int trials = 0;
  for (const std::size_t n : {std::size_t{8}, std::size_t{64}}) {
    for (const std::size_t classes : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}, n}) {
      for (const std::size_t blocks : {1u, 2u, 3u}) {
        for (int rep = 0; rep < 12; ++rep) {
          const StructuredBlockQp sqp =
              classed_problem(rng, n, blocks, classes, rep % 2 == 0);
          const Vector x0 = random_start(rng, sqp);
          // One scratch for the whole corpus: its buffers are reused
          // across every change of shape and partition.
          solve_structured_qp(sqp, x0, opts, scratch, got);
          const QpResult want = solve_structured_qp_reference(sqp, x0, opts);
          expect_same_bits(got, want,
                           "n=" + std::to_string(n) +
                               " classes=" + std::to_string(classes) +
                               " blocks=" + std::to_string(blocks) +
                               " rep=" + std::to_string(rep));
          EXPECT_EQ(scratch.classes.num_classes(), classes);
          if (classes < n) {
            if (want.iterations != want.direct_passes) ++polished;
            ++trials;
          }
        }
      }
    }
  }
  // The class-compact solves must reach the FISTA polish, or the corpus
  // checks only half the solver.
  EXPECT_GT(polished, trials / 10) << polished << " of " << trials;
}

TEST(StructuredQp, NearDuplicatesAreSeparateClasses) {
  // Coordinates one ulp apart, or +0.0 against -0.0, compare equal or
  // nearly so but are different inputs: they must not share a class.
  Rng rng(37);
  const QpOptions opts;
  StructuredBlockScratch scratch;
  QpResult got;
  for (int trial = 0; trial < 40; ++trial) {
    StructuredBlockQp sqp = classed_problem(rng, 16, 2, 2, true);
    const std::size_t i = 2 + rng.uniform_index(14);
    const std::size_t b = rng.uniform_index(2);
    switch (trial % 6) {
      case 0:
        sqp.gains[i] = std::nextafter(sqp.gains[i], 100.0);
        break;
      case 1:
        sqp.penalty[i] = std::nextafter(sqp.penalty[i], 0.0);
        break;
      case 2:
        sqp.gradient[b * 16 + i] =
            std::nextafter(sqp.gradient[b * 16 + i], 1e9);
        break;
      case 3:
        sqp.upper[b * 16 + i] = std::nextafter(sqp.upper[b * 16 + i], 0.0);
        break;
      case 4:
        // Signed zeros in the gradient of a whole class, one member flipped.
        for (std::size_t j = i % 2; j < 16; j += 2)
          sqp.gradient[b * 16 + j] = 0.0;
        sqp.gradient[b * 16 + i] = -0.0;
        break;
      default:
        // A zero gain: k * bound is +0.0 or -0.0 by the sign of k.
        for (std::size_t j = i % 2; j < 16; j += 2) sqp.gains[j] = -0.0;
        sqp.gains[i] = 0.0;
        break;
    }
    const Vector x0 = random_start(rng, sqp);
    solve_structured_qp(sqp, x0, opts, scratch, got);
    expect_same_bits(got, solve_structured_qp_reference(sqp, x0, opts),
                     "trial " + std::to_string(trial));
    EXPECT_EQ(scratch.classes.num_classes(), 3u)
        << "trial " << trial;
  }
}

TEST(StructuredQp, SplitAndRejoinAcrossConsecutiveSolves) {
  // One scratch over a warm-started sequence: a coordinate leaves its
  // class (as when the thermal guard lowers one core's frequency cap) and
  // later rejoins it. Every solve must match the oracle bit for bit. (The
  // controller keeps its partition across steps; StructuredMpc tests it.)
  Rng rng(38);
  const QpOptions opts;
  const std::size_t n = 64;
  StructuredBlockQp base = classed_problem(rng, n, 2, 8, true);
  StructuredBlockScratch scratch;
  QpResult got;
  Vector x0 = random_start(rng, base);
  const std::size_t core = 13;
  for (int step = 0; step < 8; ++step) {
    StructuredBlockQp sqp = base;
    const bool split = step >= 2 && step < 5;
    if (split) {
      for (std::size_t b = 0; b < 2; ++b)
        sqp.upper[b * n + core] = 0.5 * (sqp.lower[b * n + core] +
                                         sqp.upper[b * n + core]);
    }
    solve_structured_qp(sqp, x0, opts, scratch, got);
    const QpResult want = solve_structured_qp_reference(sqp, x0, opts);
    expect_same_bits(got, want, "step " + std::to_string(step));
    // The core leaves its class while split and merges back into it after.
    EXPECT_EQ(scratch.classes.num_classes(), split ? 9u : 8u)
        << "step " << step;
    // Warm-start the next solve from this answer, as the controller does.
    x0 = want.x;
    for (double& g : base.gradient) g -= 3.0;
  }
}

/// Block b of `sqp` as a problem of its own, and its slice of `x0`.
StructuredBlockQp single_block(const StructuredBlockQp& sqp, std::size_t b) {
  const std::size_t n = sqp.block_size();
  const auto first = static_cast<std::ptrdiff_t>(b * n);
  const auto last = static_cast<std::ptrdiff_t>((b + 1) * n);
  StructuredBlockQp one;
  one.gains = sqp.gains;
  one.penalty = sqp.penalty;
  one.rank_weight = {sqp.rank_weight[b]};
  one.gradient.assign(sqp.gradient.begin() + first,
                      sqp.gradient.begin() + last);
  one.lower.assign(sqp.lower.begin() + first, sqp.lower.begin() + last);
  one.upper.assign(sqp.upper.begin() + first, sqp.upper.begin() + last);
  return one;
}

TEST(StructuredQp, LockstepBlocksAreBitIdenticalToPerCoordinate) {
  // The solver searches the control-horizon blocks two at a time, and an
  // odd count leaves one block to search alone. A block that finishes
  // first drops out while its partner keeps going, so the corpus mixes
  // blocks that need different pass counts: some blocks' gradients are
  // scaled until every coordinate clamps high, which the search settles
  // in a pass or two.
  Rng rng(39);
  const QpOptions opts;
  StructuredBlockScratch scratch;
  QpResult got;
  int uneven = 0;
  int trials = 0;
  for (const std::size_t blocks : {1u, 2u, 3u, 5u}) {
    for (const std::size_t n : {std::size_t{8}, std::size_t{64}}) {
      for (const std::size_t classes : {std::size_t{8}, n}) {
        for (int rep = 0; rep < 10; ++rep) {
          StructuredBlockQp sqp =
              classed_problem(rng, n, blocks, classes, rep % 2 == 0);
          for (std::size_t b = 0; b < blocks; ++b) {
            if (rng.uniform_index(3) != 0) continue;
            for (std::size_t i = 0; i < n; ++i) sqp.gradient[b * n + i] *= 50.0;
          }
          const Vector x0 = random_start(rng, sqp);
          const std::string where =
              "blocks=" + std::to_string(blocks) + " n=" + std::to_string(n) +
              " classes=" + std::to_string(classes) +
              " rep=" + std::to_string(rep);
          solve_structured_qp(sqp, x0, opts, scratch, got);
          const QpResult want = solve_structured_qp_reference(sqp, x0, opts);
          expect_same_bits(got, want, where);
          EXPECT_EQ(scratch.classes.num_classes(), classes) << where;
          // Each block's own pass count, from the oracle on that block.
          int fewest = 1 << 30;
          int most = 0;
          for (std::size_t b = 0; b < blocks; ++b) {
            const StructuredBlockQp one = single_block(sqp, b);
            const Vector x0_b(x0.begin() + static_cast<std::ptrdiff_t>(b * n),
                              x0.begin() +
                                  static_cast<std::ptrdiff_t>((b + 1) * n));
            const int passes =
                solve_structured_qp_reference(one, x0_b, opts).direct_passes;
            fewest = std::min(fewest, passes);
            most = std::max(most, passes);
          }
          if (blocks > 1) {
            ++trials;
            if (fewest != most) ++uneven;
          }
        }
      }
    }
  }
  // Most multi-block solves must pair blocks that finish apart, or the
  // drop-out path goes untested.
  EXPECT_GT(uneven, trials / 2) << uneven << " of " << trials;
}

TEST(StructuredQp, DiagonalBlocksBesideSearchedOnesAreBitIdentical) {
  // A block with rank weight 0 is solved one coordinate at a time, with
  // no search pass to form its k . x_b; with every block diagonal no
  // search forms ||k||^2 either, which the FISTA polish needs. The solver
  // then sums them itself, and the result must still match the oracle bit
  // for bit.
  Rng rng(40);
  const QpOptions opts;
  StructuredBlockScratch scratch;
  QpResult got;
  int diagonal = 0;
  int polished_diagonal = 0;
  for (const std::size_t blocks : {1u, 2u, 3u, 5u}) {
    for (const std::size_t n : {std::size_t{8}, std::size_t{64}}) {
      for (int rep = 0; rep < 8; ++rep) {
        StructuredBlockQp sqp =
            classed_problem(rng, n, blocks, 8, rep % 2 == 0);
        switch (rep % 4) {
          case 3:  // every gain 0: no block is searched
            std::fill(sqp.gains.begin(), sqp.gains.end(), 0.0);
            break;
          case 1:
            // Every block diagonal, with gradients so large that rounding
            // leaves the direct answer's residual above the tolerance.
            std::fill(sqp.rank_weight.begin(), sqp.rank_weight.end(), 0.0);
            for (std::size_t d = 0; d < sqp.dim(); ++d) {
              sqp.gradient[d] *= 1e6;
              sqp.lower[d] = -1e15;
              sqp.upper[d] = 1e15;
            }
            break;
          default:
            for (double& c : sqp.rank_weight)
              if (rng.uniform_index(2) == 0) c = 0.0;
        }
        diagonal += static_cast<int>(
            std::count(sqp.rank_weight.begin(), sqp.rank_weight.end(), 0.0));
        const Vector x0 = random_start(rng, sqp);
        solve_structured_qp(sqp, x0, opts, scratch, got);
        const QpResult want = solve_structured_qp_reference(sqp, x0, opts);
        expect_same_bits(got, want,
                         "blocks=" + std::to_string(blocks) +
                             " n=" + std::to_string(n) +
                             " rep=" + std::to_string(rep));
        if (rep % 4 == 1 && want.iterations != want.direct_passes)
          ++polished_diagonal;
      }
    }
  }
  EXPECT_GT(diagonal, 10);
  EXPECT_GT(polished_diagonal, 4);
}

// --- structured vs dense MPC ------------------------------------------------

MpcProblem random_mpc_problem(Rng& rng, std::size_t n) {
  MpcProblem p;
  p.gains_w_per_f.resize(n);
  p.freq_current.resize(n);
  p.freq_min.resize(n);
  p.freq_max.resize(n);
  p.penalty_weights.resize(n);
  double nominal = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    p.gains_w_per_f[i] = rng.uniform(10.0, 30.0);
    p.freq_min[i] = rng.uniform(0.1, 0.3);
    p.freq_max[i] = rng.uniform(0.7, 1.0);
    p.freq_current[i] = rng.uniform(p.freq_min[i], p.freq_max[i]);
    p.penalty_weights[i] = rng.uniform(0.5, 8.0);
    nominal += p.gains_w_per_f[i] * p.freq_current[i];
  }
  p.power_feedback_w = nominal;
  p.power_target_w = nominal * rng.uniform(0.6, 1.4);
  return p;
}

/// Dense reference for MpcPowerController: materializes the (n Lc)^2 MPC
/// Hessian and solves it with `solve_box_qp`, warm-starting from its own
/// previous solution exactly as the controller does.
class DenseMpcReference {
 public:
  explicit DenseMpcReference(const MpcConfig& cfg) : cfg_(cfg) {}

  MpcOutput step(const MpcProblem& p) {
    const std::size_t n = p.gains_w_per_f.size();
    const std::size_t lc = cfg_.control_horizon;
    const std::size_t lp = cfg_.prediction_horizon;
    const std::size_t dim = n * lc;
    // Reference trajectory (Eq. 7) relative to the prediction's constant
    // part p_fb - K . F; the last control block covers the rest of Lp.
    const double pred_base =
        p.power_feedback_w - dot(p.gains_w_per_f, p.freq_current);
    const double decay =
        std::exp(-cfg_.control_period_s / cfg_.reference_time_constant_s);
    Vector ref_minus_base(lp);
    double e = p.power_target_w - p.power_feedback_w;
    for (std::size_t s = 0; s < lp; ++s) {
      e *= decay;
      ref_minus_base[s] = (p.power_target_w - e) - pred_base;
    }

    BoxQp qp;
    qp.hessian = Matrix(dim, dim, 0.0);
    qp.gradient.assign(dim, 0.0);
    qp.lower.assign(dim, 0.0);
    qp.upper.assign(dim, 0.0);
    for (std::size_t b = 0; b < lc; ++b) {
      const std::size_t last = (b + 1 == lc) ? lp - 1 : b;
      double steps = 0.0;
      double ref_sum = 0.0;
      for (std::size_t s = b; s <= last; ++s) {
        steps += 1.0;
        ref_sum += ref_minus_base[s];
      }
      const std::size_t off = b * n;
      for (std::size_t i = 0; i < n; ++i) {
        const double ki = p.gains_w_per_f[i];
        for (std::size_t j = 0; j < n; ++j)
          qp.hessian(off + i, off + j) += steps * ki * p.gains_w_per_f[j];
        qp.hessian(off + i, off + i) += p.penalty_weights[i];
        qp.gradient[off + i] =
            -ki * ref_sum - p.penalty_weights[i] * p.freq_max[i];
        qp.lower[off + i] = p.freq_min[i];
        qp.upper[off + i] = p.freq_max[i];
      }
    }

    Vector x0 = warm_start_;
    if (x0.size() != dim) {
      x0.clear();
      for (std::size_t b = 0; b < lc; ++b)
        x0.insert(x0.end(), p.freq_current.begin(), p.freq_current.end());
    }
    MpcOutput out;
    out.qp = solve_box_qp(qp, x0, QpOptions{5000, 1e-11});
    warm_start_ = out.qp.x;
    out.freq_next.assign(out.qp.x.begin(),
                         out.qp.x.begin() + static_cast<std::ptrdiff_t>(n));
    out.predicted_power_w = pred_base + dot(p.gains_w_per_f, out.freq_next);
    return out;
  }

 private:
  MpcConfig cfg_;
  Vector warm_start_;
};

TEST(StructuredMpc, MatchesDenseControllerAcrossRandomProblems) {
  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    MpcConfig cfg;
    cfg.prediction_horizon = 4 + static_cast<std::size_t>(trial % 5);
    cfg.control_horizon = 1 + static_cast<std::size_t>(trial % 3);
    MpcPowerController structured(cfg);
    DenseMpcReference dense(cfg);
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 7);
    // Warm-started sequence: the controller and the dense reference must
    // track each other step by step, not just on a cold solve.
    MpcProblem p = random_mpc_problem(rng, n);
    for (int step = 0; step < 4; ++step) {
      MpcOutput a;
      structured.step(p, a);
      const MpcOutput b = dense.step(p);
      ASSERT_EQ(a.freq_next.size(), b.freq_next.size());
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(a.freq_next[i], b.freq_next[i], 1e-9)
            << "trial " << trial << " step " << step << " core " << i;
      EXPECT_NEAR(a.predicted_power_w, b.predicted_power_w, 1e-6);
      p.freq_current = a.freq_next;
      p.power_feedback_w =
          dot(p.gains_w_per_f, p.freq_current) * rng.uniform(0.95, 1.05);
    }
  }
}

TEST(StructuredMpc, InPlaceStepReusesOutputBuffers) {
  MpcConfig cfg;
  MpcPowerController mpc(cfg);
  Rng rng(79);
  const MpcProblem p = random_mpc_problem(rng, 4);
  MpcOutput out;
  mpc.step(p, out);
  const double* freq_data = out.freq_next.data();
  const double* x_data = out.qp.x.data();
  for (int step = 0; step < 5; ++step) mpc.step(p, out);
  // Same problem shape => the output vectors must not have reallocated.
  EXPECT_EQ(out.freq_next.data(), freq_data);
  EXPECT_EQ(out.qp.x.data(), x_data);
}

// --- per-class assembly vs the per-coordinate controller ----------------------

/// MpcPowerController as it reads one core at a time: assembles the
/// per-coordinate QP of every core, with the same expressions, and solves
/// it with the per-coordinate oracle. The class-level controller must
/// reproduce every output bit.
class PerCoordinateMpc {
 public:
  explicit PerCoordinateMpc(const MpcConfig& cfg) : cfg_(cfg) {}

  void reset() { warm_start_.clear(); }

  MpcOutput step(const MpcProblem& p) {
    const std::size_t n = p.gains_w_per_f.size();
    const std::size_t lc = cfg_.control_horizon;
    const std::size_t lp = cfg_.prediction_horizon;
    const double decay =
        std::exp(-cfg_.control_period_s / cfg_.reference_time_constant_s);
    Vector reference(lp);
    double e = p.power_target_w - p.power_feedback_w;
    for (std::size_t s = 0; s < lp; ++s) {
      e *= decay;
      reference[s] = p.power_target_w - e;
    }
    const double pred_base =
        p.power_feedback_w - std::inner_product(p.gains_w_per_f.begin(),
                                                p.gains_w_per_f.end(),
                                                p.freq_current.begin(), 0.0);
    StructuredBlockQp qp;
    qp.gains = p.gains_w_per_f;
    qp.penalty = p.penalty_weights;
    qp.rank_weight.resize(lc);
    qp.gradient.resize(n * lc);
    qp.lower.resize(n * lc);
    qp.upper.resize(n * lc);
    for (std::size_t b = 0; b < lc; ++b) {
      double steps = 0.0;
      double ref_sum = 0.0;
      for (std::size_t s = b; s <= (b + 1 == lc ? lp - 1 : b); ++s) {
        steps += 1.0;
        ref_sum += reference[s] - pred_base;
      }
      qp.rank_weight[b] = steps;
      for (std::size_t i = 0; i < n; ++i) {
        qp.gradient[b * n + i] = -p.gains_w_per_f[i] * ref_sum -
                                 p.penalty_weights[i] * p.freq_max[i];
        qp.lower[b * n + i] = p.freq_min[i];
        qp.upper[b * n + i] = p.freq_max[i];
      }
    }
    if (warm_start_.size() != n * lc) {
      warm_start_.clear();
      for (std::size_t b = 0; b < lc; ++b)
        warm_start_.insert(warm_start_.end(), p.freq_current.begin(),
                           p.freq_current.end());
    }
    MpcOutput out;
    out.qp = solve_structured_qp_reference(qp, warm_start_, QpOptions{});
    warm_start_ = out.qp.x;
    out.freq_next.assign(out.qp.x.begin(),
                         out.qp.x.begin() + static_cast<std::ptrdiff_t>(n));
    out.predicted_power_w =
        pred_base + std::inner_product(p.gains_w_per_f.begin(),
                                       p.gains_w_per_f.end(),
                                       out.freq_next.begin(), 0.0);
    return out;
  }

 private:
  MpcConfig cfg_;
  Vector warm_start_;
};

/// A rack's MPC problem: core i runs job profile i % profiles, and cores
/// on one profile share gain, penalty weight and frequency bounds, as the
/// server controller builds them (R = max(w, 1e-3) * 0.02 * k^2).
MpcProblem profiled_problem(Rng& rng, std::size_t n, std::size_t profiles,
                            double gain) {
  MpcProblem p;
  Vector weight(profiles), fmin(profiles), fmax(profiles);
  for (std::size_t q = 0; q < profiles; ++q) {
    weight[q] = rng.uniform(0.0, 3.0);
    fmin[q] = rng.uniform(0.1, 0.3);
    fmax[q] = rng.uniform(0.7, 1.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t q = i % profiles;
    p.gains_w_per_f.push_back(gain);
    p.penalty_weights.push_back(std::max(weight[q], 1e-3) * 0.02 * gain *
                                gain);
    p.freq_min.push_back(fmin[q]);
    p.freq_max.push_back(fmax[q]);
    p.freq_current.push_back(rng.uniform(fmin[q], fmax[q]));
  }
  p.power_feedback_w =
      std::inner_product(p.gains_w_per_f.begin(), p.gains_w_per_f.end(),
                         p.freq_current.begin(), 0.0);
  p.power_target_w = p.power_feedback_w * rng.uniform(0.7, 1.3);
  return p;
}

void expect_same_output(const MpcOutput& got, const MpcOutput& want,
                        const std::string& where) {
  ASSERT_EQ(got.freq_next.size(), want.freq_next.size()) << where;
  for (std::size_t i = 0; i < got.freq_next.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.freq_next[i]),
              std::bit_cast<std::uint64_t>(want.freq_next[i]))
        << where << " freq_next[" << i << "]";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.predicted_power_w),
            std::bit_cast<std::uint64_t>(want.predicted_power_w))
      << where << " predicted power";
  expect_same_bits(got.qp, want.qp, where);
}

TEST(StructuredMpc, PerClassAssemblyMatchesPerCoordinateController) {
  // A seeded closed-loop sequence on a 64-core rack in 8 profiles. One
  // core's ceiling drops below its frequency (the thermal guard) and
  // recovers; another core's job finishes, which pins its ceiling to its
  // floor, and later a new one starts; a reset warm-starts every core from
  // its own frequency. Each split and rejoin changes the partition, and
  // every step must equal the per-coordinate controller bit for bit.
  int polished = 0;
  for (const std::size_t lc : {1u, 2u, 3u}) {
    Rng rng(80 + lc);
    MpcConfig cfg;
    cfg.control_horizon = lc;
    MpcPowerController mpc(cfg);
    PerCoordinateMpc ref(cfg);
    MpcProblem p = profiled_problem(rng, 64, 8, 20.0);
    const MpcProblem base = p;
    MpcOutput got;
    for (int step = 0; step < 14; ++step) {
      const std::string where =
          "lc=" + std::to_string(lc) + " step=" + std::to_string(step);
      p.freq_max = base.freq_max;
      std::size_t expected_classes = 8;
      if (step >= 2 && step < 5) {  // thermal guard on core 13
        p.freq_max[13] = std::max(
            p.freq_min[13], std::min(p.freq_max[13], p.freq_current[13] - 0.1));
        ++expected_classes;
      }
      if (step >= 6 && step < 10) {  // core 22's job has finished
        p.freq_max[22] = p.freq_min[22];
        ++expected_classes;
      }
      if (step == 8) {
        mpc.reset();
        ref.reset();
        for (std::size_t i = 0; i < 64; ++i)
          p.freq_current[i] = rng.uniform(p.freq_min[i], p.freq_max[i]);
      }
      mpc.step(p, got);
      const MpcOutput want = ref.step(p);
      expect_same_output(got, want, where);
      EXPECT_EQ(mpc.num_classes(), expected_classes) << where;
      if (want.qp.iterations != want.qp.direct_passes) ++polished;
      // Close the loop: the plant follows the command, with meter noise.
      p.freq_current = want.freq_next;
      p.power_feedback_w =
          std::inner_product(p.gains_w_per_f.begin(), p.gains_w_per_f.end(),
                             p.freq_current.begin(), 0.0) *
          rng.uniform(0.97, 1.03);
      p.power_target_w *= rng.uniform(0.9, 1.1);
    }
  }
  // The sequence must reach the FISTA polish, not only the direct solve.
  EXPECT_GT(polished, 3) << polished << " of 42 steps polished";
}

TEST(StructuredMpc, ClassesMergeWhenTheirCoresMatchAgain) {
  // A split followed by a rejoin returns to the merged class count, and
  // classes whose cores all come to match merge into one. A partition of
  // all-distinct cores is kept as it is: it runs the per-core loops, and
  // the merge check runs on compact partitions only.
  Rng rng(81);
  MpcPowerController mpc{MpcConfig{}};
  PerCoordinateMpc ref{MpcConfig{}};
  MpcOutput got;
  MpcProblem p = profiled_problem(rng, 16, 4, 25.0);
  const auto step = [&](std::size_t classes, const std::string& where) {
    mpc.step(p, got);
    expect_same_output(got, ref.step(p), where);
    EXPECT_EQ(mpc.num_classes(), classes) << where;
  };
  step(4, "4 profiles");
  const double ceiling = p.freq_max[9];
  p.freq_max[9] = p.freq_min[9];
  step(5, "core 9 split off");
  p.freq_max[9] = ceiling;
  step(4, "core 9 rejoined");
  for (std::size_t i = 0; i < 16; ++i) p.penalty_weights[i] = 1.0;
  for (std::size_t i = 0; i < 16; ++i) p.freq_max[i] = p.freq_max[0];
  for (std::size_t i = 0; i < 16; ++i) p.freq_min[i] = p.freq_min[0];
  step(1, "one class");
  for (std::size_t i = 0; i < 16; ++i)
    p.penalty_weights[i] = 1.0 + 0.01 * static_cast<double>(i);
  step(16, "all distinct");
  for (std::size_t i = 0; i < 16; ++i) p.penalty_weights[i] = 1.0;
  step(16, "all-distinct partition kept");
}

TEST(StructuredMpc, ZeroGainStepAfterAWarmStepMatchesPerCoordinateController) {
  // With every gain 0 no block is searched, so no search pass forms the
  // k . x_0 the predicted power reads; a warm controller must not reuse
  // the previous step's.
  Rng rng(82);
  MpcPowerController mpc{MpcConfig{}};
  PerCoordinateMpc ref{MpcConfig{}};
  MpcOutput got;
  MpcProblem p = profiled_problem(rng, 16, 4, 25.0);
  mpc.step(p, got);
  expect_same_output(got, ref.step(p), "gain 25");
  std::fill(p.gains_w_per_f.begin(), p.gains_w_per_f.end(), 0.0);
  mpc.step(p, got);
  expect_same_output(got, ref.step(p), "gain 0");
}

}  // namespace
}  // namespace sprintcon::control
