// Structured operator form of the MPC box QP.
//
// The MPC Hessian (see mpc.cpp) is block diagonal over the control-horizon
// blocks, and each n x n block is a diagonal plus a rank-one term:
//
//     H = blkdiag_b( diag(R) + c_b k k^T ),   b = 0..Lc-1
//
// with k the per-core power gains, R the per-core control penalties and
// c_b = Q * (number of prediction steps mapped to block b). Materializing H
// costs O((n Lc)^2) memory and every dense matvec O((n Lc)^2) time; the
// solver keeps H in this operator form, evaluates matvec and the
// projected-gradient residual in O(n Lc), and bounds the FISTA step with
//
//     lambda_max(H) <= max_i R_i + (max_b c_b) ||k||^2,
//
// which is exact when R is uniform (k is an eigenvector of each block).
// A rack's batch cores run a few job profiles in lockstep, so most
// coordinates repeat another's inputs bit for bit. The problem is
// therefore stated over classes of such coordinates: the caller keeps the
// partition and writes one gain, penalty, gradient and bound per class,
// the solver computes one value per class, and only the sums visit all n
// coordinates. Every routine writes into caller-owned buffers, so a
// warm-started controller performs zero steady-state allocations. The
// per-coordinate form of the problem and the per-coordinate solver the
// tests compare against bit for bit live in tests/support/control/
// (structured_block_qp.hpp, structured_qp_reference.hpp).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sprintcon::control {

using Vector = std::vector<double>;

/// Solver tuning knobs.
struct QpOptions {
  int max_iterations = 500;
  /// Stop when the projected-gradient residual (infinity norm) is below
  /// this threshold.
  double tolerance = 1e-8;
};

/// Result of a QP solve.
struct QpResult {
  Vector x;            ///< solution (always feasible: clamped each iterate)
  int iterations = 0;  ///< iterations actually performed
  /// Newton/bisection passes of the direct per-block solve (summed over
  /// blocks). `iterations` reports the FISTA count instead whenever the
  /// direct answer had to be polished.
  int direct_passes = 0;
  int restarts = 0;    ///< momentum restarts taken (O'Donoghue-Candes test)
  bool converged = false;
  double residual = 0.0;  ///< final projected-gradient residual (inf norm)
};

/// True when a and b have the same bit pattern (so +0.0 and -0.0, or
/// values one ulp apart, differ).
inline bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Box QP whose Hessian is blkdiag_b(diag(penalty) + rank_weight[b] k k^T)
/// over n coordinates per block, stated over classes of coordinates whose
/// gain, penalty, gradient and bounds are bitwise equal. Class j stands for
/// every coordinate i with class_of[i] == j; the per-class arrays have one
/// entry per class (m of them), and `gradient`, `lower`, `upper` are
/// stacked block-major with block stride m. The solution and the warm
/// start have one entry per coordinate, n per block.
struct StructuredClassQp {
  /// Class of each coordinate, numbered in order of first appearance, so
  /// with every coordinate its own class, class j is coordinate j.
  std::vector<std::uint32_t> class_of;
  /// First coordinate of each class (its representative).
  std::vector<std::uint32_t> class_rep;
  Vector gains;        ///< k per class, length m
  Vector penalty;      ///< R diagonal per class, > 0, length m
  Vector rank_weight;  ///< c_b >= 0 per block, length Lc
  Vector gradient;     ///< linear term g, length m * Lc
  Vector lower;        ///< lower bounds, length m * Lc
  Vector upper;        ///< upper bounds, length m * Lc

  std::size_t block_size() const noexcept { return class_of.size(); }
  std::size_t num_classes() const noexcept { return class_rep.size(); }
  std::size_t num_blocks() const noexcept { return rank_weight.size(); }
  /// Dimension of the per-coordinate problem: n * Lc.
  std::size_t dim() const noexcept { return block_size() * num_blocks(); }

  /// Partition coordinates 0..n-1 afresh: each joins the first class whose
  /// representative it is `same(i, rep)` as, or starts a new one. The
  /// partition is sized for n classes, so a later one never allocates.
  template <typename Same>
  void partition(std::size_t n, Same same);

  /// Size the per-class arrays for the current partition and `blocks`
  /// blocks. Their capacity is reserved for n classes, so a partition that
  /// later splits never allocates.
  void resize_classes(std::size_t blocks);

  /// Validate the invariants; throws InvalidArgumentError. A check on a
  /// class covers every coordinate in it.
  void validate() const;
};

template <typename Same>
void StructuredClassQp::partition(std::size_t n, Same same) {
  class_of.resize(n);
  class_rep.reserve(n);
  class_rep.clear();
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t j = 0;
    while (j < class_rep.size() && !same(i, std::size_t{class_rep[j]})) ++j;
    class_of[i] = static_cast<std::uint32_t>(j);
    if (j == class_rep.size())
      class_rep.push_back(static_cast<std::uint32_t>(i));
  }
}

/// Reusable buffers for solve_structured_qp: the iterates (one value per
/// class and block) and per-class summands. Each is sized for n classes
/// on first use, so later solves of that shape never allocate.
struct StructuredQpScratch {
  Vector x;       ///< current iterate
  Vector y;       ///< FISTA extrapolation point
  Vector x_next;  ///< candidate iterate
  Vector grad;    ///< Hessian times y
  /// Per-class summand slots of the sums over all n coordinates, then the
  /// per-class interior slopes c k_j^2 / r_j of the blocks being searched.
  Vector terms;
  /// k . x_b of each block b, summed over every coordinate in index
  /// order; after a solve, those of the solution it returned.
  Vector block_dots;
};

/// Solve the structured box QP: an exact Newton solve of each block's
/// scalar KKT equation, polished by FISTA-accelerated projected gradient
/// when that answer misses the tolerance. Computes one value per class and
/// adds every sum over all n coordinates in index order, so the result is
/// bit-identical to evaluating every coordinate (DESIGN.md §7.1).
/// `x0` (length n * Lc) seeds the Newton search. Writes the per-coordinate
/// solution into `result` (whose vector capacity is reused across calls)
/// and its block dots k . x_b into `scratch.block_dots`, and works entirely
/// inside `scratch`. Hot path (SPRINTCON_HOT): after the
/// scratch has been sized for a problem shape, solves never allocate.
void solve_structured_qp(const StructuredClassQp& qp, const Vector& x0,
                         const QpOptions& options, StructuredQpScratch& scratch,
                         QpResult& result);

}  // namespace sprintcon::control
