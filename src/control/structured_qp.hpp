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
// coordinates repeat another's inputs bit for bit; the solver computes
// each distinct coordinate once and only the sums visit all n. Every
// routine writes into caller-owned scratch, so a warm-started controller
// performs zero steady-state allocations. The per-coordinate solver the
// tests compare against bit for bit is tests/support/control/
// structured_qp_reference.hpp.
#pragma once

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

/// Box QP whose Hessian is blkdiag_b(diag(penalty) + rank_weight[b] k k^T).
/// `gradient`, `lower`, `upper` have length gains.size() * rank_weight.size()
/// and are stacked block-major (block b occupies [b*n, (b+1)*n)).
struct StructuredBlockQp {
  Vector gains;        ///< k, length n (shared by every block)
  Vector penalty;      ///< R diagonal > 0, length n (shared by every block)
  Vector rank_weight;  ///< c_b >= 0 per block, length Lc
  Vector gradient;     ///< linear term g, length n * Lc
  Vector lower;        ///< elementwise lower bounds, length n * Lc
  Vector upper;        ///< elementwise upper bounds, length n * Lc

  std::size_t block_size() const noexcept { return gains.size(); }
  std::size_t num_blocks() const noexcept { return rank_weight.size(); }
  std::size_t dim() const noexcept { return gradient.size(); }

  /// Validate the invariants; throws InvalidArgumentError.
  void validate() const;
};

/// Reusable buffers for solve_structured_qp: the partition of the
/// coordinates into classes, the class-compact copy of the problem and the
/// iterates. The partition is sized for n classes when a block size is
/// first seen, and the compact copy and iterates when the first partition
/// with a repeated coordinate is; after that, solves of that shape
/// (partition rebuilds included) never allocate.
struct StructuredQpScratch {
  /// Class of each coordinate, numbered in order of first appearance.
  std::vector<std::uint32_t> class_of;
  /// First coordinate of each class (its representative).
  std::vector<std::uint32_t> class_rep;
  /// The representatives' gains, penalties, gradients and bounds, then
  /// two summand slots per class; used only when some class has more than
  /// one member.
  Vector compact;
  Vector x;       ///< current iterate, one value per class and block
  Vector y;       ///< FISTA extrapolation point
  Vector x_next;  ///< candidate iterate
  Vector grad;    ///< Hessian times y
};

/// Analytic upper bound on lambda_max(H): max(R) + max_b(c_b) ||k||^2.
/// Replaces the dense solver's power iteration (O(iters (n Lc)^2)).
double structured_lambda_max_bound(const StructuredBlockQp& qp);

/// Solve the structured box QP: an exact Newton solve of each block's
/// scalar KKT equation, polished by FISTA-accelerated projected gradient
/// when that answer misses the tolerance. Coordinates whose inputs are
/// bitwise equal are evaluated once per class; the result is bit-identical
/// to evaluating every coordinate (DESIGN.md §7.1). Writes the solution
/// into `result` (whose vector capacity is reused across calls) and works
/// entirely inside `scratch`. Hot path (SPRINTCON_HOT): after the scratch
/// has been sized for a problem shape, solves never allocate.
void solve_structured_qp(const StructuredBlockQp& qp, const Vector& x0,
                         const QpOptions& options, StructuredQpScratch& scratch,
                         QpResult& result);

}  // namespace sprintcon::control
