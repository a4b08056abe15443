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
// operator form below evaluates matvec, objective and the projected-gradient
// residual in O(n Lc) and replaces the solver's per-call power iteration
// with the analytic bound
//
//     lambda_max(H) <= max_i R_i + (max_b c_b) ||k||^2,
//
// which is exact when R is uniform (k is an eigenvector of each block).
// Every routine writes into caller-owned scratch, so a warm-started
// controller performs zero steady-state allocations.
#pragma once

#include <cstddef>

#include "control/matrix.hpp"

namespace sprintcon::control {

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
  /// blocks; 0 when it was not attempted). `iterations` reports the FISTA
  /// count instead whenever the direct answer had to be polished.
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
  Vector penalty;      ///< R diagonal, length n (shared by every block)
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

/// Reusable iteration buffers for solve_structured_qp. Vectors grow to the
/// problem dimension on first use and are reused verbatim afterwards.
struct StructuredQpScratch {
  Vector x;       ///< current iterate
  Vector y;       ///< FISTA extrapolation point
  Vector x_next;  ///< candidate iterate
  Vector grad;    ///< gradient at y
};

/// out = H x for the structured Hessian. O(n Lc); `out` is resized to match.
void structured_matvec(const StructuredBlockQp& qp, const Vector& x,
                       Vector& out);

/// Projected-gradient residual ||x - clamp(x - (Hx + g))||_inf, evaluated
/// in O(n Lc) with no temporaries; zero exactly at a KKT point.
double structured_residual(const StructuredBlockQp& qp, const Vector& x);

/// Analytic upper bound on lambda_max(H): max(R) + max_b(c_b) ||k||^2.
/// Replaces the dense solver's power iteration (O(iters (n Lc)^2)).
double structured_lambda_max_bound(const StructuredBlockQp& qp);

/// Solve the structured box QP with FISTA-accelerated projected gradient.
/// Identical algorithm to solve_box_qp but with O(n Lc) iterations and the
/// analytic step bound; writes the solution into `result` (whose vector
/// capacity is reused across calls) and iterates entirely inside `scratch`.
/// Hot path (SPRINTCON_HOT): after the scratch buffers have grown to
/// fit, steady-state solves never allocate.
void solve_structured_qp(const StructuredBlockQp& qp, const Vector& x0,
                         const QpOptions& options, StructuredQpScratch& scratch,
                         QpResult& result);

}  // namespace sprintcon::control
