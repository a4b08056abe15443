// Per-coordinate form of the structured MPC box QP, and the partitioning
// wrapper that solves it with the library solver.
//
// The library states the QP over classes of bitwise-equal coordinates
// (control/structured_qp.hpp): the MPC controller keeps the partition over
// its per-core inputs and writes one value per class. Tests state problems
// one coordinate at a time instead. solve_structured_qp below partitions
// such a problem, copies one value per class and runs the library's solve
// on it, so the oracles (structured_qp_reference.hpp, the dense solver)
// check the very body the controller runs.
#pragma once

#include "control/structured_qp.hpp"

namespace sprintcon::control {

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

/// Analytic upper bound on lambda_max(H): max(R) + max_b(c_b) ||k||^2.
double structured_lambda_max_bound(const StructuredBlockQp& qp);

/// The wrapper's buffers: the class partition and class-level copy of the
/// problem, and the solver's scratch.
struct StructuredBlockScratch {
  StructuredClassQp classes;
  StructuredQpScratch solver;
};

/// Partition `qp` afresh into classes of coordinates whose gain, penalty
/// and every block's gradient and bounds are bitwise equal, and solve it
/// with the library solver.
void solve_structured_qp(const StructuredBlockQp& qp, const Vector& x0,
                         const QpOptions& options,
                         StructuredBlockScratch& scratch, QpResult& result);

}  // namespace sprintcon::control
