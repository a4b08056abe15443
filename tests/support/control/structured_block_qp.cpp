#include "control/structured_block_qp.hpp"

#include <algorithm>

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

/// Copy each class representative's inputs into the class-level problem.
void gather_classes(const StructuredBlockQp& qp, StructuredClassQp& cq) {
  const std::size_t n = qp.block_size();
  const std::size_t blocks = qp.num_blocks();
  cq.resize_classes(blocks);
  const std::size_t m = cq.num_classes();
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t rep = cq.class_rep[j];
    cq.gains[j] = qp.gains[rep];
    cq.penalty[j] = qp.penalty[rep];
    for (std::size_t b = 0; b < blocks; ++b) {
      cq.gradient[b * m + j] = qp.gradient[b * n + rep];
      cq.lower[b * m + j] = qp.lower[b * n + rep];
      cq.upper[b * m + j] = qp.upper[b * n + rep];
    }
  }
  cq.rank_weight = qp.rank_weight;
}

}  // namespace

void solve_structured_qp(const StructuredBlockQp& qp, const Vector& x0,
                         const QpOptions& options,
                         StructuredBlockScratch& scratch, QpResult& result) {
  qp.validate();
  StructuredClassQp& cq = scratch.classes;
  cq.partition(qp.block_size(), [&qp](std::size_t i, std::size_t j) {
    return same_coordinate(qp, i, j);
  });
  gather_classes(qp, cq);
  solve_structured_qp(cq, x0, options, scratch.solver, result);
}

}  // namespace sprintcon::control
