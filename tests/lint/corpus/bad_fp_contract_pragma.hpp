// Known-bad: a header in the server layer that turns FP contraction back
// on for the code below it. Inline kernels compile into every caller, so
// the pragma would undo the -ffp-contract=off pin wherever this header is
// included.
// lint:treat-as(src/server/bad_fused_kernel.hpp)
// lint:expect(fp-contract)
#pragma once
#pragma STDC FP_CONTRACT ON

namespace sprintcon::server {

inline double core_dynamic_w(double util, double a_w, double g_w,
                             double freq) {
  return util * (a_w * freq + g_w * freq * freq * freq);
}

}  // namespace sprintcon::server
