// Known-bad: an explicit fused multiply-add in the controller. The build
// pins -ffp-contract=off so a*b + c rounds twice on every target; std::fma
// rounds once, so an FMA host and a non-FMA host would disagree in the
// last bit and the goldens would stop being portable.
// lint:treat-as(src/control/bad_fused_gain.cpp)
// lint:expect(fp-contract)
#include <cmath>

namespace sprintcon::control {

double predicted_power_w(double gain_w_per_f, double freq, double base_w) {
  return std::fma(gain_w_per_f, freq, base_w);
}

}  // namespace sprintcon::control
