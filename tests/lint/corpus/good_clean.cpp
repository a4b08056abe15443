// Known-good: everything here is legal and must produce zero findings.
//  * steady_clock is fine because this file "lives" in src/scenario,
//    which only measures wall time around the simulation;
//  * the SPRINTCON_HOT function only touches pre-sized state;
//  * "new" / "malloc" inside comments and strings must not count;
//  * std::fma is legal outside the decision path (src/scenario only
//    reports);
//  * std::function is legal outside src/sim (a facility epoch callback).
// lint:treat-as(src/scenario/good_clean.cpp)
#define SPRINTCON_HOT
#include <chrono>
#include <cmath>
#include <cstddef>
#include <functional>

namespace sprintcon::scenario {

struct EpochHooks {
  std::function<void(std::size_t, double)> epoch_callback;
};

// A comment mentioning new, delete, malloc(, dynamic_cast and
// random_device — none of which is code.
double epoch_us() {
  const char* label = "uses new malloc( steady_clock in a string";
  (void)label;
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Mentions of fma( and #pragma STDC FP_CONTRACT in a comment are text.
double scaled_us(double us, double scale, double offset_us) {
  return std::fma(us, scale, offset_us);
}

SPRINTCON_HOT void hot_fill(double* out, int n, double v) {
  for (int i = 0; i < n; ++i) out[i] = v;  // no allocation, no downcast
}

}  // namespace sprintcon::scenario
