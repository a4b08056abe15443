// Known-bad: a SPRINTCON_HOT member function defined inline in a class in
// a header (the shape of CpuCore::step) that allocates on every call. The
// rule must check inline bodies in headers, not only out-of-line
// definitions in .cpp files.
// lint:treat-as(src/server/bad_inline_core.hpp)
// lint:expect(hot-alloc)
#pragma once
#define SPRINTCON_HOT
#include <memory>

namespace sprintcon::server {

struct Sample {
  double busy = 0.0;
};

class InlineCore {
 public:
  SPRINTCON_HOT void step(double dt_s) {
    switch (kind_) {
      case 0:
        last_ = std::make_unique<Sample>();
        last_->busy = dt_s;
        break;
      default:
        break;
    }
  }

 private:
  int kind_ = 0;
  std::unique_ptr<Sample> last_;
};

}  // namespace sprintcon::server
