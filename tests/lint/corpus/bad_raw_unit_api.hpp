// Known-bad: public API taking bare-unit doubles. `double watts` names
// the unit but not the role and accepts any double; a role-suffixed
// name (budget_w, window_s) is required.
// lint:treat-as(src/core/bad_budget.hpp)
// lint:expect(raw-unit)
#pragma once

namespace sprintcon::core {

class BadBudget {
 public:
  void set_budget(double watts);
  void set_window(double seconds, bool hard);
  double energy(double joules) const;
};

}  // namespace sprintcon::core
