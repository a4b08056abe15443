#include "sim/simulation.hpp"

#include "common/attributes.hpp"
#include "common/validation.hpp"

namespace sprintcon::sim {

Simulation::Simulation(double dt_s, void* owner, TickFn tick)
    : clock_(dt_s), recorder_(dt_s), tick_owner_(owner), tick_(tick) {
  SPRINTCON_EXPECTS(owner != nullptr && tick != nullptr,
                    "a tick needs an owner and a function");
}

SPRINTCON_HOT void Simulation::step_once() { tick_(tick_owner_); }

void Simulation::run_until(double t_end_s) {
  SPRINTCON_EXPECTS(t_end_s >= clock_.now_s(), "cannot run backwards");
  while (clock_.now_s() < t_end_s) step_once();
}

}  // namespace sprintcon::sim
