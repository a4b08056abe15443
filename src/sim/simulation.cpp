#include "sim/simulation.hpp"

#include "common/attributes.hpp"
#include "common/validation.hpp"
#include "obs/sink.hpp"

namespace sprintcon::sim {

Simulation::Simulation(double dt_s) : clock_(dt_s), recorder_(dt_s) {}

void Simulation::bind_tick(void* owner, TickFn tick) {
  SPRINTCON_EXPECTS(owner != nullptr && tick != nullptr,
                    "a tick needs an owner and a function");
  tick_owner_ = owner;
  tick_ = tick;
}

SPRINTCON_HOT void Simulation::step_once() {
  const obs::ScopedTimer timer(tick_hist_, tick_window_);
  if (tick_ != nullptr) {
    tick_(tick_owner_);
  } else {
    clock_.advance();
    recorder_.sample();
  }
}

void Simulation::run_until(double t_end_s) {
  SPRINTCON_EXPECTS(t_end_s >= clock_.now_s(), "cannot run backwards");
  while (clock_.now_s() < t_end_s) step_once();
}

}  // namespace sprintcon::sim
