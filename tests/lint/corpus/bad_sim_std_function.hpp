// Known-bad: a run-time stage list in the simulation core. The rig's tick
// order is fixed, so src/sim binds one tick and one recorder fill as plain
// function pointers; a std::function hook list or a virtual stage base
// re-introduces dispatch that no run ever changes.
// lint:treat-as(src/sim/bad_stage_list.hpp)
// lint:expect(tick-dispatch)
#include <functional>
#include <vector>

namespace sprintcon::sim {

class SimClock;

class Stage {
 public:
  virtual ~Stage() = default;
  virtual void step(const SimClock& clock) = 0;
};

class StageList {
 public:
  void add_hook(std::function<void(const SimClock&)> hook) {
    hooks_.push_back(std::move(hook));
  }

 private:
  std::vector<std::function<void(const SimClock&)>> hooks_;
};

}  // namespace sprintcon::sim
