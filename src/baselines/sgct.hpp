// SGCT baselines: the sprinting game with Cooperative Threshold
// (Fan et al., ASPLOS'16 [2]), as adapted by the paper's evaluation
// (Section VI-B).
//
// All variants pick which cores sprint (run at peak frequency) greedily by
// processor utilization — a core with higher utilization demands more
// computing — under a total sprinting power budget of rated x
// overload-degree. Non-sprinting cores run at the rack's normal operating
// frequency. The variants differ in how honestly the budget is enforced
// and who gets priority:
//
//  * SGCT (kRaw)  — open loop. Estimates power with a simple linear model
//    that ignores the fan subsystem, so the actual load drifts a few
//    percent above the CB budget; it also overloads the breaker as its
//    only knob (no scheduled recovery, no proactive UPS use). The breaker
//    trips in ~150 s; the UPS then carries the whole rack until it runs
//    dry (Figure 5).
//
//  * SGCT-V1 (kV1) — "ideal" capping: uses ground-truth power (an oracle
//    a real deployment would not have, as the paper notes) to fill the
//    budget exactly, never tripping. Follows the periodic CB
//    overload/recovery schedule, discharging the UPS only while the CB
//    recovers, keeping the *total* power flat at the budget.
//
//  * SGCT-V2 (kV2) — V1, but cores running interactive workloads sprint
//    before any batch core.
#pragma once

#include "core/config.hpp"
#include "power/power_path.hpp"
#include "server/power_model.hpp"
#include "server/rack.hpp"
#include "sim/clock.hpp"

namespace sprintcon::baselines {

enum class SgctVariant { kRaw, kV1, kV2 };

/// Sprinting-game controller for one rack.
class SgctController {
 public:
  /// @param config   shares the SprintConfig for CB/overload numbers
  /// @param rack     controlled rack (outlives the controller)
  /// @param path     power infrastructure (outlives the controller)
  /// @param variant  which baseline
  SgctController(const core::SprintConfig& config, server::Rack& rack,
                 power::PowerPath& path, SgctVariant variant);

  void step(const sim::SimClock& clock);

  SgctVariant variant() const noexcept { return variant_; }
  bool outage() const noexcept { return outage_; }
  /// CB power target implied by the variant's schedule at time t.
  double cb_target_at(double t_s) const;
  /// Total sprint power budget (rated x overload degree).
  double total_budget_w() const noexcept {
    return config_.cb_overload_w();
  }

 private:
  struct CoreSlot {
    server::CpuCore* core = nullptr;
    const server::Server* server = nullptr;
    double utilization = 0.0;
    bool interactive = false;
  };

  /// Collect all cores with their current utilization, sorted by the
  /// variant's sprint priority (highest first).
  std::vector<CoreSlot> prioritized_cores();

  /// Estimated power of one core at frequency f for budget filling.
  double core_power_estimate_w(const CoreSlot& slot, double freq) const;
  /// Rack-level constant power the allocation must account for.
  double fixed_power_estimate_w() const;

  /// Run one allocation pass filling `budget_w`.
  void allocate_frequencies(double budget_w);

  core::SprintConfig config_;
  server::Rack& rack_;
  power::PowerPath& path_;
  SgctVariant variant_;
  server::MeasurementPowerModel oracle_;
  bool outage_ = false;
};

}  // namespace sprintcon::baselines
