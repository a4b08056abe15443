#include "baselines/sgct.hpp"

#include <algorithm>
#include <cmath>

namespace sprintcon::baselines {

namespace {
// Normalized frequency of non-sprinting cores.
constexpr double kNormalFreq = 0.5;
// Cooperative-threshold utilization: cores below it are not sprint
// candidates (they stay at kNormalFreq).
constexpr double kSprintThreshold = 0.5;
}  // namespace

SgctController::SgctController(const core::SprintConfig& config,
                               server::Rack& rack, power::PowerPath& path,
                               SgctVariant variant)
    : config_(config),
      rack_(rack),
      path_(path),
      variant_(variant),
      oracle_(rack.servers().front().spec()) {
  config.validate();
}

double SgctController::cb_target_at(double t_s) const {
  if (variant_ == SgctVariant::kRaw) {
    // Raw SGCT overloads continuously (its only knob) for the whole burst.
    return config_.cb_overload_w();
  }
  // V1/V2 follow the periodic overload/recovery schedule; during recovery
  // the UPS covers the gap so the total stays at the budget.
  const double cycle =
      config_.cb_overload_duration_s + config_.cb_recovery_duration_s;
  const double phase = std::fmod(t_s, cycle);
  return phase < config_.cb_overload_duration_s ? config_.cb_overload_w()
                                                : config_.cb_rated_w;
}

std::vector<SgctController::CoreSlot> SgctController::prioritized_cores() {
  std::vector<CoreSlot> slots;
  for (server::Server& s : rack_.servers()) {
    for (server::CpuCore& c : s.cores()) {
      CoreSlot slot;
      slot.core = &c;
      slot.server = &s;
      slot.utilization = c.utilization();
      slot.interactive = !c.is_batch();
      slots.push_back(slot);
    }
  }
  const bool interactive_first = variant_ == SgctVariant::kV2;
  std::sort(slots.begin(), slots.end(),
            [interactive_first](const CoreSlot& a, const CoreSlot& b) {
              if (interactive_first && a.interactive != b.interactive)
                return a.interactive;  // interactive cores first
              return a.utilization > b.utilization;
            });
  return slots;
}

double SgctController::core_power_estimate_w(const CoreSlot& slot,
                                             double freq) const {
  if (variant_ == SgctVariant::kRaw) {
    // Open-loop estimate with the few-percent low bias typical of
    // model-based capping without feedback (stale utilization samples,
    // uncalibrated sensors) and blind to the fan subsystem. This is why
    // the paper observes SGCT's actual CB power "slightly higher than the
    // CB budget" — enough to walk the breaker into its trip curve.
    constexpr double kOpenLoopBias = 0.95;
    return kOpenLoopBias * oracle_.core_dynamic_w(freq, slot.utilization);
  }
  // V1/V2 oracle: the true frequency/utilization-dependent model.
  return oracle_.core_dynamic_w(freq, slot.utilization);
}

double SgctController::fixed_power_estimate_w() const {
  double fixed = 0.0;
  for (const server::Server& s : rack_.servers()) {
    if (!s.powered()) continue;
    fixed += s.spec().idle_power_w;
    if (variant_ != SgctVariant::kRaw) {
      fixed += s.fan_power_w();  // the oracle sees the fans; raw SGCT not
    }
  }
  return fixed;
}

void SgctController::allocate_frequencies(double budget_w) {
  std::vector<CoreSlot> slots = prioritized_cores();

  // Everyone starts the period at the normal operating frequency (finished
  // run-once jobs idle at the DVFS floor); the budget is then spent raising
  // sprint candidates toward peak in priority order.
  double used = fixed_power_estimate_w();
  for (const CoreSlot& slot : slots) {
    server::CpuCore& core = *slot.core;
    if (core.is_batch() && core.job()->completed()) {
      core.set_freq(core.freq_min());
    } else {
      core.set_freq(kNormalFreq);
      used += core_power_estimate_w(slot, kNormalFreq);
    }
  }

  for (CoreSlot& slot : slots) {
    server::CpuCore& core = *slot.core;
    if (core.is_batch() && core.job()->completed()) continue;
    // Cooperative threshold: a core whose utilization does not justify the
    // sprinting power stays at the normal frequency.
    if (slot.utilization < kSprintThreshold) continue;

    const double at_normal = core_power_estimate_w(slot, kNormalFreq);
    const double at_peak = core_power_estimate_w(slot, core.freq_max());
    const double delta = at_peak - at_normal;
    if (used + delta <= budget_w) {
      core.set_freq(core.freq_max());
      used += delta;
      continue;
    }
    // Marginal core: find the frequency that exactly exhausts the budget
    // (bisection handles the oracle's cubic term).
    const double room = budget_w - used;
    if (room <= 0.0) continue;  // stays at normal frequency
    double lo = kNormalFreq, hi = core.freq_max();
    for (int it = 0; it < 30; ++it) {
      const double mid = 0.5 * (lo + hi);
      const double dp = core_power_estimate_w(slot, mid) - at_normal;
      if (dp > room) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    core.set_freq(lo);
    used += core_power_estimate_w(slot, lo) - at_normal;
  }
}

void SgctController::step(const sim::SimClock& clock) {
  const double dt = clock.dt_s();
  if (outage_) {
    path_.step(0.0, 0.0, dt);
    return;
  }

  const double now = clock.now_s();
  const double p_total = rack_.total_power_w();

  if (clock.every(config_.mpc.control_period_s)) {
    // The game re-runs its allocation each control period. If the UPS is
    // exhausted, an honest variant shrinks the budget to what the CB alone
    // can carry.
    double budget = total_budget_w();
    if (variant_ != SgctVariant::kRaw && path_.battery().empty()) {
      budget = std::min(budget, config_.cb_rated_w);
    }
    allocate_frequencies(budget);
  }

  // Supply split.
  double ups_command = 0.0;
  if (variant_ != SgctVariant::kRaw) {
    // V1/V2 discharge the UPS only for load above the scheduled CB target.
    ups_command = std::max(0.0, p_total - cb_target_at(now));
  }
  // Raw SGCT: no proactive discharge; the breaker takes everything until
  // it trips, then the inline UPS carries the rack (PowerPath handles it).

  const power::PowerFlows flows = path_.step(p_total, ups_command, dt);
  if (flows.unserved_w > 50.0) {
    outage_ = true;
    rack_.set_all_powered(false);
  }
}

}  // namespace sprintcon::baselines
