// One simulated CPU core with per-core DVFS.
//
// A core is dedicated to either interactive or batch work for the duration
// of a sprint (the paper's colocation scheme: both classes share a server
// but not a core). Batch cores carry a BatchJob; interactive cores carry an
// InteractiveTraceGenerator. Frequency writes model the DVFS actuator
// ("writing system files" in the paper's controller loop, step 3).
#pragma once

#include <memory>

#include "server/thermal.hpp"
#include "workload/batch_job.hpp"
#include "workload/interactive.hpp"
#include "workload/utilization_source.hpp"

namespace sprintcon::server {

/// Workload class a core is dedicated to.
enum class CoreRole { kInteractive, kBatch };

/// One core: DVFS state + attached workload.
class CpuCore {
 public:
  /// Interactive core driven by any utilization source (synthetic
  /// generator or recorded-trace replay); always intended to run at peak
  /// during sprints.
  CpuCore(double freq_min, double freq_max,
          std::unique_ptr<workload::UtilizationSource> source);

  /// Convenience overload for the synthetic generator.
  CpuCore(double freq_min, double freq_max,
          workload::InteractiveTraceGenerator generator);

  /// Batch core carrying one job.
  CpuCore(double freq_min, double freq_max,
          std::unique_ptr<workload::BatchJob> job);

  CoreRole role() const noexcept { return role_; }
  bool is_batch() const noexcept { return role_ == CoreRole::kBatch; }

  double freq() const noexcept { return freq_; }
  double freq_min() const noexcept { return freq_min_; }
  double freq_max() const noexcept { return freq_max_; }

  /// DVFS actuator: clamps into the platform range.
  void set_freq(double freq) noexcept;

  /// Utilization over the last completed interval.
  double utilization() const noexcept { return utilization_; }

  /// Latest perf-counter sample (batch cores only; zeros otherwise).
  const workload::PerfCounterSample& counters() const noexcept {
    return counters_;
  }

  /// Batch job access; nullptr on interactive cores.
  workload::BatchJob* job() noexcept { return job_.get(); }
  const workload::BatchJob* job() const noexcept { return job_.get(); }

  /// Advance the attached workload by dt at the current frequency.
  void step(double dt_s, double now_s);

  // --- thermal state (optional) ------------------------------------------
  /// Bind this core's thermal reads to a server-owned SoA slot (see
  /// Server::attach_thermal). `spec` and `slot` must outlive the core.
  void bind_thermal_slot(const ThermalSpec* spec, const double* slot) noexcept {
    thermal_spec_ = spec;
    temp_slot_ = slot;
  }
  /// Junction temperature; ambient when no slot is bound.
  double temperature_c() const noexcept {
    return temp_slot_ != nullptr ? *temp_slot_ : ThermalSpec{}.ambient_c;
  }
  /// True when the core runs hot enough that the controller must back off.
  /// A core with no slot bound never throttles.
  bool thermally_throttled() const noexcept {
    return temp_slot_ != nullptr &&
           *temp_slot_ >= thermal_spec_->throttle_temp_c;
  }

 private:
  CoreRole role_;
  double freq_min_;
  double freq_max_;
  double freq_;
  double utilization_ = 0.0;
  std::unique_ptr<workload::UtilizationSource> source_;
  std::unique_ptr<workload::BatchJob> job_;
  workload::PerfCounterSample counters_;
  // SoA binding (non-owning; set by Server::attach_thermal).
  const ThermalSpec* thermal_spec_ = nullptr;
  const double* temp_slot_ = nullptr;
};

}  // namespace sprintcon::server
