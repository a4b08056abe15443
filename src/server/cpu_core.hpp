// One simulated CPU core with per-core DVFS.
//
// A core is dedicated to either interactive or batch work for the duration
// of a sprint (the paper's colocation scheme: both classes share a server
// but not a core). The core holds its workload by value: an interactive
// utilization source (synthetic generator, closed-loop request queue or
// recorded-trace replay) or a BatchJob. Frequency writes model the DVFS
// actuator ("writing system files" in the paper's controller loop, step 3).
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/attributes.hpp"
#include "workload/batch_job.hpp"
#include "workload/interactive.hpp"
#include "workload/request_queue.hpp"
#include "workload/trace_io.hpp"

namespace sprintcon::server {

/// Workload class a core is dedicated to.
enum class CoreRole { kInteractive, kBatch };

/// What runs on a core. The role is derived from the alternative: a
/// BatchJob makes a batch core, anything else an interactive one.
using CoreWorkload =
    std::variant<workload::InteractiveTraceGenerator,
                 workload::RequestQueueSource, workload::ReplayUtilization,
                 workload::BatchJob>;

/// One core: DVFS state + attached workload.
class CpuCore {
 public:
  /// Interactive cores start at peak (they sprint at peak); batch cores
  /// start at the floor until the controller raises them.
  CpuCore(double freq_min, double freq_max, CoreWorkload workload);

  /// Same, constructing the workload in place from `args` (no moves of
  /// the workload; what Rig uses to build its fleet).
  template <typename Workload, typename... Args>
  CpuCore(double freq_min, double freq_max,
          std::in_place_type_t<Workload> type, Args&&... args)
      : freq_min_(freq_min),
        freq_max_(freq_max),
        freq_(std::is_same_v<Workload, workload::BatchJob> ? freq_min
                                                           : freq_max),
        workload_(type, std::forward<Args>(args)...) {
    check_bounds();
  }

  // A copied core would replay the same RNG stream as its original.
  CpuCore(const CpuCore&) = delete;
  CpuCore& operator=(const CpuCore&) = delete;
  CpuCore(CpuCore&&) noexcept = default;
  CpuCore& operator=(CpuCore&&) noexcept = default;

  CoreRole role() const noexcept {
    return is_batch() ? CoreRole::kBatch : CoreRole::kInteractive;
  }
  bool is_batch() const noexcept { return workload_.index() == kBatchIndex; }

  double freq() const noexcept { return freq_; }
  double freq_min() const noexcept { return freq_min_; }
  double freq_max() const noexcept { return freq_max_; }

  /// DVFS actuator: clamps into the platform range. Inline: controllers
  /// write every core each control period.
  void set_freq(double freq) noexcept {
    freq_ = std::clamp(freq, freq_min_, freq_max_);
  }

  /// Utilization over the last completed interval.
  double utilization() const noexcept { return utilization_; }

  /// The attached workload (e.g. std::get_if<RequestQueueSource>).
  CoreWorkload& workload() noexcept { return workload_; }
  const CoreWorkload& workload() const noexcept { return workload_; }

  /// Batch job access; nullptr on interactive cores.
  workload::BatchJob* job() noexcept {
    return std::get_if<workload::BatchJob>(&workload_);
  }
  const workload::BatchJob* job() const noexcept {
    return std::get_if<workload::BatchJob>(&workload_);
  }

  /// Advance the attached workload by dt at the current frequency. Inline
  /// with a switch on the alternative, so Server::step compiles each
  /// workload's kernel into its core loop (DESIGN.md §7.5).
  SPRINTCON_HOT void step(double dt_s, double now_s) {
    switch (workload_.index()) {
      case kGeneratorIndex:
        utilization_ =
            std::get_if<kGeneratorIndex>(&workload_)->step(dt_s, freq_);
        break;
      case kQueueIndex:
        utilization_ = std::get_if<kQueueIndex>(&workload_)->step(dt_s, freq_);
        break;
      case kReplayIndex:
        utilization_ =
            std::get_if<kReplayIndex>(&workload_)->step(dt_s, freq_);
        break;
      default:
        utilization_ =
            std::get_if<kBatchIndex>(&workload_)->advance(dt_s, freq_, now_s);
        break;
    }
  }

 private:
  static constexpr std::size_t kGeneratorIndex = 0;
  static constexpr std::size_t kQueueIndex = 1;
  static constexpr std::size_t kReplayIndex = 2;
  static constexpr std::size_t kBatchIndex = 3;
  static_assert(std::is_same_v<std::variant_alternative_t<kBatchIndex,
                                                          CoreWorkload>,
                               workload::BatchJob> &&
                std::variant_size_v<CoreWorkload> == kBatchIndex + 1);

  void check_bounds() const;

  double freq_min_;
  double freq_max_;
  double freq_;
  double utilization_ = 0.0;
  CoreWorkload workload_;
};

}  // namespace sprintcon::server
