// ObsSink: the single observability handle threaded through the stack.
//
// A sink bundles the per-rig EventLog with a MetricsRegistry. Subsystems
// accept a nullable `ObsSink*` via set_obs(); a null sink means
// observability is disabled and every emit site costs exactly one
// predictable branch (`if (obs_)`). Nothing gates the cost of a live
// sink: bench/perf_controller's BM_MpcStep/BM_MpcStepObserved pair
// measures it on the MPC hot path, and perfbench's obs.trace_overhead_frac
// reports obs plus tracing on each workload's run time.
//
// Threading contract (checked where checkable — DESIGN.md §11): the
// EventLog and the trace_ pointer are single-owner — wired before the
// run, then touched only by the thread driving this rig. Only the
// MetricsRegistry may be shared across threads; its registration map is
// SPRINTCON_GUARDED_BY its mutex and the returned handles are lock-free.
#pragma once

#include <chrono>
#include <cstddef>

#include "obs/event_log.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace sprintcon::obs {

class ObsSink {
 public:
  explicit ObsSink(std::size_t event_capacity = 4096)
      : events_(event_capacity) {
    // Ring overwrites surface as `events.dropped` in every snapshot.
    events_.set_drop_counter(&metrics_.counter("events.dropped"));
  }

  EventLog& events() noexcept { return events_; }
  const EventLog& events() const noexcept { return events_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Span tracing (optional, on top of the optional sink): attach the
  /// owner's TraceBuffer and every span site reachable through this sink
  /// goes live. Null = tracing off; span sites then cost one branch.
  void set_trace(TraceBuffer* buffer) noexcept { trace_ = buffer; }
  TraceBuffer* trace() const noexcept { return trace_; }

 private:
  EventLog events_;
  MetricsRegistry metrics_;
  TraceBuffer* trace_ = nullptr;
};

/// RAII wall-time probe recording elapsed microseconds into a histogram.
/// A null histogram disables the timer entirely (the clock is not read),
/// keeping disabled-mode cost to the construction branch.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist) noexcept : hist_(hist) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (hist_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      hist_->record(
          std::chrono::duration<double, std::micro>(elapsed).count());
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace sprintcon::obs
