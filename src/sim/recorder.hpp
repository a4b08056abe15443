// Trace recording: one row of named channels sampled once per tick.
//
// The owner of the simulated state declares its channel names once, with
// one fill function that writes a whole row; the recorder turns each
// column into a TimeSeries that the metrics layer and the
// figure-reproduction benches consume.
//
// Hot-path notes (the recorder runs once per simulated tick):
//  * reserve_horizon() pre-sizes every channel vector from the run length,
//    so steady-state sampling never allocates.
//  * One fill call per tick lets the owner compute shared state once (the
//    rig fuses its four per-core channels into a single rack scan).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/time_series.hpp"

namespace sprintcon::sim {

/// Collects one TimeSeries per declared channel.
class TraceRecorder {
 public:
  /// Writes this tick's value of channel i to row[i], for every channel.
  using FillFn = void (*)(const void* owner, double* row);

  /// @param dt_s sampling interval; must equal the simulation step.
  explicit TraceRecorder(double dt_s);

  /// Declare the channels, once: series i is named names[i] and sample()
  /// appends row[i] from fill(owner, row). Names must be unique; `owner`
  /// is not owned and must outlive every sample().
  void set_channels(std::vector<std::string> names, const void* owner,
                    FillFn fill);

  /// Pre-size every channel vector (current and future) for a run of
  /// `expected_samples` ticks, so steady-state sampling never grows a
  /// container. Callable any time; growth past the reservation is safe.
  void reserve_horizon(std::size_t expected_samples);

  /// Fill one row and append it (no-op before set_channels). Hot path
  /// (SPRINTCON_HOT): appends against the reserve_horizon() reservation.
  void sample();

  bool has(std::string_view name) const;
  /// Access a recorded channel; throws InvalidArgumentError if unknown.
  const TimeSeries& series(std::string_view name) const;
  std::vector<std::string> channel_names() const;
  std::vector<const TimeSeries*> all_series() const;

 private:
  /// Transparent hash so string_view lookups need no std::string temporary.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  double dt_s_;
  std::size_t expected_samples_ = 0;
  const void* owner_ = nullptr;
  FillFn fill_ = nullptr;
  std::vector<double> row_;
  std::vector<TimeSeries> series_;
  /// name -> index into series_; the metrics layer queries channels by
  /// name per summary field, so lookups are O(1) instead of a linear scan.
  std::unordered_map<std::string, std::size_t, StringHash, std::equal_to<>>
      index_;
};

}  // namespace sprintcon::sim
