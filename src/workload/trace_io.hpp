// Recorded-trace import/export and replay.
//
// The paper drives its interactive workloads from real Wikipedia request
// traces. Operators with their own traces can load them here: a trace is a
// uniformly sampled utilization (or request-rate) series in a one- or
// two-column CSV ("value" or "time_s,value"). ReplayUtilization then plays
// it into the simulation (interpolating between samples, optionally
// looping and scaling), interchangeable with the synthetic generator.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>


namespace sprintcon::workload {

/// A uniformly sampled recorded trace.
struct RecordedTrace {
  double dt_s = 1.0;
  std::vector<double> samples;

  /// Duration covered by the trace.
  double duration_s() const noexcept {
    return static_cast<double>(samples.size()) * dt_s;
  }
  /// Mean of the samples (throws on an empty trace).
  double mean() const;
};

/// Parse a trace from CSV. Accepts either one column of values (dt taken
/// from `default_dt_s`) or two columns "time,value" whose time column must
/// be uniform (dt inferred; a header row is skipped automatically).
/// Throws InvalidArgumentError on malformed input.
RecordedTrace read_trace_csv(std::istream& in, double default_dt_s = 1.0);

/// Convenience file overload; throws InvalidArgumentError if unreadable.
RecordedTrace read_trace_csv_file(const std::string& path,
                                  double default_dt_s = 1.0);

/// Write a trace as "time_s,value" CSV.
void write_trace_csv(std::ostream& out, const RecordedTrace& trace);

/// Replays a recorded trace as a utilization source.
class ReplayUtilization {
 public:
  /// @param trace   recorded samples (utilization or any demand proxy)
  /// @param scale   multiplier applied to every sample (then clamped to
  ///                [0, 1]); use to convert request rates to utilization
  /// @param loop    wrap around at the end (otherwise holds the last value)
  /// @param offset_s start position within the trace
  ReplayUtilization(RecordedTrace trace, double scale = 1.0, bool loop = true,
                    double offset_s = 0.0);

  /// Advance by dt and return the utilization for the elapsed interval
  /// (trace-driven: the core frequency is ignored).
  double step(double dt_s, double freq = 1.0);
  double utilization() const noexcept { return utilization_; }

  const RecordedTrace& trace() const noexcept { return trace_; }

 private:
  double value_at(double t_s) const;

  RecordedTrace trace_;
  double scale_;
  bool loop_;
  double position_s_;
  double utilization_ = 0.0;
};

}  // namespace sprintcon::workload
