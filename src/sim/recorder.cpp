#include "sim/recorder.hpp"

#include "common/attributes.hpp"
#include "common/validation.hpp"

namespace sprintcon::sim {

TraceRecorder::TraceRecorder(double dt_s) : dt_s_(dt_s) {
  SPRINTCON_EXPECTS(dt_s > 0.0, "recorder interval must be positive");
}

void TraceRecorder::set_channels(std::vector<std::string> names,
                                 const void* owner, FillFn fill) {
  SPRINTCON_EXPECTS(fill_ == nullptr, "channels are declared once");
  SPRINTCON_EXPECTS(fill != nullptr, "channels need a fill function");
  SPRINTCON_EXPECTS(!names.empty(), "declare at least one channel");
  index_.reserve(names.size());
  series_.reserve(names.size());
  for (std::string& name : names) {
    SPRINTCON_EXPECTS(!has(name), "duplicate channel name: " + name);
    index_.emplace(name, series_.size());
    series_.emplace_back(std::move(name), dt_s_);
    if (expected_samples_ > 0) series_.back().reserve(expected_samples_);
  }
  row_.assign(series_.size(), 0.0);
  owner_ = owner;
  fill_ = fill;
}

void TraceRecorder::reserve_horizon(std::size_t expected_samples) {
  expected_samples_ = expected_samples;
  for (TimeSeries& s : series_) s.reserve(expected_samples);
}

SPRINTCON_HOT void TraceRecorder::sample() {
  if (fill_ == nullptr) return;
  fill_(owner_, row_.data());
  for (std::size_t i = 0; i < series_.size(); ++i) series_[i].push(row_[i]);
}

bool TraceRecorder::has(std::string_view name) const {
  return index_.find(name) != index_.end();
}

const TimeSeries& TraceRecorder::series(std::string_view name) const {
  const auto it = index_.find(name);
  if (it == index_.end())
    throw InvalidArgumentError("unknown trace channel: " + std::string(name));
  return series_[it->second];
}

std::vector<std::string> TraceRecorder::channel_names() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& s : series_) names.push_back(s.name());
  return names;
}

std::vector<const TimeSeries*> TraceRecorder::all_series() const {
  std::vector<const TimeSeries*> out;
  out.reserve(series_.size());
  for (const auto& s : series_) out.push_back(&s);
  return out;
}

}  // namespace sprintcon::sim
