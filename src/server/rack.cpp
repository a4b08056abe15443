#include "server/rack.hpp"

#include <algorithm>

#include "common/validation.hpp"
#include "workload/queueing.hpp"

namespace sprintcon::server {

Rack::Rack(std::vector<Server> servers) : servers_(std::move(servers)) {
  SPRINTCON_EXPECTS(!servers_.empty(), "rack needs at least one server");
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    const auto& cores = servers_[s].cores();
    for (std::size_t c = 0; c < cores.size(); ++c) {
      if (cores[c].is_batch()) batch_refs_.push_back({s, c});
    }
  }
}

void Rack::step(const sim::SimClock& clock) {
  for (Server& server : servers_) server.step(clock.dt_s(), clock.now_s());
}

double Rack::total_power_w() const {
  double sum = 0.0;
  for (const Server& s : servers_) sum += s.power_w();
  return sum;
}

CpuCore& Rack::core(const BatchCoreRef& ref) {
  SPRINTCON_EXPECTS(ref.server < servers_.size(), "server index out of range");
  auto& cores = servers_[ref.server].cores();
  SPRINTCON_EXPECTS(ref.core < cores.size(), "core index out of range");
  return cores[ref.core];
}

RackTelemetry Rack::telemetry() const {
  const workload::LatencyModel latency;
  // The M/M/1 p95 is the mean times quantile_factor(0.95), the factor
  // hoisted so the scan pays one log per program, not one per core per
  // tick. A dark or saturated core counts as the 1-second clamp — requests
  // are effectively not being served.
  static const double kP95Factor =
      workload::LatencyModel::quantile_factor(0.95);
  constexpr double kClampS = 1.0;

  RackTelemetry out;
  double inter_sum = 0.0, batch_sum = 0.0;
  std::size_t inter_n = 0, batch_n = 0;
  double temp_max = 0.0;
  double p95_sum = 0.0;
  std::size_t p95_n = 0;
  for (const Server& s : servers_) {
    const bool powered = s.powered();
    const std::vector<CpuCore>& cores = s.cores();
    // Each server's frequency sum is divided by its core count and then
    // multiplied back before it joins the rack sum. The round trip is not
    // always exact in floating point, and the recorded frequency channels
    // (and every golden built on them) hold the values it gives, so the
    // arithmetic must stay as it is.
    double s_inter = 0.0, s_batch = 0.0;
    std::size_t s_inter_n = 0, s_batch_n = 0;
    for (std::size_t i = 0; i < cores.size(); ++i) {
      const CpuCore& c = cores[i];
      const double freq_term = powered ? c.freq() : 0.0;
      if (c.is_batch()) {
        s_batch += freq_term;
        ++s_batch_n;
      } else {
        s_inter += freq_term;
        ++s_inter_n;
        double t = kClampS;
        if (powered) {
          const double mean = latency.mean_response_s(c.freq(), c.utilization());
          t = std::min(mean * kP95Factor, kClampS);
        }
        p95_sum += t;
        ++p95_n;
      }
      temp_max = std::max(temp_max, s.core_temp_c(i));
    }
    if (s_inter_n > 0) {
      inter_sum += s_inter / static_cast<double>(s_inter_n) *
                   static_cast<double>(s_inter_n);
    }
    if (s_batch_n > 0) {
      batch_sum += s_batch / static_cast<double>(s_batch_n) *
                   static_cast<double>(s_batch_n);
    }
    inter_n += s_inter_n;
    batch_n += s_batch_n;
  }
  out.freq_interactive =
      inter_n ? inter_sum / static_cast<double>(inter_n) : 0.0;
  out.freq_batch = batch_n ? batch_sum / static_cast<double>(batch_n) : 0.0;
  out.core_temp_max_c = temp_max;
  out.p95_latency_ms =
      p95_n ? p95_sum / static_cast<double>(p95_n) * 1000.0 : 0.0;
  return out;
}

void Rack::set_all_powered(bool on) {
  for (Server& s : servers_) s.set_powered(on);
}

}  // namespace sprintcon::server
