// A rack of servers — the unit SprintCon controls.
#pragma once

#include <vector>

#include "server/server.hpp"
#include "sim/clock.hpp"

namespace sprintcon::server {

/// Reference to one batch core within the rack (server index, core index).
struct BatchCoreRef {
  std::size_t server = 0;
  std::size_t core = 0;
};

/// Per-tick telemetry the recorder samples, produced by ONE pass over the
/// rack's cores. Powered-off servers report frequency 0 and saturated
/// request latency.
struct RackTelemetry {
  double freq_interactive = 0.0;  ///< rack-mean normalized frequency
  double freq_batch = 0.0;
  double core_temp_max_c = 0.0;   ///< hottest core junction temperature
  double p95_latency_ms = 0.0;    ///< rack-mean M/M/1 p95 response time
};

/// The rack owns its servers and advances them each tick. Controllers
/// address batch cores through BatchCoreRef lists so they never need to
/// know the rack layout.
class Rack {
 public:
  explicit Rack(std::vector<Server> servers);

  void step(const sim::SimClock& clock);

  std::vector<Server>& servers() noexcept { return servers_; }
  const std::vector<Server>& servers() const noexcept { return servers_; }

  /// Ground-truth total rack power over the last interval (the physical
  /// power monitor of the paper reads this).
  double total_power_w() const;

  /// All batch cores in a stable order.
  const std::vector<BatchCoreRef>& batch_cores() const noexcept {
    return batch_refs_;
  }
  CpuCore& core(const BatchCoreRef& ref);

  /// The rack's one probe: rack-mean frequency by class, the hottest core
  /// temperature and the rack-mean p95 request latency, in a single pass.
  RackTelemetry telemetry() const;

  /// Power every server on/off (UPS exhaustion outage).
  void set_all_powered(bool on);

  /// Apply a function to every core of the given role.
  template <typename Fn>
  void for_each_core(CoreRole role, Fn&& fn) {
    for (Server& s : servers_) {
      for (CpuCore& c : s.cores()) {
        if (c.role() == role) fn(c);
      }
    }
  }

 private:
  std::vector<Server> servers_;
  std::vector<BatchCoreRef> batch_refs_;
};

}  // namespace sprintcon::server
