// Custom rack: build a non-default deployment directly from the library's
// building blocks (no scenario::Rig), wire up SprintCon, and drive the
// simulation loop by hand.
//
// The deployment here: 8 servers, 6 interactive + 2 batch cores each
// (an interactive-heavy front-end rack), a smaller 250 Wh UPS, and a
// breaker allowed to overload to 1.2x.
//
//   ./build/examples/custom_rack
#include <iostream>
#include <memory>

#include "common/rng.hpp"
#include "core/sprintcon.hpp"
#include "scenario/rig.hpp"  // only for metrics printing conventions
#include "sim/clock.hpp"
#include "workload/batch_profile.hpp"

int main() {
  using namespace sprintcon;

  const server::PlatformSpec spec = server::paper_platform();
  Rng rng(2024);

  // --- servers: 6 interactive + 2 batch cores each -----------------------
  const std::size_t kServers = 8;
  std::vector<server::Server> servers;
  const auto profiles = workload::spec2006_profiles();
  std::size_t profile_index = 0;
  for (std::size_t s = 0; s < kServers; ++s) {
    std::vector<server::CpuCore> cores;
    for (std::size_t c = 0; c < spec.cores_per_server; ++c) {
      if (c < 6) {
        workload::InteractiveTraceConfig trace;
        trace.mean_utilization = 0.7;  // front-end rack runs hotter
        cores.emplace_back(spec.freq_min, spec.freq_max,
                           workload::InteractiveTraceGenerator(
                               trace, rng.split(), 17.0 * double(s)));
      } else {
        workload::BatchJob job(
            profiles[profile_index++ % profiles.size()],
            /*deadline_s=*/600.0, /*work_s=*/320.0,
            workload::CompletionMode::kRunOnce, rng.split());
        cores.emplace_back(spec.freq_min, spec.freq_max, std::move(job));
      }
    }
    servers.emplace_back(spec, std::move(cores), rng.split());
  }
  server::Rack rack(std::move(servers));

  // --- power path: 1.6 kW breaker @1.2x, 250 Wh UPS ------------------------
  core::SprintConfig sprint = core::paper_config();
  sprint.cb_rated_w = 1600.0;
  sprint.cb_overload_degree = 1.2;
  sprint.burst_duration_s = 720.0;  // 12-minute burst
  sprint.validate();

  power::PowerPath path(
      power::CircuitBreaker(sprint.cb_rated_w,
                            power::TripCurve::bulletin_1489a()),
      power::UpsBattery(250.0, /*max_discharge_w=*/2400.0),
      power::DischargeCircuit(2400.0, 200, 0.95));

  // --- controller and loop ---------------------------------------------------
  // Each tick: the rack realizes this interval's power, then the
  // controller reads it and writes the next frequencies and UPS command.
  core::SprintConController sprintcon(sprint, rack, path);
  sim::SimClock clock(1.0);

  std::cout << "minute  CB(W)  UPS(W)  SOC    state\n";
  for (int minute = 1; minute <= 12; ++minute) {
    while (clock.now_s() < 60.0 * minute) {
      rack.step(clock);
      sprintcon.step(clock);
      clock.advance();
    }
    std::cout.setf(std::ios::fixed);
    std::cout.precision(0);
    std::cout << minute << "\t" << path.last().cb_w << "\t"
              << path.last().ups_w << "\t";
    std::cout.precision(2);
    std::cout << path.battery().state_of_charge() << "  "
              << core::to_string(sprintcon.state()) << '\n';
  }

  std::size_t met = 0, total = 0;
  for (const auto& ref : rack.batch_cores()) {
    const auto& job = *rack.core(ref).job();
    ++total;
    if (job.completion_time_s() >= 0.0 &&
        job.completion_time_s() <= job.deadline_s())
      ++met;
  }
  std::cout << "\nbatch jobs meeting the 10-minute deadline: " << met << "/"
            << total << '\n'
            << "breaker trips: " << path.breaker().trip_count() << '\n'
            << "UPS energy used: " << path.battery().total_discharged_wh()
            << " Wh of " << path.battery().capacity_wh() << '\n';
  return 0;
}
