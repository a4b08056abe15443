// Custom rack: build a non-default deployment directly from the library's
// building blocks (no scenario::Rig), wire up SprintCon, and drive the
// simulation loop by hand.
//
// The deployment here: 8 servers, 6 interactive + 2 batch cores each
// (an interactive-heavy front-end rack), a smaller 250 Wh UPS, and a
// breaker allowed to overload to 1.2x. The interactive cores replay a
// recorded utilization trace instead of the synthetic generator:
//
//   ./build/examples/custom_rack [trace.csv]
//   ./build/examples/custom_rack tests/cli_fixtures/replay-trace.csv
//
// Without an argument the example synthesizes a "recorded" trace (in
// practice you would export one from your monitoring stack) and
// round-trips it through the CSV writer and the trace_io reader in memory
// (no file is written). With a csv argument, the file is loaded instead
// (one value column, or time_s,value rows); an unreadable or malformed
// file is a usage error. To run a whole described facility, faults
// included, run `facility_dashboard --scenario FILE`.
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/sprintcon.hpp"
#include "sim/clock.hpp"
#include "workload/batch_profile.hpp"
#include "workload/trace_io.hpp"

int main(int argc, char** argv) {
  using namespace sprintcon;

  // A flag, more than one argument, or a csv that cannot be read as a
  // trace is a usage error.
  const auto usage = [](const std::string& why) {
    if (!why.empty()) std::cerr << why << "\n";
    std::cerr << "usage: custom_rack [trace.csv]\n";
    return 1;
  };
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) return usage("");

  // --- obtain a trace ---------------------------------------------------------
  workload::RecordedTrace trace;
  if (argc == 2) {
    const std::string csv_path = argv[1];
    try {
      trace = workload::read_trace_csv_file(csv_path);
    } catch (const std::exception& e) {
      return usage(e.what());
    }
    std::cout << "loaded " << trace.samples.size() << " samples (dt="
              << trace.dt_s << " s) from " << csv_path << "\n";
  } else {
    // Synthesize a 15-minute request-rate trace with a pronounced burst in
    // the middle — the kind of shape a Wikipedia frontend records.
    Rng rng(7);
    trace.dt_s = 5.0;
    for (int i = 0; i < 180; ++i) {
      const double t = static_cast<double>(i) / 180.0;
      const double burst = t > 0.3 && t < 0.8 ? 0.35 : 0.0;
      trace.samples.push_back(0.35 + burst + rng.normal(0.0, 0.05));
    }
    // Round-trip it through the CSV format in memory, as an exported
    // trace would arrive.
    std::stringstream csv;
    workload::write_trace_csv(csv, trace);
    trace = workload::read_trace_csv(csv, trace.dt_s);
    std::cout << "synthesized a demo trace (" << trace.samples.size()
              << " samples through CSV; mean utilization " << trace.mean()
              << ")\n";
  }

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
        // Stagger each core's start offset so they do not move in lockstep.
        const double offset =
            static_cast<double>(s * 11 + c * 3) * trace.dt_s;
        cores.emplace_back(spec.freq_min, spec.freq_max,
                           workload::ReplayUtilization(
                               trace, /*scale=*/1.0, /*loop=*/true, offset));
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

  std::cout << "\nminute  CB(W)  UPS(W)  SOC    state\n";
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
