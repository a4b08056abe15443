// Trace replay: drive the interactive cores from a recorded utilization
// trace instead of the synthetic generator.
//
// The example synthesizes a "recorded" trace (in practice you would export
// one from your monitoring stack), round-trips it through the CSV writer
// and the trace_io reader in memory (no file is written), and runs a
// SprintCon-controlled rack whose interactive cores replay it. Usage:
//
//   ./build/examples/trace_replay [trace.csv]
//   ./build/examples/trace_replay tests/cli_fixtures/replay-trace.csv
//
// With a csv argument, the file is loaded instead of the synthesized
// trace (one value column, or time_s,value rows); an unreadable or
// malformed file is a usage error. To replay a whole described facility,
// faults included, run `facility_dashboard --scenario FILE`.
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
    std::cerr << "usage: trace_replay [trace.csv]\n";
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

  // --- build a rack whose interactive cores replay the trace -----------------
  const server::PlatformSpec spec = server::paper_platform();
  Rng rng(2025);
  std::vector<server::Server> servers;
  const auto profiles = workload::spec2006_profiles();
  std::size_t pi = 0;
  for (std::size_t s = 0; s < 8; ++s) {
    std::vector<server::CpuCore> cores;
    for (std::size_t c = 0; c < spec.cores_per_server; ++c) {
      if (c < 4) {
        // Stagger each core's start offset so they do not move in lockstep.
        const double offset =
            static_cast<double>(s * 11 + c * 3) * trace.dt_s;
        cores.emplace_back(spec.freq_min, spec.freq_max,
                           workload::ReplayUtilization(
                               trace, /*scale=*/1.0, /*loop=*/true, offset));
      } else {
        cores.emplace_back(spec.freq_min, spec.freq_max,
                           workload::BatchJob(
                               profiles[pi++ % profiles.size()], 720.0, 300.0,
                               workload::CompletionMode::kRepeat, rng.split()));
      }
    }
    servers.emplace_back(spec, std::move(cores), rng.split());
  }
  server::Rack rack(std::move(servers));

  core::SprintConfig sprint = core::paper_config();
  sprint.cb_rated_w = 8.0 * 300.0 * (2.0 / 3.0);  // 1.6 kW for 8 servers
  power::PowerPath path(
      power::CircuitBreaker(sprint.cb_rated_w,
                            power::TripCurve::bulletin_1489a()),
      power::UpsBattery(200.0, 2400.0),
      power::DischargeCircuit(2400.0, 200, 0.95));
  core::SprintConController sprintcon(sprint, rack, path);

  // scenario::Rig::step's stage order, by hand, for a rig without faults.
  sim::SimClock clock(1.0);
  while (clock.now_s() < 900.0) {
    rack.step(clock);
    sprintcon.step(clock);
    clock.advance();
  }

  std::cout << "\nafter a 15-minute sprint on the replayed trace:\n"
            << "  breaker trips:        " << path.breaker().trip_count()
            << "\n  UPS energy used:      "
            << path.battery().total_discharged_wh() << " Wh\n"
            << "  mean interactive util "
            << [&rack] {
                 double u = 0.0;
                 std::size_t n = 0;
                 for (const auto& s : rack.servers())
                   for (const auto& c : s.cores())
                     if (!c.is_batch()) {
                       u += c.utilization();
                       ++n;
                     }
                 return u / static_cast<double>(n);
               }()
            << "\n  sprint state:         " << core::to_string(sprintcon.state())
            << "\n";
  return 0;
}
