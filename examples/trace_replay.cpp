// Trace replay: drive the interactive cores from a recorded utilization
// trace instead of the synthetic generator.
//
// The example synthesizes a "recorded" trace (in practice you would export
// one from your monitoring stack), writes it to CSV, loads it back through
// the trace_io reader, and runs a SprintCon-controlled rack whose
// interactive cores replay it. Usage:
//
//   ./build/examples/trace_replay [trace.csv] [--faults PLAN]
//                                 [--scenario FILE]
//
// With a csv argument, the file is loaded instead of the synthesized
// trace (one value column, or time_s,value rows). `--faults PLAN` loads
// a fault plan (src/fault/fault.hpp) and replays the trace under it —
// handy for reproducing a production incident against a recorded load.
//
// `--scenario FILE` replays one rack of a declarative scenario
// (src/scenario/spec.hpp, examples/scenarios/): the rack shape, workload,
// surges, grid events and faults all come from the file, so it cannot be
// combined with a csv trace or `--faults`. Useful for debugging a single
// rack of a scenario without spinning up the whole facility_dashboard.
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "core/sprintcon.hpp"
#include "fault/injector.hpp"
#include "scenario/loader.hpp"
#include "scenario/rig.hpp"
#include "sim/clock.hpp"
#include "workload/batch_profile.hpp"
#include "workload/trace_io.hpp"

namespace {

/// One-rack replay of a scenario file: compile, run rack 0, summarize.
int replay_scenario(const std::string& path) {
  using namespace sprintcon;
  scenario::FacilityConfig config;
  try {
    const scenario::ScenarioSpec spec = scenario::load_scenario(path);
    config = scenario::compile(spec);
    std::cout << "replaying rack 0 of scenario '" << spec.name << "' ("
              << spec.duration_s << " s, " << spec.faults.faults.size()
              << " fault(s), " << spec.grid_events.size()
              << " grid event(s))\n";
  } catch (const std::exception& e) {
    std::cerr << "bad scenario: " << e.what() << "\n";
    return 1;
  }
  scenario::Rig rig(config.rack);
  rig.run();
  const metrics::RunSummary s = rig.summary();
  std::cout << "\nafter the scenario on one rack:\n"
            << "  breaker trips:        " << s.cb_trips
            << "\n  UPS energy used:      " << s.ups_discharged_wh << " Wh"
            << "\n  depth of discharge:   " << s.depth_of_discharge
            << "\n  mean interactive f:   " << s.avg_freq_interactive
            << "\n  mean batch f:         " << s.avg_freq_batch
            << "\n  deadlines:            "
            << (s.all_deadlines_met ? "met" : "MISSED") << "\n";
  if (rig.fault_injector() != nullptr) {
    std::cout << "  fault activations:    "
              << rig.fault_injector()->activations() << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sprintcon;

  std::string csv_path;
  std::string faults_path;
  std::string scenario_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--faults" && i + 1 < argc) {
      faults_path = argv[++i];
    } else if (arg == "--scenario" && i + 1 < argc) {
      scenario_path = argv[++i];
    } else {
      csv_path = arg;
    }
  }
  if (!scenario_path.empty()) {
    if (!faults_path.empty() || !csv_path.empty()) {
      std::cerr << "--scenario describes the whole run; it cannot be"
                   " combined with --faults or a csv trace\n";
      return 1;
    }
    return replay_scenario(scenario_path);
  }

  fault::FaultPlan plan;
  if (!faults_path.empty()) {
    try {
      plan = fault::FaultPlan::load(faults_path);
    } catch (const std::exception& e) {
      std::cerr << "bad fault plan " << faults_path << ": " << e.what()
                << "\n";
      return 1;
    }
    std::cout << "replaying under " << plan.faults.size()
              << " scripted fault(s) from " << faults_path << "\n";
  }

  // --- obtain a trace ---------------------------------------------------------
  workload::RecordedTrace trace;
  if (!csv_path.empty()) {
    trace = workload::read_trace_csv_file(csv_path.c_str());
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
    std::ostringstream csv;
    workload::write_trace_csv(csv, trace);
    std::ofstream("replay_trace.csv") << csv.str();
    std::cout << "synthesized a demo trace (also written to "
                 "replay_trace.csv; mean utilization "
              << trace.mean() << ")\n";
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

  std::unique_ptr<fault::FaultInjector> injector;
  if (!plan.empty()) {
    injector = std::make_unique<fault::FaultInjector>(plan, /*seed=*/1729,
                                                      rack, path);
    sprintcon.set_fault(injector.get());
  }
  // The rig's stage order, by hand: the injector sees this tick's true
  // power before the controller reads the meter, and its actuator stage
  // overwrites the controller's frequency writes.
  sim::SimClock clock(1.0);
  while (clock.now_s() < 900.0) {
    rack.step(clock);
    if (injector) injector->step(clock);
    sprintcon.step(clock);
    if (injector) injector->post_tick(clock);
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
  if (injector) {
    std::cout << "  fault activations:    " << injector->activations() << "\n";
  }
  return 0;
}
