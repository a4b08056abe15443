// Facility dashboard: run a small data-center floor of sprinting racks and
// print the facility-level view an operator would watch — aggregate feed
// draw, per-rack safety, solver health, and the effect of staggered
// overload windows. Built on the structured observability layer: every
// number below comes out of the racks' obs::RunReport, and `--json FILE`
// dumps the same data for scripts/report_check.py.
//
//   ./build/examples/facility_dashboard --scenario FILE [--json FILE]
//                                       [--trace FILE] [--threads N]
//
// `--scenario FILE` (required) loads a declarative scenario
// (src/scenario/spec.hpp; see examples/scenarios/ for the named library)
// and runs exactly the facility it describes: fleet size, rack shape,
// policy, workload mix, surges, grid events, embedded faults, and whether
// the racks run the HealthMonitor (`fleet health=true`, DESIGN.md §8.5)
// and the recovery engine (`fleet recovery=true`, DESIGN.md §10). With
// either, the dashboard also prints each rack's active alerts, and with
// recovery the remediation actions, incidents resolved, MTTR and any rack
// the ladder had to quarantine; both views also land in the `--json`
// export. `--threads N` sets the worker count (0 = one per hardware
// thread), an execution resource that does not change the results.
//
// `--trace FILE` records the decision-path and shard-runtime spans and
// writes them as Chrome trace-event JSON: open FILE in
// https://ui.perfetto.dev (or chrome://tracing) to see where the wall
// clock went, per rack and per worker shard. scripts/check_trace.py
// validates the schema.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "obs/export.hpp"
#include "obs/health.hpp"
#include "recovery/recovery.hpp"
#include "scenario/facility.hpp"
#include "scenario/loader.hpp"

#ifndef SPRINTCON_GIT_COMMIT
#define SPRINTCON_GIT_COMMIT "unknown"
#endif
#ifndef SPRINTCON_BUILD_TYPE
#define SPRINTCON_BUILD_TYPE "unknown"
#endif

namespace {

/// {"alerts":N,"degraded":[...]} for one rack's health monitor.
std::string health_json(const sprintcon::obs::HealthMonitor& health) {
  std::string out = "{\"active_alerts\":" + std::to_string(
                        health.active_alerts());
  out += ",\"degraded\":[";
  bool first = true;
  for (const char* rule : health.degraded_rules()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += rule;
    out += '"';
  }
  out += "]}";
  return out;
}

/// {"actions":N,"incidents_resolved":N,...} for one rack's engine.
std::string recovery_json(const sprintcon::recovery::RecoveryManager& rec) {
  std::string out =
      "{\"actions\":" + std::to_string(rec.actions_taken());
  out += ",\"incidents_resolved\":" + std::to_string(rec.incidents_resolved());
  out += ",\"active_incidents\":" + std::to_string(rec.active_incidents());
  out += std::string(",\"quarantined\":") +
         (rec.quarantined() ? "true" : "false");
  out += ",\"last_mttr_s\":" + std::to_string(rec.last_mttr_s());
  out += "}";
  return out;
}

/// {"context":{...},"facility":{"metrics":...},"racks":[<report>,...]}.
/// The context block records build provenance (git commit, build type)
/// and run shape so an archived report is self-describing. When the racks
/// run a health monitor or the recovery engine, "health" and "recovery"
/// list one summary block per rack next to "racks".
std::string facility_json(sprintcon::scenario::Facility& facility,
                          const std::vector<sprintcon::obs::RunReport>& racks) {
  std::string out = "{\"context\":{\"git_commit\":\"" SPRINTCON_GIT_COMMIT
                    "\",\"build_type\":\"" SPRINTCON_BUILD_TYPE "\"";
  out += ",\"num_racks\":" + std::to_string(facility.num_racks());
  out += ",\"num_shards\":" + std::to_string(facility.num_shards());
  out += ",\"duration_s\":" +
         std::to_string(facility.rig(0).config().duration_s);
  out += "},\"facility\":{\"metrics\":";
  out += sprintcon::obs::metrics_to_json(facility.obs()->metrics().snapshot());
  if (facility.rig(0).recovery() != nullptr) {
    out += ",\"quarantined_racks\":[";
    bool first = true;
    for (const std::size_t r : facility.quarantined_racks()) {
      if (!first) out += ',';
      first = false;
      out += std::to_string(r);
    }
    out += "]";
  }
  out += "},\"racks\":[";
  for (std::size_t r = 0; r < racks.size(); ++r) {
    if (r > 0) out += ',';
    out += racks[r].to_json();
  }
  out += "]";
  if (facility.rig(0).health() != nullptr) {
    out += ",\"health\":[";
    for (std::size_t r = 0; r < facility.num_racks(); ++r) {
      if (r > 0) out += ',';
      out += health_json(*facility.rig(r).health());
    }
    out += "]";
  }
  if (facility.rig(0).recovery() != nullptr) {
    out += ",\"recovery\":[";
    for (std::size_t r = 0; r < facility.num_racks(); ++r) {
      if (r > 0) out += ',';
      out += recovery_json(*facility.rig(r).recovery());
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sprintcon;

  std::string json_path;
  std::string scenario_path;
  std::string trace_path;
  std::size_t threads = 0;  // 0 = one worker per hardware thread
  bool threads_set = false;
  // A flag without its value, a thread count that is not a number, any
  // other argument, or no scenario at all is a usage error.
  const auto is_number = [](const std::string& s) {
    return !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
  };
  bool usage_error = false;
  for (int i = 1; i < argc && !usage_error; ++i) {
    const std::string arg = argv[i];
    const bool takes_value = arg == "--json" || arg == "--scenario" ||
                             arg == "--trace" || arg == "--threads";
    if (!takes_value || i + 1 >= argc) {
      usage_error = true;
    } else if (arg == "--json") {
      json_path = argv[++i];
    } else if (arg == "--scenario") {
      scenario_path = argv[++i];
    } else if (arg == "--trace") {
      trace_path = argv[++i];
    } else {
      const std::string value = argv[++i];
      usage_error = !is_number(value);
      // Saturates on overflow; the facility caps workers at its racks.
      threads = std::strtoull(value.c_str(), nullptr, 10);
      threads_set = true;
    }
  }
  if (usage_error || scenario_path.empty()) {
    std::cerr << "usage: facility_dashboard --scenario FILE [--json FILE]"
                 " [--trace FILE] [--threads N]\n";
    return 1;
  }

  scenario::FacilityConfig config;
  try {
    const scenario::ScenarioSpec spec = scenario::load_scenario(scenario_path);
    config = scenario::compile(spec);
    std::cout << "scenario '" << spec.name << "' from " << scenario_path
              << ": " << config.num_racks << " racks, " << spec.duration_s
              << " s, " << spec.surges.size() << " surge(s), "
              << spec.grid_events.size() << " grid event(s), "
              << spec.faults.faults.size() << " scripted fault(s)\n";
  } catch (const std::exception& e) {
    std::cerr << "bad scenario: " << e.what() << "\n";
    return 1;
  }
  if (threads_set) config.run_threads = threads;
  config.observability = true;
  config.tracing = !trace_path.empty();
  std::cout << "running " << config.num_racks << " "
            << scenario::to_string(config.rack.policy) << " racks with "
            << (config.staggered ? "staggered" : "synchronized")
            << " overload windows...\n\n";
  scenario::Facility facility(config);
  facility.run();

  const std::vector<obs::RunReport> reports = facility.reports();

  Table rack_table({"rack", "offset (s)", "f_inter", "f_batch", "UPS Wh",
                    "DoD", "trips", "deadlines", "events"});
  for (std::size_t r = 0; r < reports.size(); ++r) {
    const metrics::RunSummary& s = reports[r].summary;
    rack_table.add_row(
        {std::to_string(r),
         format_fixed(facility.rig(r).config().sprint.schedule_offset_s, 0),
         format_fixed(s.avg_freq_interactive, 2),
         format_fixed(s.avg_freq_batch, 2),
         format_fixed(s.ups_discharged_wh, 0),
         format_percent(s.depth_of_discharge), std::to_string(s.cb_trips),
         s.all_deadlines_met ? "met" : "MISSED",
         std::to_string(reports[r].events.size())});
  }
  std::cout << rack_table.to_string();

  // Solver health, straight from the per-rack metric registries.
  std::cout << "\nsolver health (MPC over the run):\n";
  for (std::size_t r = 0; r < reports.size(); ++r) {
    const obs::MetricsSnapshot& m = reports[r].metrics;
    const std::uint64_t solves = m.counter("mpc.solves.structured");
    const auto per_solve = [solves](std::uint64_t count) {
      return format_fixed(solves > 0 ? static_cast<double>(count) /
                                           static_cast<double>(solves)
                                     : 0.0,
                          1);
    };
    const auto it = m.histograms.find("mpc.step_us");
    std::cout << "  rack " << r << ": " << solves << " solves, "
              << per_solve(m.counter("mpc.qp.direct_passes"))
              << " direct passes/solve, "
              << per_solve(m.counter("mpc.qp.iterations"))
              << " iters/solve, " << m.counter("mpc.qp.restarts")
              << " restarts";
    if (it != m.histograms.end() && it->second.count > 0) {
      std::cout << ", step p95 " << format_fixed(it->second.p95, 1) << " us";
    }
    std::cout << "\n";
  }

  // Fault timeline: which scripted fault fired when, per rack (covers both
  // the scenario's `fault` lines and its lowered grid events).
  if (!config.rack.faults.empty()) {
    std::cout << "\nfault timeline:\n";
    for (std::size_t r = 0; r < reports.size(); ++r) {
      for (const obs::Event& e : reports[r].events) {
        if (e.type != obs::EventType::kFaultInjected &&
            e.type != obs::EventType::kFaultCleared) {
          continue;
        }
        std::cout << "  rack " << r << " t=" << format_fixed(e.t_s, 0)
                  << "s " << obs::to_string(e.type) << " "
                  << (e.cause != nullptr ? e.cause : "?") << "\n";
      }
    }
  }

  // Active alerts (health monitor) and remediation (recovery engine).
  if (facility.rig(0).health() != nullptr) {
    std::cout << "\nhealth (active alerts at run end):\n";
    for (std::size_t r = 0; r < facility.num_racks(); ++r) {
      const obs::HealthMonitor* mon = facility.rig(r).health();
      std::cout << "  rack " << r << ": " << mon->active_alerts()
                << " active";
      for (const char* rule : mon->degraded_rules()) {
        std::cout << " [" << rule << "]";
      }
      std::cout << "\n";
    }
  }
  if (facility.rig(0).recovery() != nullptr) {
    std::cout << "\nrecovery (engine actions over the run):\n";
    for (std::size_t r = 0; r < facility.num_racks(); ++r) {
      const recovery::RecoveryManager* rec = facility.rig(r).recovery();
      std::cout << "  rack " << r << ": " << rec->actions_taken()
                << " actions, " << rec->incidents_resolved()
                << " incidents resolved, " << rec->active_incidents()
                << " open";
      if (rec->last_mttr_s() >= 0.0) {
        std::cout << ", last MTTR " << format_fixed(rec->last_mttr_s(), 0)
                  << " s";
      }
      if (rec->quarantined()) std::cout << ", QUARANTINED";
      std::cout << "\n";
    }
    const std::vector<std::size_t> quarantined = facility.quarantined_racks();
    if (!quarantined.empty()) {
      std::cout << "  quarantined racks:";
      for (const std::size_t r : quarantined) std::cout << " " << r;
      std::cout << " (interactive load re-routed to survivors)\n";
    }
  }

  const obs::MetricsSnapshot fac = facility.obs()->metrics().snapshot();
  std::cout << "shards: " << format_fixed(fac.gauge("facility.shards"), 0)
            << " workers, " << fac.counter("facility.epochs")
            << " epochs, run " << format_fixed(fac.gauge("facility.run_s"), 2)
            << " s\n";

  const TimeSeries cb = facility.facility_cb_power();
  const TimeSeries total = facility.facility_total_power();
  std::cout << "\nfacility feed (sum over racks):\n"
            << "  CB draw:   mean " << format_fixed(cb.mean() / 1000.0, 2)
            << " kW, peak " << format_fixed(cb.max() / 1000.0, 2)
            << " kW (peak/mean "
            << format_fixed(facility.cb_peak_to_mean(), 3) << ")\n"
            << "  total:     mean " << format_fixed(total.mean() / 1000.0, 2)
            << " kW, peak " << format_fixed(total.max() / 1000.0, 2)
            << " kW\n\n"
            << (config.staggered
                    ? "staggering keeps the facility feed nearly flat; re-run\n"
                      "with `fleet staggered=false` in the scenario to see the\n"
                      "synchronized square wave"
                    : "synchronized windows add up to a square wave; re-run\n"
                      "with `fleet staggered=true` in the scenario to flatten\n"
                      "the feed")
            << " (or see bench/ablation_stagger).\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot open " << json_path << " for writing\n";
      return 1;
    }
    out << facility_json(facility, reports) << "\n";
    std::cout << "\nwrote structured report to " << json_path << "\n";
  }

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "cannot open " << trace_path << " for writing\n";
      return 1;
    }
    facility.tracer()->write_chrome_trace(out);
    std::cout << "\nwrote " << facility.tracer()->total_events()
              << " trace events (" << facility.tracer()->num_buffers()
              << " tracks, " << facility.tracer()->total_dropped()
              << " dropped) to " << trace_path
              << "\n  open in https://ui.perfetto.dev or chrome://tracing\n";
  }
  return 0;
}
