// The canonical evaluation rig (Section VI-A of the paper).
//
// Builds the complete experiment — 16 servers x 8 cores (half interactive,
// half batch), Wikipedia-like interactive traces, SPEC-like batch jobs
// with deadlines, 3.2 kW breaker at 1.25x overload, 400 Wh UPS — runs it
// for 15 minutes under a chosen sprinting policy, and extracts the metrics
// and trace channels every figure of the paper is built from.
//
// Each tick runs one fixed stage order (Rig::step). The recorded channels
// (one sample per tick) are listed once, in rig.cpp's rig_channels(), and
// Rig::fill_row writes them in that order; recorder().channel_names()
// gives the list for a built rig.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/power_cap.hpp"
#include "baselines/sgct.hpp"
#include "core/sprintcon.hpp"
#include "fault/fault.hpp"
#include "metrics/summary.hpp"
#include "obs/export.hpp"
#include "obs/health.hpp"
#include "obs/sink.hpp"
#include "power/hybrid_store.hpp"
#include "power/power_path.hpp"
#include "recovery/recovery.hpp"
#include "workload/request_queue.hpp"
#include "server/rack.hpp"
#include "sim/simulation.hpp"
#include "workload/interactive.hpp"

namespace sprintcon::fault {
class FaultInjector;
}

namespace sprintcon::scenario {

/// Which controller drives the sprint.
enum class Policy {
  kSprintCon,
  kSgct,
  kSgctV1,
  kSgctV2,
  /// Classic power capping to the rated CB (no sprinting at all) — the
  /// reference point that quantifies what sprinting buys.
  kPowerCap,
};

const char* to_string(Policy policy) noexcept;

/// Full description of one experiment run.
struct RigConfig {
  Policy policy = Policy::kSprintCon;
  std::size_t num_servers = 16;
  std::size_t interactive_cores_per_server = 4;  ///< rest run batch
  /// The paper supports both layouts (Section IV-C): colocated (default —
  /// every server mixes interactive and batch cores) or dedicated (the
  /// first half of the servers run interactive only, the rest batch only;
  /// interactive_cores_per_server is ignored). The controller never needs
  /// to know which, thanks to the Eq. 6 power attribution.
  bool dedicated_servers = false;
  double dt_s = 1.0;
  double duration_s = 900.0;           ///< 15-minute sprint
  double batch_deadline_s = 720.0;     ///< 12 minutes (Fig. 8 sweeps this)
  /// Scale on the profiles' nominal work so the deadline sweep stays
  /// feasible for every policy — including deadline-blind baselines whose
  /// utilization-ordered sprinting can leave the most memory-bound jobs
  /// at the normal frequency (see DESIGN.md calibration notes).
  double batch_work_scale = 0.65;
  double ups_capacity_wh = 400.0;      ///< 5 min at max rack power
  /// Optional supercapacitor in a hybrid store (after [24]); 0 disables.
  /// When > 0, the UPS becomes a HybridStore: the battery serves the
  /// sustained discharge, the supercap the transients.
  double supercap_wh = 0.0;
  core::SprintConfig sprint;           ///< paper_config() by default
  workload::InteractiveTraceConfig interactive;
  /// Drive interactive cores with closed-loop request queues instead of
  /// the open-loop utilization trace: throttled cores then build backlog
  /// and measured response times (see workload/request_queue.hpp). The
  /// `interactive` config above shapes the offered load either way.
  bool use_request_queues = false;
  std::uint64_t seed = 42;
  /// Scripted fault schedule (empty = no injector built). See
  /// fault/fault.hpp for the `fault` line grammar and DESIGN.md §9 for the
  /// taxonomy. Faults perturb the rig; the safety invariants must hold
  /// regardless (tests/fault_test.cpp).
  fault::FaultPlan faults;
  /// Seed for the injector's own RNG, independent of the workload seeds
  /// so fault scenarios can be varied without changing the load.
  std::uint64_t fault_seed = 1729;
  /// Attach an ObsSink to the rig: structured events from the safety
  /// monitor / allocator / UPS loop / breaker plus MPC solver metrics,
  /// exported through report(). Off by default — the sink costs one
  /// branch per emit site when absent.
  bool observability = false;
  /// SLO-grade health monitoring (implies observability): a HealthMonitor
  /// with the default rule set (DESIGN.md §8.5) runs every 5 s of sim
  /// time (rig.cpp's kHealthPeriodS) and emits health_degraded /
  /// health_recovered events. Reads metrics, writes events — never
  /// touches physics, so recorded traces stay bit-identical.
  bool health = false;
  /// Closed-loop recovery (implies health, requires Policy::kSprintCon):
  /// a RecoveryManager polls right after every health check and drives
  /// recovery::Playbook::defaults()'s escalation ladders against the
  /// controller — re-issue commands, fall back MPC -> PID -> conservative
  /// cap, quarantine the rig — with hysteretic de-escalation and MTTR
  /// accounting (DESIGN.md §10). Like health, it reads metrics and
  /// commands the controller at check boundaries only, so runs stay
  /// deterministic.
  bool recovery = false;

  RigConfig();
  void validate() const;
};

/// Owns every component of one experiment and runs it to completion.
class Rig {
 public:
  explicit Rig(const RigConfig& config);
  ~Rig();

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Run the whole sprint (idempotent: subsequent calls are no-ops).
  void run();
  /// Advance partially (for tests that inspect mid-run state).
  void run_until(double t_s);

  /// One tick, in the paper's fixed stage order (§VI-A): rack, fault
  /// injector, policy controller, the injector's actuator stage, clock
  /// advance, recorder sample, then (with obs on) the tick metrics and,
  /// every kHealthPeriodS (5 s), the health check and the recovery poll.
  /// simulation().step_once() runs it.
  void step();

  const RigConfig& config() const noexcept { return config_; }
  sim::Simulation& simulation() noexcept { return *sim_; }
  const sim::TraceRecorder& recorder() const { return sim_->recorder(); }
  server::Rack& rack() noexcept { return *rack_; }
  power::PowerPath& power_path() noexcept { return *path_; }
  /// Controller access (null unless the matching policy is active).
  core::SprintConController* sprintcon() noexcept { return sprintcon_.get(); }
  baselines::SgctController* sgct() noexcept { return sgct_.get(); }
  baselines::PowerCapController* power_cap() noexcept { return cap_.get(); }
  /// Fault injector (null unless config.faults is non-empty).
  fault::FaultInjector* fault_injector() noexcept { return injector_.get(); }

  /// Metrics over everything recorded so far.
  metrics::RunSummary summary() const;

  /// Observability sink; null unless config.observability (or health) set.
  obs::ObsSink* obs() noexcept { return obs_.get(); }
  const obs::ObsSink* obs() const noexcept { return obs_.get(); }

  /// Health monitor; null unless config.health (or recovery) is set.
  /// Tests may add scenario-specific rules before run().
  obs::HealthMonitor* health() noexcept { return health_.get(); }
  const obs::HealthMonitor* health() const noexcept { return health_.get(); }

  /// Recovery engine; null unless config.recovery is set.
  recovery::RecoveryManager* recovery() noexcept { return recovery_.get(); }
  const recovery::RecoveryManager* recovery() const noexcept {
    return recovery_.get();
  }

  /// Full structured report: summary + metrics snapshot + event timeline.
  /// Requires config.observability (throws InvalidStateError otherwise).
  obs::RunReport report() const;

  /// Request-queue sources when use_request_queues is set (the cores own
  /// them; pointers stay valid for the rig's lifetime). Empty otherwise.
  /// Non-const so the facility's re-route coordinator (and the rig's own
  /// quarantine shed) can scale the offered load.
  const std::vector<workload::RequestQueueSource*>& request_queues()
      const noexcept {
    return queues_;
  }

 private:
  RigConfig config_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<server::Rack> rack_;
  std::unique_ptr<power::PowerPath> path_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<core::SprintConController> sprintcon_;
  std::unique_ptr<baselines::SgctController> sgct_;
  std::unique_ptr<baselines::PowerCapController> cap_;
  std::vector<workload::RequestQueueSource*> queues_;
  std::unique_ptr<obs::ObsSink> obs_;
  std::unique_ptr<obs::HealthMonitor> health_;
  std::unique_ptr<recovery::RecoveryTarget> recovery_target_;
  std::unique_ptr<recovery::RecoveryManager> recovery_;
  /// The store as a HybridStore, or null: the wear analysis wants the
  /// battery's own SOC, and the store type is fixed at construction.
  const power::HybridStore* hybrid_ = nullptr;
  /// Metric handles for the per-tick gauges, each looked up (registering
  /// its metric) on the first tick that uses it.
  struct TickMetrics {
    obs::WindowedHistogram* response_ms = nullptr;
    obs::Gauge* cmd_freq = nullptr;
    obs::Gauge* capacity_wh = nullptr;
    obs::Gauge* batch_freq = nullptr;
    obs::Gauge* divergence = nullptr;
    std::vector<const server::CpuCore*> batch_cores;  ///< batch_cores() order
  };
  TickMetrics tick_metrics_;
  bool ran_ = false;

  /// Writes this tick's row, in rig_channels() order.
  void fill_row(double* row) const;
  void record_tick_metrics();
  /// Mean response time over the request queues (non-empty), in s.
  double mean_response_s() const;
};

/// Convenience: build, run, summarize.
metrics::RunSummary run_policy(const RigConfig& config);

}  // namespace sprintcon::scenario
