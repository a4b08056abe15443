// google-benchmark microbenchmarks: controller and simulator kernels.
//
// A developer tool, compared by hand: the MPC solve that runs every 2 s on
// a rack controller, the same solve with observability on, one simulated
// tick of a canonical rig, and one health check of a rig's default rules.
// The MPC rows solve the problem shapes the workloads send: 64 batch cores
// in 8 profile classes (cycling over core i % 8, with distinct gains,
// penalty weights and bounds per class) and 8 all-distinct cores.
// All rows time wall clock. The repo's perf record is perfbench
// (perfbench/README.md), which measures whole fleets end to end and layer
// by layer; these rows have no committed baseline.
#include <benchmark/benchmark.h>

#include <string>

#include "control/mpc.hpp"
#include "obs/sink.hpp"
#include "scenario/rig.hpp"

namespace {

using namespace sprintcon;

// The MPC problems the workloads send. A paper rack's batch cores run the
// 8 SPEC profiles in turn (core i runs profile i % 8), and cores running
// one profile stay in lockstep, so their gains, penalty weights and bounds
// are bitwise equal: the 64-core problem has 8 classes of 8 coordinates,
// and a small rig's 8 cores are 8 distinct coordinates.
control::MpcProblem mpc_bench_problem(std::size_t n) {
  control::MpcProblem p;
  for (std::size_t i = 0; i < n; ++i) {
    const auto profile = static_cast<double>(i % 8);
    p.gains_w_per_f.push_back(20.0 + profile);
    p.freq_current.push_back(0.5);
    p.freq_min.push_back(0.2 + 0.01 * profile);
    p.freq_max.push_back(1.0 - 0.02 * profile);
    p.penalty_weights.push_back(1.0 + 0.5 * profile);
    p.power_feedback_w += p.gains_w_per_f.back() * 0.5;
  }
  p.power_target_w = p.power_feedback_w * 1.3;
  return p;
}

// Structured operator: O(n Lc) per solver iteration. n is the batch-core
// count of one rack: 8 for a small-rig-fleet rig (2 servers x 4, every
// coordinate its own class), 64 for a paper-racks rack (16 x 4, 8
// classes). Observability is left detached here; compare
// BM_MpcStepObserved by hand for the cost of a live ObsSink.
void BM_MpcStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  control::MpcConfig cfg;
  cfg.prediction_horizon = 8;
  cfg.control_horizon = 2;
  control::MpcPowerController mpc(cfg);
  const control::MpcProblem p = mpc_bench_problem(n);
  control::MpcOutput out;
  for (auto _ : state) {
    mpc.step(p, out);
    benchmark::DoNotOptimize(out.freq_next.data());
  }
  state.SetLabel(std::to_string(n) + " cores");
}
BENCHMARK(BM_MpcStep)->Arg(8)->Arg(64)->UseRealTime();

// Same solve with a live ObsSink attached: counters + exit-residual and
// wall-time histograms per step. The delta versus BM_MpcStep is the
// enabled-mode observability overhead recorded in DESIGN.md.
void BM_MpcStepObserved(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  control::MpcConfig cfg;
  cfg.prediction_horizon = 8;
  cfg.control_horizon = 2;
  control::MpcPowerController mpc(cfg);
  obs::ObsSink sink;
  mpc.set_obs(&sink);
  const control::MpcProblem p = mpc_bench_problem(n);
  control::MpcOutput out;
  for (auto _ : state) {
    mpc.step(p, out);
    benchmark::DoNotOptimize(out.freq_next.data());
  }
  const obs::MetricsSnapshot snap = sink.metrics().snapshot();
  const double solves =
      static_cast<double>(snap.counter("mpc.solves.structured"));
  if (solves > 0) {
    state.counters["qp_iterations_per_solve"] = benchmark::Counter(
        static_cast<double>(snap.counter("mpc.qp.iterations")) / solves);
    state.counters["qp_restarts_per_solve"] = benchmark::Counter(
        static_cast<double>(snap.counter("mpc.qp.restarts")) / solves);
  }
  state.SetLabel(std::to_string(n) + " cores, obs on");
}
BENCHMARK(BM_MpcStepObserved)->Arg(8)->Arg(64)->UseRealTime();

void BM_RigTick(benchmark::State& state) {
  scenario::RigConfig config;
  config.duration_s = 1e9;  // never self-terminates; we drive ticks
  scenario::Rig rig(config);
  for (auto _ : state) {
    rig.simulation().step_once();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("16 servers / 128 cores per simulated second");
}
BENCHMARK(BM_RigTick)->UseRealTime();

// One HealthMonitor::check() of a warmed-up rig's default six rules with
// request queues on (the surge-brownout shape), at the state a 15-minute
// fault-free run ends in. Each surge-brownout rack runs it every 5 s of
// simulated time.
void BM_HealthCheck(benchmark::State& state) {
  scenario::RigConfig config;
  config.health = true;
  config.use_request_queues = true;
  scenario::Rig rig(config);
  rig.run();
  obs::HealthMonitor& monitor = *rig.health();
  for (auto _ : state) monitor.check(config.duration_s);
  state.SetLabel("6 rules");
}
BENCHMARK(BM_HealthCheck)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
