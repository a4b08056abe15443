// google-benchmark microbenchmarks: controller and simulator kernels.
//
// A developer tool, compared by hand: the MPC solve that runs every 2 s on
// a rack controller, the same solve with observability on, one simulated
// tick of a canonical rig, and one health check of a rig's default rules.
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

control::MpcProblem mpc_bench_problem(std::size_t n) {
  control::MpcProblem p;
  p.gains_w_per_f.assign(n, 20.0);
  p.freq_current.assign(n, 0.5);
  p.freq_min.assign(n, 0.2);
  p.freq_max.assign(n, 1.0);
  p.penalty_weights.assign(n, 4.0);
  p.power_feedback_w = 20.0 * 0.5 * static_cast<double>(n);
  p.power_target_w = p.power_feedback_w * 1.3;
  return p;
}

// Structured operator: O(n Lc) per solver iteration. n is the batch-core
// count of one rack: 8 for a small-rig-fleet rig (2 servers x 4), 64 for a
// paper-racks rack (16 x 4). Observability is left detached here; compare
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
