// google-benchmark microbenchmarks: controller and simulator kernels.
//
// These quantify the runtime cost of the control stack itself — the MPC
// solve that would run every 2 s on a rack controller, the eigenvalue
// analysis, and full simulation throughput.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "control/eigen.hpp"
#include "control/mpc.hpp"
#include "control/qp.hpp"
#include "scenario/facility.hpp"
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

// Structured operator: O(n Lc) per solver iteration. Observability is left
// detached here, so this also proves the disabled ObsSink costs one branch
// per emit site (compare BM_MpcStepObserved).
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
BENCHMARK(BM_MpcStep)->Arg(8)->Arg(64)->Arg(128)->Arg(256);

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
BENCHMARK(BM_MpcStepObserved)->Arg(8)->Arg(256);

void BM_BoxQpSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  control::Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
  control::BoxQp qp;
  qp.hessian = a.transposed() * a;
  for (std::size_t i = 0; i < n; ++i) qp.hessian(i, i) += 1.0;
  qp.gradient.assign(n, -1.0);
  qp.lower.assign(n, 0.0);
  qp.upper.assign(n, 1.0);
  const control::Vector x0(n, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(control::solve_box_qp(qp, x0));
  }
}
BENCHMARK(BM_BoxQpSolve)->Arg(16)->Arg(64)->Arg(128);

void BM_Eigenvalues(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  control::Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(control::eigenvalues(a));
  }
}
BENCHMARK(BM_Eigenvalues)->Arg(8)->Arg(32)->Arg(64);

// Facility throughput: whole short sprints across 1/4/16 racks, run by the
// facility thread pool (one worker per hardware thread). Construction is
// included — the facility cannot be re-run — but the simulation dominates.
void BM_FacilityRun(benchmark::State& state) {
  const auto racks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    scenario::FacilityConfig cfg;
    cfg.num_racks = racks;
    cfg.rack.num_servers = 2;
    cfg.rack.sprint.cb_rated_w = 2.0 * 300.0 * (2.0 / 3.0);
    cfg.rack.ups_capacity_wh = 50.0;
    cfg.rack.duration_s = 60.0;
    scenario::Facility facility(cfg);
    facility.run();
    benchmark::DoNotOptimize(facility.rig(0).recorder());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(racks));
  state.SetLabel(std::to_string(racks) + " racks x 60 s");
}
BENCHMARK(BM_FacilityRun)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Same workload forced sequential, for the scaling comparison.
void BM_FacilityRunSequential(benchmark::State& state) {
  const auto racks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    scenario::FacilityConfig cfg;
    cfg.num_racks = racks;
    cfg.run_threads = 1;
    cfg.rack.num_servers = 2;
    cfg.rack.sprint.cb_rated_w = 2.0 * 300.0 * (2.0 / 3.0);
    cfg.rack.ups_capacity_wh = 50.0;
    cfg.rack.duration_s = 60.0;
    scenario::Facility facility(cfg);
    facility.run();
    benchmark::DoNotOptimize(facility.rig(0).recorder());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(racks));
  state.SetLabel(std::to_string(racks) + " racks x 60 s");
}
BENCHMARK(BM_FacilityRunSequential)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Fleet-scale sharded scaling: aggregate simulated-tick throughput over
// many small rigs (2 servers / 16 cores each, 30 simulated seconds at
// 1 s ticks, one allocator epoch every 10 s). Arg0 = rigs, Arg1 = worker
// shards (0 = one per hardware thread). Construction happens outside the
// timed region — items/s is pure simulation throughput, in aggregate
// rig-ticks per second. Compare threads=1 vs threads=0 rows for the
// parallel speedup; on a single-core host they coincide.
void BM_FacilityScaling(benchmark::State& state) {
  const auto rigs = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  scenario::FacilityConfig cfg;
  cfg.num_racks = rigs;
  cfg.run_threads = threads;
  cfg.epoch_s = 10.0;
  cfg.rack.num_servers = 2;
  cfg.rack.sprint.cb_rated_w = 2.0 * 300.0 * (2.0 / 3.0);
  cfg.rack.ups_capacity_wh = 50.0;
  cfg.rack.duration_s = 30.0;
  const auto ticks_per_rig = static_cast<std::int64_t>(
      cfg.rack.duration_s / cfg.rack.dt_s);
  std::size_t shards = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto facility = std::make_unique<scenario::Facility>(cfg);
    shards = facility->num_shards();
    state.ResumeTiming();
    facility->run();
    benchmark::DoNotOptimize(facility->rig(0).recorder());
    state.PauseTiming();
    facility.reset();  // destruction off the clock too
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rigs) * ticks_per_rig);
  state.counters["rigs"] =
      benchmark::Counter(static_cast<double>(rigs));
  state.counters["shards"] =
      benchmark::Counter(static_cast<double>(shards));
  state.SetLabel(std::to_string(rigs) + " rigs x 30 s, " +
                 std::to_string(shards) + " shards");
}
BENCHMARK(BM_FacilityScaling)
    ->Args({16, 1})
    ->Args({16, 0})
    ->Args({100, 1})
    ->Args({100, 0})
    ->Args({1000, 1})
    ->Args({1000, 0})
    ->Args({10000, 0})
    ->Unit(benchmark::kMillisecond);

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
BENCHMARK(BM_RigTick);

}  // namespace

BENCHMARK_MAIN();
