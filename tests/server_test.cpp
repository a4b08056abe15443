// Tests for the server substrate: platform calibration, power models,
// fans, cores, servers, rack aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <variant>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "server/rack.hpp"
#include "sim/clock.hpp"
#include "workload/batch_profile.hpp"
#include "workload/queueing.hpp"
#include "workload/request_queue.hpp"
#include "workload/trace_io.hpp"

namespace sprintcon::server {
namespace {

using workload::BatchJob;
using workload::CompletionMode;
using workload::InteractiveTraceConfig;
using workload::InteractiveTraceGenerator;

CpuCore make_interactive(const PlatformSpec& spec, std::uint64_t seed = 1) {
  return CpuCore(spec.freq_min, spec.freq_max,
                 InteractiveTraceGenerator(InteractiveTraceConfig{}, Rng(seed)));
}

CpuCore make_batch(const PlatformSpec& spec, std::uint64_t seed = 2,
                   double work_s = 300.0) {
  BatchJob job(
      workload::spec2006_profile("401.bzip2"), /*deadline_s=*/720.0, work_s,
      CompletionMode::kRunOnce, Rng(seed));
  return CpuCore(spec.freq_min, spec.freq_max, std::move(job));
}

Server make_server(const PlatformSpec& spec, std::size_t interactive = 4) {
  std::vector<CpuCore> cores;
  for (std::size_t c = 0; c < spec.cores_per_server; ++c) {
    if (c < interactive) {
      cores.push_back(make_interactive(spec, 10 + c));
    } else {
      cores.push_back(make_batch(spec, 20 + c));
    }
  }
  return Server(spec, std::move(cores), Rng(77));
}

// --- platform ----------------------------------------------------------------

TEST(Platform, PaperNumbers) {
  const PlatformSpec spec = paper_platform();
  EXPECT_EQ(spec.cores_per_server, 8u);
  EXPECT_DOUBLE_EQ(spec.idle_power_w, 150.0);
  EXPECT_DOUBLE_EQ(spec.peak_power_w, 300.0);
  EXPECT_DOUBLE_EQ(spec.freq_min, 0.2);  // 400 MHz / 2.0 GHz
}

TEST(Platform, DerivedCoefficientsAddUp) {
  const PlatformSpec spec = paper_platform();
  // Linear + cubic coefficients must reproduce the core's peak dynamic.
  EXPECT_NEAR(spec.core_linear_coeff_w() + spec.core_cubic_coeff_w(),
              spec.core_dynamic_peak_w(), 1e-12);
  // All cores at peak + idle + fan = rated peak power.
  const double total = spec.idle_power_w + spec.fan_peak_power_w +
                       spec.core_dynamic_peak_w() *
                           static_cast<double>(spec.cores_per_server);
  EXPECT_NEAR(total, spec.peak_power_w, 1e-9);
}

TEST(Platform, InvalidSpecThrows) {
  PlatformSpec spec = paper_platform();
  spec.peak_power_w = 100.0;  // below idle
  EXPECT_THROW(spec.validate(), sprintcon::InvalidArgumentError);
  spec = paper_platform();
  spec.freq_min = 0.0;
  EXPECT_THROW(spec.validate(), sprintcon::InvalidArgumentError);
}

// --- power models ---------------------------------------------------------

TEST(MeasurementModel, ZeroUtilizationMeansZeroDynamic) {
  const MeasurementPowerModel m(paper_platform());
  EXPECT_DOUBLE_EQ(m.core_dynamic_w(1.0, 0.0), 0.0);
}

TEST(MeasurementModel, PeakMatchesCalibration) {
  const PlatformSpec spec = paper_platform();
  const MeasurementPowerModel m(spec);
  EXPECT_NEAR(m.core_dynamic_w(1.0, 1.0), spec.core_dynamic_peak_w(), 1e-12);
}

TEST(MeasurementModel, MonotoneInFrequencyAndUtilization) {
  const MeasurementPowerModel m(paper_platform());
  double prev = -1.0;
  for (double f = 0.2; f <= 1.0; f += 0.1) {
    const double p = m.core_dynamic_w(f, 0.8);
    EXPECT_GT(p, prev);
    prev = p;
  }
  EXPECT_GT(m.core_dynamic_w(0.5, 0.9), m.core_dynamic_w(0.5, 0.4));
}

TEST(MeasurementModel, SuperlinearAtHighFrequency) {
  // The cubic term makes the last 20% of frequency cost more than the
  // first 20% — the physics behind Figure 1.
  const MeasurementPowerModel m(paper_platform());
  const double low = m.core_dynamic_w(0.4, 1.0) - m.core_dynamic_w(0.2, 1.0);
  const double high = m.core_dynamic_w(1.0, 1.0) - m.core_dynamic_w(0.8, 1.0);
  EXPECT_GT(high, low);
}

TEST(LinearModel, GainAndConstantPositive) {
  const LinearPowerModel m(paper_platform());
  EXPECT_GT(m.gain_w_per_f(), 0.0);
  EXPECT_NEAR(m.constant_w(), 150.0 / 8.0, 1e-12);
  EXPECT_GT(m.interactive_gain_w_per_util(), 0.0);
}

TEST(LinearModel, InteractivePowerAtFullUtilMatchesPeakDynamic) {
  const PlatformSpec spec = paper_platform();
  const LinearPowerModel m(spec);
  EXPECT_NEAR(m.interactive_power_w(1.0) - m.constant_w(),
              spec.core_dynamic_peak_w(), 1e-9);
}

TEST(LinearModel, DivergesFromMeasurementModel) {
  // The controller model must NOT match the plant exactly — the paper's
  // design requires a modeling error for the feedback loop to absorb.
  const PlatformSpec spec = paper_platform();
  const LinearPowerModel lin(spec);
  const MeasurementPowerModel meas(spec);
  double max_gap = 0.0;
  for (double f = 0.2; f <= 1.0; f += 0.05) {
    const double gap = std::abs(lin.core_power_w(f) - lin.constant_w() -
                                meas.core_dynamic_w(f, 0.95));
    max_gap = std::max(max_gap, gap);
  }
  EXPECT_GT(max_gap, 0.5);
}

// --- fan ---------------------------------------------------------------------

TEST(Fan, TracksLoadWithLag) {
  FanModel fan(6.0, 8.0, Rng(3));
  // Step the server from idle to full power; the fan must rise over time.
  double first = fan.step(1.0, 300.0, 150.0, 300.0);
  double last = first;
  for (int i = 0; i < 60; ++i) last = fan.step(1.0, 300.0, 150.0, 300.0);
  EXPECT_GT(last, first);
  EXPECT_LE(last, 6.0);
  EXPECT_GE(last, 0.0);
}

TEST(Fan, BoundedByPeak) {
  FanModel fan(6.0, 2.0, Rng(4));
  for (int i = 0; i < 200; ++i) {
    const double p = fan.step(1.0, 400.0, 150.0, 300.0);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 6.0);
  }
}

// --- core ----------------------------------------------------------------------

TEST(Core, FrequencyClampsToBounds) {
  const PlatformSpec spec = paper_platform();
  CpuCore core = make_batch(spec);
  core.set_freq(5.0);
  EXPECT_DOUBLE_EQ(core.freq(), spec.freq_max);
  core.set_freq(0.01);
  EXPECT_DOUBLE_EQ(core.freq(), spec.freq_min);
}

TEST(Core, InteractiveStartsAtPeakBatchAtFloor) {
  const PlatformSpec spec = paper_platform();
  EXPECT_DOUBLE_EQ(make_interactive(spec).freq(), spec.freq_max);
  EXPECT_DOUBLE_EQ(make_batch(spec).freq(), spec.freq_min);
}

TEST(Core, StepUpdatesUtilizationByRole) {
  const PlatformSpec spec = paper_platform();
  CpuCore inter = make_interactive(spec);
  inter.step(1.0, 0.0);
  EXPECT_GT(inter.utilization(), 0.0);
  EXPECT_EQ(inter.job(), nullptr);

  CpuCore batch = make_batch(spec);
  batch.set_freq(1.0);
  batch.step(1.0, 0.0);
  EXPECT_GT(batch.utilization(), 0.8);
  ASSERT_NE(batch.job(), nullptr);
  EXPECT_GT(batch.job()->progress(), 0.0);
}

// --- server -----------------------------------------------------------------

TEST(Server, PowerBetweenIdleAndPeak) {
  const PlatformSpec spec = paper_platform();
  Server server = make_server(spec);
  for (int i = 0; i < 30; ++i) server.step(1.0, i);
  EXPECT_GT(server.power_w(), spec.idle_power_w);
  EXPECT_LT(server.power_w(), spec.peak_power_w + 1.0);
}

TEST(Server, PowerSplitsByClass) {
  const PlatformSpec spec = paper_platform();
  Server server = make_server(spec);
  server.step(1.0, 0.0);
  EXPECT_GT(server.interactive_dynamic_w(), 0.0);
  EXPECT_GT(server.batch_dynamic_w(), 0.0);
  EXPECT_GE(server.fan_power_w(), 0.0);
}

TEST(Server, PoweredOffConsumesNothingAndHaltsProgress) {
  const PlatformSpec spec = paper_platform();
  std::vector<Server> servers;
  servers.push_back(make_server(spec));
  Rack rack(std::move(servers));
  Server& server = rack.servers().front();
  server.step(1.0, 0.0);
  const double progress =
      server.cores().back().job()->progress();
  server.set_powered(false);
  server.step(1.0, 1.0);
  EXPECT_DOUBLE_EQ(server.power_w(), 0.0);
  EXPECT_DOUBLE_EQ(rack.telemetry().freq_batch, 0.0);
  EXPECT_DOUBLE_EQ(server.cores().back().job()->progress(), progress);
}

TEST(Server, WrongCoreCountThrows) {
  const PlatformSpec spec = paper_platform();
  std::vector<CpuCore> cores;
  cores.push_back(make_interactive(spec));
  EXPECT_THROW(Server(spec, std::move(cores), Rng(1)),
               sprintcon::InvalidArgumentError);
}

TEST(Server, CountsRoles) {
  const PlatformSpec spec = paper_platform();
  Server server = make_server(spec, 3);
  const auto batch = static_cast<std::size_t>(std::count_if(
      server.cores().begin(), server.cores().end(),
      [](const CpuCore& c) { return c.is_batch(); }));
  EXPECT_EQ(server.cores().size() - batch, 3u);
  EXPECT_EQ(batch, 5u);
}

TEST(Server, StepMatchesStandaloneWorkloads) {
  // One server holding every kind of core workload, against standalone
  // twins built from identical Rng copies and stepped by hand through the
  // workloads' own entry points. The inline per-core tick must reproduce
  // them bit for bit, every tick, at frequencies that change every tick.
  const PlatformSpec spec = paper_platform();
  InteractiveTraceConfig trace;
  trace.envelope = {{0.0, 0.4}, {120.0, 0.85}, {240.0, 0.5}};
  workload::RequestQueueConfig queue;
  queue.offered_load = trace;
  queue.max_backlog = 300.0;  // low enough that throttled ticks shed load
  workload::RecordedTrace recorded;
  recorded.samples = {0.2, 0.9, 0.55, 0.7, 0.35};

  enum class Kind { kGenerator, kQueue, kReplay, kRepeatJob, kOnceJob };
  const Kind kinds[] = {Kind::kGenerator, Kind::kQueue,     Kind::kReplay,
                        Kind::kRepeatJob, Kind::kGenerator, Kind::kQueue,
                        Kind::kOnceJob,   Kind::kRepeatJob};
  const auto make = [&](std::size_t c) -> CoreWorkload {
    const Rng rng(100 + c);
    const double phase_s = 7.0 * static_cast<double>(c);
    switch (kinds[c]) {
      case Kind::kGenerator:
        return InteractiveTraceGenerator(trace, rng, phase_s);
      case Kind::kQueue:
        return workload::RequestQueueSource(queue, rng, phase_s);
      case Kind::kReplay:
        return workload::ReplayUtilization(recorded, 1.0, true, phase_s);
      case Kind::kRepeatJob:
        return BatchJob(workload::spec2006_profile("401.bzip2"), 200.0, 40.0,
                        CompletionMode::kRepeat, rng);
      case Kind::kOnceJob:
        break;
    }
    return BatchJob(workload::spec2006_profile("429.mcf"), 200.0, 60.0,
                    CompletionMode::kRunOnce, rng);
  };

  std::vector<CpuCore> cores;
  std::vector<CoreWorkload> twins;
  for (std::size_t c = 0; c < spec.cores_per_server; ++c) {
    cores.emplace_back(spec.freq_min, spec.freq_max, make(c));
    twins.push_back(make(c));
  }
  Server server(spec, std::move(cores), Rng(77));
  // The twin fan: the server's stream and its 8 s time constant.
  FanModel fan(spec.fan_peak_power_w, 8.0, Rng(77));
  const MeasurementPowerModel model(spec);

  constexpr double kDt = 1.0;
  for (int t = 0; t < 360; ++t) {
    const double now = kDt * t;
    for (std::size_t c = 0; c < spec.cores_per_server; ++c) {
      server.cores()[c].set_freq(
          spec.freq_min + (spec.freq_max - spec.freq_min) *
                              static_cast<double>((t * 7 + c * 3) % 11) /
                              10.0);
    }
    server.step(kDt, now);

    double inter = 0.0;
    double batch = 0.0;
    for (std::size_t c = 0; c < spec.cores_per_server; ++c) {
      const CpuCore& core = server.cores()[c];
      const double f = core.freq();
      const double u = std::visit(
          [&](auto& w) {
            if constexpr (std::is_same_v<std::decay_t<decltype(w)>,
                                         BatchJob>) {
              return w.advance(kDt, f, now);
            } else {
              return w.step(kDt, f);
            }
          },
          twins[c]);
      ASSERT_EQ(core.utilization(), u) << "core " << c << " tick " << t;
      const double dyn = model.core_dynamic_w(f, u);
      if (std::holds_alternative<BatchJob>(twins[c])) {
        batch += dyn;
      } else {
        inter += dyn;
      }
    }
    const double before_fan = model.server_power_w(inter + batch);
    const double expected =
        before_fan +
        fan.step(kDt, before_fan, spec.idle_power_w, spec.peak_power_w);
    ASSERT_EQ(server.interactive_dynamic_w(), inter) << "tick " << t;
    ASSERT_EQ(server.batch_dynamic_w(), batch) << "tick " << t;
    ASSERT_EQ(server.power_w(), expected) << "tick " << t;
  }
  // The run crossed the branches the kernels take rarely.
  const auto* once = std::get_if<BatchJob>(&twins[6]);
  const auto* repeat = std::get_if<BatchJob>(&twins[3]);
  const auto* q = std::get_if<workload::RequestQueueSource>(&twins[1]);
  ASSERT_TRUE(once != nullptr && repeat != nullptr && q != nullptr);
  EXPECT_TRUE(once->completed());
  EXPECT_GT(repeat->completions(), 1u);
  EXPECT_GT(q->shed_requests(), 0.0);
}

TEST(Core, CoreHoldsItsWorkloadByValue) {
  const PlatformSpec spec = paper_platform();
  static_assert(!std::is_copy_constructible_v<CpuCore> &&
                !std::is_copy_assignable_v<CpuCore>);
  static_assert(std::is_nothrow_move_constructible_v<CpuCore>);
  CpuCore queue(spec.freq_min, spec.freq_max,
                std::in_place_type<workload::RequestQueueSource>,
                workload::RequestQueueConfig{}, Rng(5));
  EXPECT_EQ(queue.role(), CoreRole::kInteractive);
  EXPECT_DOUBLE_EQ(queue.freq(), spec.freq_max);
  EXPECT_NE(std::get_if<workload::RequestQueueSource>(&queue.workload()),
            nullptr);
  CpuCore batch(spec.freq_min, spec.freq_max,
                std::in_place_type<BatchJob>,
                workload::spec2006_profile("401.bzip2"), 720.0, 300.0,
                CompletionMode::kRunOnce, Rng(6));
  EXPECT_EQ(batch.role(), CoreRole::kBatch);
  EXPECT_DOUBLE_EQ(batch.freq(), spec.freq_min);
  EXPECT_THROW(CpuCore(0.5, 0.4, InteractiveTraceGenerator(
                                     InteractiveTraceConfig{}, Rng(7))),
               sprintcon::InvalidArgumentError);
}

// --- rack -------------------------------------------------------------------

Rack make_rack(std::size_t n_servers = 4) {
  const PlatformSpec spec = paper_platform();
  std::vector<Server> servers;
  for (std::size_t s = 0; s < n_servers; ++s)
    servers.push_back(make_server(spec));
  return Rack(std::move(servers));
}

TEST(Rack, AggregatesPower) {
  Rack rack = make_rack(4);
  sim::SimClock clock(1.0);
  rack.step(clock);
  EXPECT_GT(rack.total_power_w(), 4 * 150.0);
  EXPECT_LT(rack.total_power_w(), 4 * 301.0);
}

TEST(Rack, EnumeratesBatchCores) {
  Rack rack = make_rack(3);
  EXPECT_EQ(rack.batch_cores().size(), 3u * 4u);
  for (const auto& ref : rack.batch_cores()) {
    EXPECT_TRUE(rack.core(ref).is_batch());
  }
}

TEST(Rack, MeanFreqByRole) {
  Rack rack = make_rack(2);
  const RackTelemetry t = rack.telemetry();
  EXPECT_DOUBLE_EQ(t.freq_interactive, 1.0);
  EXPECT_DOUBLE_EQ(t.freq_batch, 0.2);
}

TEST(Rack, ForEachCoreAppliesByRole) {
  Rack rack = make_rack(2);
  rack.for_each_core(CoreRole::kBatch,
                     [](CpuCore& c) { c.set_freq(0.7); });
  const RackTelemetry t = rack.telemetry();
  EXPECT_NEAR(t.freq_batch, 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(t.freq_interactive, 1.0);
}

TEST(Rack, PowerOffAll) {
  Rack rack = make_rack(2);
  rack.set_all_powered(false);
  for (const Server& s : rack.servers()) EXPECT_FALSE(s.powered());
  sim::SimClock clock(1.0);
  rack.step(clock);
  EXPECT_DOUBLE_EQ(rack.total_power_w(), 0.0);
}

TEST(Rack, TelemetryP95IsTheMeanOfClampedPercentiles) {
  Rack rack = make_rack(3);
  sim::SimClock clock(1.0);
  // Past the 20 s onset ramp, with two interactive cores of server 0
  // throttled into saturation and two slowed short of it; server 2 is dark.
  for (std::size_t c = 0; c < 4; ++c) {
    rack.servers()[0].cores()[c].set_freq(c < 2 ? 0.3 : 0.95);
  }
  rack.servers()[2].set_powered(false);
  for (int t = 0; t < 30; ++t) {
    rack.step(clock);
    clock.advance();
  }

  // A dark or saturated core counts as the 1 s clamp.
  const workload::LatencyModel latency;
  double sum = 0.0;
  std::size_t n = 0, powered_clamped = 0;
  for (const Server& s : rack.servers()) {
    for (const CpuCore& c : s.cores()) {
      if (c.is_batch()) continue;
      double t = 1.0;
      if (s.powered()) {
        t = std::min(latency.mean_response_s(c.freq(), c.utilization()) *
                         workload::LatencyModel::quantile_factor(0.95),
                     1.0);
        if (t == 1.0) ++powered_clamped;
      }
      sum += t;
      ++n;
    }
  }
  const double expected = sum / static_cast<double>(n) * 1000.0;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rack.telemetry().p95_latency_ms),
            std::bit_cast<std::uint64_t>(expected));
  EXPECT_EQ(powered_clamped, 2u);
}

TEST(Rack, InvalidRefThrows) {
  Rack rack = make_rack(1);
  EXPECT_THROW(rack.core({5, 0}), sprintcon::InvalidArgumentError);
  EXPECT_THROW(rack.core({0, 99}), sprintcon::InvalidArgumentError);
}

TEST(Rack, EmptyRackThrows) {
  EXPECT_THROW(Rack(std::vector<Server>{}), sprintcon::InvalidArgumentError);
}

}  // namespace
}  // namespace sprintcon::server
