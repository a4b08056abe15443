// Tests for the workload substrate: progress model, profiles, batch jobs,
// interactive trace generation.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "workload/batch_job.hpp"
#include "workload/batch_profile.hpp"
#include "workload/interactive.hpp"
#include "workload/progress_model.hpp"

namespace sprintcon::workload {
namespace {

// --- progress model -----------------------------------------------------

TEST(ProgressModel, RateIsOneAtPeak) {
  for (double mu : {0.0, 0.3, 0.7, 1.0}) {
    EXPECT_DOUBLE_EQ(ProgressModel(mu).rate(1.0), 1.0);
  }
}

TEST(ProgressModel, PureComputeScalesLinearly) {
  ProgressModel m(1.0);
  EXPECT_DOUBLE_EQ(m.rate(0.5), 0.5);
  EXPECT_DOUBLE_EQ(m.rate(0.25), 0.25);
}

TEST(ProgressModel, PureMemoryIsFrequencyInsensitive) {
  ProgressModel m(0.0);
  EXPECT_DOUBLE_EQ(m.rate(0.2), 1.0);
  EXPECT_DOUBLE_EQ(m.rate(1.0), 1.0);
}

TEST(ProgressModel, RateMonotoneInFrequency) {
  ProgressModel m(0.7);
  double prev = 0.0;
  for (double f = 0.2; f <= 1.0; f += 0.1) {
    const double r = m.rate(f);
    EXPECT_GT(r, prev);
    prev = r;
  }
}

TEST(ProgressModel, FrequencyForDeadlineInverts) {
  ProgressModel m(0.8);
  const double f = m.frequency_for_deadline(100.0, 150.0, 0.2, 1.0);
  // T(f) = W / rate(f) meets the deadline exactly.
  EXPECT_NEAR(100.0 / m.rate(f), 150.0, 1e-6);
}

TEST(ProgressModel, FrequencyForDeadlineClamps) {
  ProgressModel m(0.8);
  // Infeasible: needs more than peak.
  EXPECT_DOUBLE_EQ(m.frequency_for_deadline(100.0, 50.0, 0.2, 1.0), 1.0);
  // Trivially feasible: floor.
  EXPECT_DOUBLE_EQ(m.frequency_for_deadline(100.0, 1e6, 0.2, 1.0), 0.2);
  // No time left at all: peak.
  EXPECT_DOUBLE_EQ(m.frequency_for_deadline(100.0, 0.0, 0.2, 1.0), 1.0);
  // No work: floor.
  EXPECT_DOUBLE_EQ(m.frequency_for_deadline(0.0, 10.0, 0.2, 1.0), 0.2);
}

TEST(ProgressModel, InvalidMuThrows) {
  EXPECT_THROW(ProgressModel(-0.1), InvalidArgumentError);
  EXPECT_THROW(ProgressModel(1.1), InvalidArgumentError);
}

// --- profiles --------------------------------------------------------------

TEST(Profiles, SpecSetHasEightCalibratedEntries) {
  const auto profiles = spec2006_profiles();
  ASSERT_EQ(profiles.size(), 8u);
  for (const auto& p : profiles) {
    EXPECT_GT(p.compute_fraction, 0.0);
    EXPECT_LE(p.compute_fraction, 1.0);
    EXPECT_GT(p.nominal_work_s, 0.0);
    EXPECT_GT(p.utilization, 0.5);
  }
}

TEST(Profiles, McfIsMostMemoryBound) {
  const auto& mcf = spec2006_profile("429.mcf");
  for (const auto& p : spec2006_profiles()) {
    EXPECT_LE(mcf.compute_fraction, p.compute_fraction);
  }
}

TEST(Profiles, NamdIsMostComputeBound) {
  const auto& namd = spec2006_profile("444.namd");
  for (const auto& p : spec2006_profiles()) {
    EXPECT_GE(namd.compute_fraction, p.compute_fraction);
  }
}

TEST(Profiles, UnknownNameThrows) {
  EXPECT_THROW(spec2006_profile("999.nope"), InvalidArgumentError);
}

TEST(Profiles, SprintKernelsCoverSixWorkloads) {
  EXPECT_EQ(sprint_kernel_profiles().size(), 6u);
}

// --- batch job --------------------------------------------------------------

BatchJob make_job(double work_s = 100.0, double deadline_s = 300.0,
                  CompletionMode mode = CompletionMode::kRunOnce) {
  return BatchJob(spec2006_profile("400.perlbench"), deadline_s, work_s, mode,
                  Rng(99));
}

TEST(BatchJob, ProgressAccumulates) {
  BatchJob job = make_job();
  job.advance(10.0, 1.0, 0.0);
  EXPECT_NEAR(job.progress(), 0.1, 1e-9);
  EXPECT_FALSE(job.completed());
}

TEST(BatchJob, CompletesAndRecordsTime) {
  BatchJob job = make_job(50.0);
  double now = 0.0;
  while (!job.completed()) {
    job.advance(1.0, 1.0, now);
    now += 1.0;
    ASSERT_LT(now, 500.0);
  }
  EXPECT_NEAR(job.completion_time_s(), 50.0, 1.1);
  EXPECT_EQ(job.completions(), 1u);
  // After completion a run-once job leaves its core idle.
  EXPECT_DOUBLE_EQ(job.advance(1.0, 1.0, now), 0.0);
  EXPECT_DOUBLE_EQ(job.utilization(), 0.0);
}

TEST(BatchJob, RepeatModeLoops) {
  BatchJob job = make_job(10.0, 300.0, CompletionMode::kRepeat);
  double now = 0.0;
  for (int i = 0; i < 35; ++i) {
    job.advance(1.0, 1.0, now);
    now += 1.0;
  }
  EXPECT_GE(job.completions(), 3u);
  EXPECT_FALSE(job.completed());
  EXPECT_GT(job.utilization(), 0.5);
}

TEST(BatchJob, LowerFrequencySlowsProgress) {
  BatchJob fast = make_job();
  BatchJob slow = make_job();
  for (int i = 0; i < 20; ++i) {
    fast.advance(1.0, 1.0, i);
    slow.advance(1.0, 0.3, i);
  }
  EXPECT_GT(fast.progress(), slow.progress());
}

TEST(BatchJob, AdvanceReturnsTheBusyFraction) {
  // A running job keeps its core busy at the profile's utilization
  // whatever the frequency.
  BatchJob fast = make_job();
  BatchJob slow = make_job();
  for (int i = 0; i < 45; ++i) {  // crosses two 20 s phase changes
    const double busy_fast = fast.advance(1.0, 1.0, i);
    const double busy_slow = slow.advance(1.0, 0.5, i);
    EXPECT_EQ(busy_fast, fast.utilization());
    EXPECT_EQ(busy_fast, busy_slow);
    EXPECT_GT(busy_fast, 0.8);
  }
}

TEST(BatchJob, PenaltyWeightMatchesPaperExample) {
  // Paper: 80% executed, 6 min elapsed, 4 min left -> R = 0.2/(4/10) = 0.5.
  BatchJob job = make_job(/*work_s=*/100.0, /*deadline_s=*/600.0);
  // Run at a frequency that gives exactly 80% progress after 360 s:
  // rate must be 80/360; with mu=0.88 solve rate(f) = 2/9.
  // Instead drive progress directly: advance at peak for 80 work-seconds.
  double now = 0.0;
  while (job.progress() < 0.8) {
    job.advance(1.0, 1.0, now);
    now += 1.0;
  }
  // Pretend we are at t=360 (6 min elapsed, 4 min of 10 left).
  const double r = job.penalty_weight(360.0);
  EXPECT_NEAR(r, 0.5, 0.05);
}

TEST(BatchJob, PenaltyWeightLargeWhenPastDeadline) {
  BatchJob job = make_job(100.0, 50.0);
  job.advance(1.0, 1.0, 0.0);
  EXPECT_GE(job.penalty_weight(60.0), 50.0);
}

TEST(BatchJob, PenaltyWeightZeroAfterCompletion) {
  BatchJob job = make_job(5.0);
  double now = 0.0;
  while (!job.completed()) {
    job.advance(1.0, 1.0, now);
    now += 1.0;
  }
  EXPECT_DOUBLE_EQ(job.penalty_weight(now), 0.0);
}

TEST(BatchJob, InvalidArgumentsThrow) {
  EXPECT_THROW(make_job(100.0, -5.0), InvalidArgumentError);
  BatchJob job = make_job();
  EXPECT_THROW(job.advance(0.0, 1.0, 0.0), InvalidArgumentError);
  EXPECT_THROW(job.advance(1.0, 0.0, 0.0), InvalidArgumentError);
  EXPECT_THROW(job.advance(1.0, 1.5, 0.0), InvalidArgumentError);
}

// --- interactive trace -------------------------------------------------------

InteractiveTraceConfig trace_config() { return InteractiveTraceConfig{}; }

TEST(Interactive, DeterministicForSameSeed) {
  InteractiveTraceGenerator a(trace_config(), Rng(5), 0.0);
  InteractiveTraceGenerator b(trace_config(), Rng(5), 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.step(1.0), b.step(1.0));
}

TEST(Interactive, UtilizationStaysInUnitRange) {
  InteractiveTraceGenerator gen(trace_config(), Rng(6), 0.0);
  for (int i = 0; i < 2000; ++i) {
    const double u = gen.step(1.0);
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(Interactive, MeanNearConfiguredLevel) {
  InteractiveTraceConfig cfg = trace_config();
  cfg.mean_utilization = 0.6;
  InteractiveTraceGenerator gen(cfg, Rng(7), 0.0);
  double sum = 0.0;
  const int n = 1800;
  for (int i = 0; i < n; ++i) sum += gen.step(1.0);
  // Spikes bias slightly upward; allow a loose band.
  EXPECT_NEAR(sum / n, 0.6, 0.12);
}

TEST(Interactive, RampsUpFromIdle) {
  InteractiveTraceConfig cfg = trace_config();
  cfg.ramp_up_s = 30.0;
  cfg.idle_utilization = 0.1;
  cfg.noise_sigma = 0.0;
  cfg.spike_rate_per_s = 0.0;
  cfg.swell_amplitude = 0.0;
  InteractiveTraceGenerator gen(cfg, Rng(8), 0.0);
  const double early = gen.step(1.0);
  for (int i = 0; i < 60; ++i) gen.step(1.0);
  const double late = gen.utilization();
  EXPECT_LT(early, 0.3);
  EXPECT_NEAR(late, cfg.mean_utilization, 1e-9);
}

TEST(Interactive, FluctuatesOverTime) {
  InteractiveTraceGenerator gen(trace_config(), Rng(9), 0.0);
  double mn = 1.0, mx = 0.0;
  for (int i = 0; i < 900; ++i) {
    const double u = gen.step(1.0);
    mn = std::min(mn, u);
    mx = std::max(mx, u);
  }
  EXPECT_GT(mx - mn, 0.2);  // the UPS controller exists because of this
}

TEST(Interactive, PhaseOffsetDecorrelatesSwell) {
  InteractiveTraceConfig cfg = trace_config();
  cfg.noise_sigma = 0.0;
  cfg.spike_rate_per_s = 0.0;
  cfg.ramp_up_s = 0.0;
  InteractiveTraceGenerator a(cfg, Rng(10), 0.0);
  InteractiveTraceGenerator b(cfg, Rng(10), cfg.swell_period_s / 2.0);
  // Half-period offset: swells should oppose at some point.
  double max_gap = 0.0;
  for (int i = 0; i < 400; ++i) {
    max_gap = std::max(max_gap, std::abs(a.step(1.0) - b.step(1.0)));
  }
  EXPECT_GT(max_gap, cfg.swell_amplitude);
}

TEST(Interactive, EnvelopeInterpolatesBetweenPoints) {
  InteractiveTraceConfig cfg = trace_config();
  cfg.envelope = {{0.0, 0.2}, {100.0, 0.8}};
  InteractiveTraceGenerator gen(cfg, Rng(21));
  EXPECT_NEAR(gen.envelope_mean(0.0), 0.2, 1e-12);
  EXPECT_NEAR(gen.envelope_mean(50.0), 0.5, 1e-12);
  EXPECT_NEAR(gen.envelope_mean(100.0), 0.8, 1e-12);
  // Holds outside the breakpoint range.
  EXPECT_NEAR(gen.envelope_mean(500.0), 0.8, 1e-12);
}

TEST(Interactive, EnvelopeDrivesTheGeneratedTrace) {
  // A step envelope: low for 100 s, high afterwards. The generated trace
  // (noise quieted) must follow it.
  InteractiveTraceConfig cfg = trace_config();
  cfg.noise_sigma = 0.0;
  cfg.spike_rate_per_s = 0.0;
  cfg.swell_amplitude = 0.0;
  cfg.ramp_up_s = 0.0;
  cfg.envelope = {{0.0, 0.3}, {100.0, 0.3}, {101.0, 0.8}};
  InteractiveTraceGenerator gen(cfg, Rng(22));
  double early = 0.0, late = 0.0;
  for (int t = 1; t <= 200; ++t) {
    const double u = gen.step(1.0);
    if (t <= 95) early += u;
    if (t > 110) late += u;
  }
  EXPECT_NEAR(early / 95.0, 0.3, 0.02);
  EXPECT_NEAR(late / 90.0, 0.8, 0.02);
}

TEST(Interactive, EmptyEnvelopeUsesConstantMean) {
  InteractiveTraceGenerator gen(trace_config(), Rng(23));
  EXPECT_DOUBLE_EQ(gen.envelope_mean(0.0), trace_config().mean_utilization);
}

TEST(Interactive, UnsortedEnvelopeThrows) {
  InteractiveTraceConfig cfg = trace_config();
  cfg.envelope = {{100.0, 0.5}, {50.0, 0.6}};
  EXPECT_THROW(InteractiveTraceGenerator(cfg, Rng(1)), InvalidArgumentError);
}

TEST(Interactive, OutOfRangeEnvelopeUtilizationThrows) {
  InteractiveTraceConfig cfg = trace_config();
  cfg.envelope = {{0.0, 1.5}};
  EXPECT_THROW(InteractiveTraceGenerator(cfg, Rng(1)), InvalidArgumentError);
}

TEST(Interactive, InvalidConfigThrows) {
  InteractiveTraceConfig cfg = trace_config();
  cfg.mean_utilization = 1.5;
  EXPECT_THROW(InteractiveTraceGenerator(cfg, Rng(1)), InvalidArgumentError);
  cfg = trace_config();
  cfg.noise_tau_s = 0.0;
  EXPECT_THROW(InteractiveTraceGenerator(cfg, Rng(1)), InvalidArgumentError);
}

}  // namespace
}  // namespace sprintcon::workload
