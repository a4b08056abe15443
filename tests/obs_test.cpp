// Tests for the structured observability layer: event log ring semantics,
// metrics registry, JSON exporters (round-trip), profiling hooks and the
// obs-enabled rig integration.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "control/mpc.hpp"
#include "obs/export.hpp"
#include "obs/events_jsonl.hpp"
#include "obs/sink.hpp"
#include "power/circuit_breaker.hpp"
#include "power/trip_curve.hpp"
#include "scenario/rig.hpp"

namespace sprintcon::obs {
namespace {

// --- event log ---------------------------------------------------------------

TEST(EventLog, EmitAndSnapshot) {
  EventLog log(8);
  log.emit(1.0, EventType::kCustom, "first", {{"a", 1.0}, {"b", 2.0}});
  log.emit(2.0, EventType::kOutage, nullptr, {});
  ASSERT_EQ(log.size(), 2u);
  const auto events = log.snapshot();
  EXPECT_DOUBLE_EQ(events[0].t_s, 1.0);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_STREQ(events[0].cause, "first");
  EXPECT_DOUBLE_EQ(events[0].field("a"), 1.0);
  EXPECT_DOUBLE_EQ(events[0].field("b"), 2.0);
  EXPECT_DOUBLE_EQ(events[0].field("missing", -7.0), -7.0);
  EXPECT_EQ(events[1].type, EventType::kOutage);
  EXPECT_EQ(events[1].num_fields, 0u);
}

TEST(EventLog, RingOverwritesOldest) {
  EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.emit(static_cast<double>(i), EventType::kCustom, "e",
             {{"i", static_cast<double>(i)}});
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_emitted(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: sequence numbers 6..9.
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(events[k].seq, 6u + k);
    EXPECT_DOUBLE_EQ(events[k].field("i"), 6.0 + static_cast<double>(k));
  }
}

TEST(EventLog, RingKeepsTheLastCapacityEventsAtAnySize) {
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{3},
                                     std::size_t{4096}}) {
    SCOPED_TRACE(capacity);
    EventLog log(capacity);
    EXPECT_EQ(log.capacity(), capacity);  // full capacity before any emit
    EXPECT_EQ(log.size(), 0u);
    EXPECT_TRUE(log.snapshot().empty());
    const std::uint64_t total = capacity + 2;
    for (std::uint64_t i = 0; i < total; ++i) {
      log.emit(static_cast<double>(i), EventType::kCustom, "e",
               {{"i", static_cast<double>(i)}});
    }
    EXPECT_EQ(log.capacity(), capacity);
    EXPECT_EQ(log.size(), capacity);
    EXPECT_EQ(log.total_emitted(), total);
    EXPECT_EQ(log.dropped(), 2u);
    const auto events = log.snapshot();
    ASSERT_EQ(events.size(), capacity);
    for (std::size_t k = 0; k < capacity; ++k) {
      EXPECT_EQ(events[k].seq, 2u + k);
      EXPECT_DOUBLE_EQ(events[k].t_s, 2.0 + static_cast<double>(k));
      EXPECT_DOUBLE_EQ(events[k].field("i"), 2.0 + static_cast<double>(k));
    }
  }
}

TEST(EventLog, FieldOverflowClampsAndCounts) {
  EventLog log(4);
  log.emit(0.0, EventType::kCustom, "big",
           {{"f0", 0.0},
            {"f1", 1.0},
            {"f2", 2.0},
            {"f3", 3.0},
            {"f4", 4.0},
            {"f5", 5.0},
            {"f6", 6.0},
            {"f7", 7.0}});
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].num_fields, kMaxEventFields);
  EXPECT_EQ(log.field_overflow(), 2u);
  EXPECT_DOUBLE_EQ(events[0].field("f5"), 5.0);
  EXPECT_DOUBLE_EQ(events[0].field("f7", -1.0), -1.0);  // dropped
}

TEST(EventLog, TypeNames) {
  EXPECT_STREQ(to_string(EventType::kSprintStateChange), "sprint_state");
  EXPECT_STREQ(to_string(EventType::kAllocatorDecision), "allocator_decision");
  EXPECT_STREQ(to_string(EventType::kUpsSetpointChange), "ups_setpoint");
  EXPECT_STREQ(to_string(EventType::kCbTrip), "cb_trip");
}

// --- metrics -----------------------------------------------------------------

TEST(Metrics, CounterAndGauge) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hits");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  Gauge& g = reg.gauge("level");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  // Re-request returns the same instance.
  EXPECT_EQ(&reg.counter("hits"), &c);
  EXPECT_EQ(&reg.gauge("level"), &g);
}

TEST(Metrics, KindClashThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), InvalidArgumentError);
  EXPECT_THROW(reg.histogram("x"), InvalidArgumentError);
  EXPECT_THROW(reg.counter(""), InvalidArgumentError);
}

TEST(Metrics, HistogramStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  h.record(1.0);
  h.record(2.0);
  h.record(4.0);
  h.record(1000.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1007.0);
  EXPECT_DOUBLE_EQ(h.mean(), 251.75);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  // p50 lands in the bucket holding the 2nd sample; log-scale edges are
  // powers of two, clamped into [min, max].
  EXPECT_GE(h.percentile(0.5), 1.0);
  EXPECT_LE(h.percentile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000.0);
}

TEST(Metrics, HistogramBucketIndexMonotone) {
  int prev = -1;
  for (double v : {1e-8, 1e-4, 0.1, 1.0, 7.0, 100.0, 1e6, 1e12}) {
    const int b = Histogram::bucket_index(v);
    EXPECT_GE(b, prev);
    EXPECT_GE(b, 0);
    EXPECT_LT(b, Histogram::kBuckets);
    // Buckets are half-open [2^(e-1), 2^e): a value sits strictly below its
    // bucket's upper edge and at or above the previous bucket's (except in
    // the saturated first/last buckets).
    if (b > 0 && b < Histogram::kBuckets - 1) {
      EXPECT_LT(v, Histogram::bucket_upper_edge(b));
      EXPECT_GE(v, Histogram::bucket_upper_edge(b - 1));
    }
    prev = b;
  }
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0);
}

TEST(Metrics, SnapshotLookups) {
  MetricsRegistry reg;
  reg.counter("c").add(3);
  reg.gauge("g").set(1.5);
  reg.histogram("h").record(10.0);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_FALSE(snap.empty());
  EXPECT_EQ(snap.counter("c"), 3u);
  EXPECT_EQ(snap.counter("nope", 99), 99u);
  EXPECT_DOUBLE_EQ(snap.gauge("g"), 1.5);
  ASSERT_EQ(snap.histograms.count("h"), 1u);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
  EXPECT_FALSE(snap.histograms.at("h").buckets.empty());
}

TEST(Metrics, ConcurrentUpdatesAreConsistent) {
  MetricsRegistry reg;
  Counter& c = reg.counter("n");
  Histogram& h = reg.histogram("lat");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(kThreads));
  EXPECT_DOUBLE_EQ(h.sum(), kPerThread * (1.0 + 2.0 + 3.0 + 4.0));
}

// --- scoped timer ------------------------------------------------------------

TEST(ScopedTimerTest, RecordsMicroseconds) {
  Histogram h;
  {
    ScopedTimer timer(&h);
    // A little busy work so the sample is non-trivial.
    volatile double x = 0.0;
    for (int i = 0; i < 1000; ++i) x = x + 1.0;
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(h.max(), 0.0);
}

TEST(ScopedTimerTest, NullHistogramIsNoop) {
  ScopedTimer timer(nullptr);  // must not crash or record
}

// --- exporters ---------------------------------------------------------------

TEST(Export, EventJsonRoundTrip) {
  EventLog log(16);
  log.emit(1.25, EventType::kSprintStateChange, "cb-near-trip",
           {{"from", 0.0}, {"to", 1.0}});
  // Awkward doubles must survive exactly (%.17g).
  log.emit(0.1 + 0.2, EventType::kAllocatorDecision, "adapt",
           {{"p_cb_w", 4000.123456789012345}, {"overloading", 1.0}});
  log.emit(3.0, EventType::kOutage, nullptr, {{"unserved_w", 1e-17}});

  std::ostringstream out;
  const auto events = log.snapshot();
  write_events_jsonl(out, events);

  std::istringstream in(out.str());
  const auto parsed = parse_events_jsonl(in);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(parsed[i].t_s, events[i].t_s);
    EXPECT_EQ(parsed[i].seq, events[i].seq);
    EXPECT_EQ(parsed[i].type, to_string(events[i].type));
    EXPECT_EQ(parsed[i].fields.size(), events[i].num_fields);
    for (const auto& [key, value] : parsed[i].fields) {
      EXPECT_DOUBLE_EQ(value, events[i].field(key.c_str()));
    }
  }
  EXPECT_EQ(parsed[0].cause, "cb-near-trip");
  EXPECT_TRUE(parsed[2].cause.empty());  // null cause
  EXPECT_DOUBLE_EQ(parsed[1].t_s, 0.1 + 0.2);
  EXPECT_DOUBLE_EQ(parsed[1].field("p_cb_w"), 4000.123456789012345);
  EXPECT_DOUBLE_EQ(parsed[2].field("unserved_w"), 1e-17);
}

TEST(Export, ParserRejectsGarbage) {
  std::istringstream bad("{\"t\":1.0,\"oops\"");
  EXPECT_THROW(parse_events_jsonl(bad), InvalidArgumentError);
  std::istringstream unknown("{\"nope\":3}");
  EXPECT_THROW(parse_events_jsonl(unknown), InvalidArgumentError);
}

TEST(Export, MetricsJsonContainsEverything) {
  MetricsRegistry reg;
  reg.counter("mpc.solves.structured").add(7);
  reg.gauge("facility.run_s").set(0.5);
  reg.histogram("mpc.step_us").record(12.0);
  const std::string json = metrics_to_json(reg.snapshot());
  EXPECT_NE(json.find("\"mpc.solves.structured\":7"), std::string::npos);
  EXPECT_NE(json.find("\"facility.run_s\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"mpc.step_us\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[["), std::string::npos);
}

TEST(Export, RunReportJson) {
  RunReport report;
  report.label = "SprintCon/rack0";
  report.summary.label = "SprintCon";
  report.summary.avg_freq_batch = 0.75;
  report.summary.all_deadlines_met = true;
  MetricsRegistry reg;
  reg.counter("safety.transitions").add(2);
  report.metrics = reg.snapshot();
  EventLog log(4);
  log.emit(1.0, EventType::kCbTrip, "thermal-threshold", {{"power_w", 4.0}});
  report.events = log.snapshot();

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"label\":\"SprintCon/rack0\""), std::string::npos);
  EXPECT_NE(json.find("\"avg_freq_batch\":0.75"), std::string::npos);
  EXPECT_NE(json.find("\"all_deadlines_met\":true"), std::string::npos);
  EXPECT_NE(json.find("\"safety.transitions\":2"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"cb_trip\""), std::string::npos);
}

// --- profiling hooks ---------------------------------------------------------

control::MpcProblem small_problem(std::size_t n) {
  control::MpcProblem p;
  p.gains_w_per_f.assign(n, 30.0);
  p.freq_current.assign(n, 0.5);
  p.freq_min.assign(n, 0.2);
  p.freq_max.assign(n, 1.0);
  p.penalty_weights.assign(n, 1.0);
  p.power_feedback_w = 0.5 * 30.0 * static_cast<double>(n);
  p.power_target_w = 0.8 * 30.0 * static_cast<double>(n);
  return p;
}

TEST(MpcObs, StepCountsSolvesAndIterations) {
  control::MpcConfig cfg;
  control::MpcPowerController mpc(cfg);
  ObsSink sink;
  mpc.set_obs(&sink);
  const auto problem = small_problem(8);
  control::MpcOutput out;
  for (int i = 0; i < 5; ++i) mpc.step(problem, out);

  const MetricsSnapshot snap = sink.metrics().snapshot();
  EXPECT_EQ(snap.counter("mpc.solves.structured"), 5u);
  EXPECT_GE(snap.counter("mpc.qp.iterations"), 5u);
  // Every solve runs the direct solve (all penalties positive), at least
  // one pass per control block.
  EXPECT_GE(snap.counter("mpc.qp.direct_passes"), cfg.control_horizon * 5u);
  EXPECT_EQ(snap.histograms.at("mpc.step_us").count, 5u);
  EXPECT_EQ(snap.histograms.at("mpc.qp.exit_residual").count, 5u);
  EXPECT_EQ(snap.counter("mpc.qp.not_converged"), 0u);
}

TEST(MpcObs, DetachStopsCounting) {
  control::MpcConfig cfg;
  control::MpcPowerController mpc(cfg);
  ObsSink sink;
  mpc.set_obs(&sink);
  control::MpcOutput out;
  mpc.step(small_problem(4), out);
  mpc.set_obs(nullptr);
  mpc.step(small_problem(4), out);
  EXPECT_EQ(sink.metrics().snapshot().counter("mpc.solves.structured"), 1u);
}

TEST(QpRestarts, CountedAndReset) {
  // A badly warm-started strongly convex problem takes at least one
  // momentum restart on the way down; the counter must reset per solve.
  control::MpcConfig cfg;
  control::MpcPowerController mpc(cfg);
  control::MpcOutput out;
  mpc.step(small_problem(16), out);
  EXPECT_GE(out.qp.restarts, 0);
  const int first = out.qp.restarts;
  mpc.step(small_problem(16), out);
  // Warm-started second solve cannot report an accumulated total.
  EXPECT_LE(out.qp.restarts, first + out.qp.iterations);
}

// --- circuit breaker events --------------------------------------------------

TEST(BreakerObs, OverloadTripRecloseSequence) {
  power::CircuitBreaker cb(1000.0, power::TripCurve::bulletin_1489a());
  ObsSink sink;
  cb.set_obs(&sink);

  // Below rated: no events.
  cb.deliver(500.0, 1.0);
  EXPECT_TRUE(sink.events().snapshot().empty());

  // Overload until it trips.
  while (!cb.open()) cb.deliver(2500.0, 1.0);
  // Cool until it recloses.
  while (cb.open()) cb.deliver(0.0, 10.0);

  const auto events = sink.events().snapshot();
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events[0].type, EventType::kCbOverloadEnter);
  EXPECT_DOUBLE_EQ(events[0].field("power_w"), 2500.0);
  EXPECT_EQ(events[events.size() - 2].type, EventType::kCbTrip);
  EXPECT_DOUBLE_EQ(events[events.size() - 2].field("trip_count"), 1.0);
  EXPECT_EQ(events.back().type, EventType::kCbReclose);
  EXPECT_LE(events.back().field("stress"), 0.06);
  // Timestamps are the breaker's accumulated delivery time, increasing.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].t_s, events[i - 1].t_s);
  }
}

TEST(BreakerObs, OverloadExitWithoutTrip) {
  power::CircuitBreaker cb(1000.0, power::TripCurve::bulletin_1489a());
  ObsSink sink;
  cb.set_obs(&sink);
  cb.deliver(1500.0, 1.0);   // enter overload
  cb.deliver(800.0, 1.0);    // back under rated
  const auto events = sink.events().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, EventType::kCbOverloadEnter);
  EXPECT_EQ(events[1].type, EventType::kCbOverloadExit);
  EXPECT_STREQ(events[1].cause, "at-or-below-rated");
}

// --- rig integration ---------------------------------------------------------

scenario::RigConfig small_rig() {
  scenario::RigConfig cfg;
  cfg.num_servers = 2;
  cfg.interactive_cores_per_server = 4;
  cfg.duration_s = 200.0;
  cfg.batch_deadline_s = 160.0;
  cfg.ups_capacity_wh = 50.0;
  cfg.sprint.cb_rated_w = 2.0 * 300.0 * (2.0 / 3.0);
  cfg.observability = true;
  return cfg;
}

TEST(RigObs, ObservedRunProducesReport) {
  scenario::Rig rig(small_rig());
  ASSERT_NE(rig.obs(), nullptr);
  rig.run();

  const RunReport report = rig.report();
  EXPECT_EQ(report.label, "SprintCon");
  EXPECT_FALSE(report.metrics.empty());
  // The MPC ran every control period under the sink.
  EXPECT_GT(report.metrics.counter("mpc.solves.structured"), 0u);
  EXPECT_GT(report.metrics.counter("mpc.qp.iterations"), 0u);
  // The allocator adapted at least once over 200 s (30 s period).
  EXPECT_GT(report.metrics.counter("allocator.adaptations"), 0u);
  bool saw_allocator_event = false;
  for (const Event& e : report.events) {
    if (e.type == EventType::kAllocatorDecision) {
      saw_allocator_event = true;
      EXPECT_GT(e.field("p_cb_w"), 0.0);
    }
  }
  EXPECT_TRUE(saw_allocator_event);

  // The report serializes and its events parse back.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  std::ostringstream events_out;
  write_events_jsonl(events_out, report.events);
  std::istringstream events_in(events_out.str());
  EXPECT_EQ(parse_events_jsonl(events_in).size(), report.events.size());
}

TEST(RigObs, DisabledRigHasNoSinkAndReportThrows) {
  scenario::RigConfig cfg = small_rig();
  cfg.observability = false;
  cfg.duration_s = 10.0;
  scenario::Rig rig(cfg);
  EXPECT_EQ(rig.obs(), nullptr);
  rig.run();
  EXPECT_THROW(rig.report(), InvalidStateError);
}

}  // namespace
}  // namespace sprintcon::obs
