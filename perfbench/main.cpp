// perfbench: the repository benchmark's measuring binary (run.py drives it).
//
//   perfbench --spec FILE --seed N --seconds S [--digest-seed N]
//             [--observability] [--trace] [--shards N] [--skip-sample]
//
// Without --trace it repeats the whole pipeline for --seconds of wall
// clock — spec load + compile + Facility construction, Facility::run(),
// then summaries() + facility_cb_power() — with tracing off, and prints
// every repetition's timings, the channel digest, the per-rack output
// checks and the simulated outcomes. Both modes also print the digest at
// --digest-seed (one untimed extra run when it differs from --seed), so
// any run can be checked against the stored digest.
//
// With --trace it measures the layers instead: untraced and traced
// facility runs alternate (span and counter figures, tracing overhead),
// then a sample of racks is rebuilt outside the facility and its ticks
// are driven layer by layer (driven_tick.hpp) next to Rig::run() and
// Simulation::step_once() on identical racks.
//
// --shards overrides the workload's shard count and --skip-sample drops
// the driven loop's recorder call; both exist so the benchmark's own
// tests can show its checks going red.
//
// Output: one JSON object on stdout. Wall clock (steady_clock) only.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "driven_tick.hpp"
#include "obs/sink.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace obs = sprintcon::obs;

constexpr std::size_t kMinReps = 3;
/// Racks rebuilt outside the facility per driven pass.
constexpr std::size_t kDrivenRacks = 16;
/// Tolerances of the traced run's accounting checks.
constexpr double kLayerSumTolerance = 0.10;
/// A workload declared with several shards must keep at least this many
/// busy at once on average; a run forced onto one shard cannot.
constexpr double kMinConcurrency = 1.3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

struct Options {
  std::string spec;
  std::uint64_t seed = 42;
  std::uint64_t digest_seed = 42;  ///< the seed the stored digests pin
  double seconds = 10.0;
  bool observability = false;
  bool trace = false;
  std::size_t shards = 0;  ///< 0 = the workload's own
  bool skip_sample = false;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(std::string(arg) + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--spec") {
      o.spec = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--digest-seed") {
      o.digest_seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--shards") {
      o.shards = std::stoul(value());
    } else if (arg == "--observability") {
      o.observability = true;
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--skip-sample") {
      o.skip_sample = true;
    } else {
      throw std::invalid_argument("unknown argument " + std::string(arg));
    }
  }
  if (o.spec.empty()) throw std::invalid_argument("--spec is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(std::string_view v) {
  std::string quoted = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return quoted + "\"";
}

/// Minimal JSON object writer (keys are plain identifiers).
class Json {
 public:
  Json& num(std::string_view key, double v) { return raw(key, json_number(v)); }
  Json& count(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& flag(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& str(std::string_view key, std::string_view v) {
    return raw(key, json_string(v));
  }
  Json& nums(std::string_view key, const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ',';
      out += json_number(v[i]);
    }
    return raw(key, out + "]");
  }
  Json& strs(std::string_view key, const std::vector<std::string>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ',';
      out += json_string(v[i]);
    }
    return raw(key, out + "]");
  }
  Json& raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "\"" : ",\"";
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Simulated outcomes of one facility run; exact for a given seed.
struct Outcomes {
  double ups_dod = 0.0;             ///< rack-mean battery depth of discharge
  double p95_latency_ms = 0.0;      ///< rack-mean interactive p95
  double unserved_wh = 0.0;         ///< facility total
  double deadline_miss_frac = 0.0;  ///< racks with a missed batch deadline

  bool operator==(const Outcomes&) const = default;
};

/// Counters the traced run reads from every rack's sink and the tracer.
struct Counts {
  std::uint64_t allocator_adaptations = 0;
  std::uint64_t safety_transitions = 0;
  std::uint64_t solves = 0;
  std::uint64_t qp_iterations = 0;
  std::uint64_t qp_not_converged = 0;
  std::uint64_t fault_activations = 0;
  std::uint64_t health_degraded = 0;
  std::uint64_t recovery_actions = 0;
  std::uint64_t recovery_escalations = 0;
  std::uint64_t events = 0;
  std::uint64_t events_dropped = 0;
  std::uint64_t trace_dropped = 0;

  bool operator==(const Counts&) const = default;
};

/// One pass of the whole pipeline.
struct PipelineRun {
  double spec_load_s = 0.0;
  double setup_s = 0.0;  ///< spec load + compile + Facility construction
  double run_s = 0.0;
  double report_s = 0.0;
  std::size_t racks = 0;
  std::size_t shards = 0;
  std::size_t declared_shards = 0;  ///< the workload's own (0 = per CPU)
  std::uint64_t rig_ticks = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the report
  std::uint64_t digest = kDigestSeed;
  std::vector<std::uint64_t> rack_digests;
  Outcomes sim;
  double recorder_mib = 0.0;
  std::vector<double> epoch_ms;  ///< wall time between epoch boundaries
};

struct PipelineMode {
  bool tracing = false;
  bool time_epochs = false;
  /// Called with the facility after the checks, before it is destroyed.
  std::function<void(scenario::Facility&)> inspect;
};

PipelineRun run_pipeline(const Options& o, const PipelineMode& mode) {
  PipelineRun out;
  const Clock::time_point t0 = Clock::now();
  scenario::FacilityConfig fc = load_workload(o.spec, o.seed, o.observability);
  out.spec_load_s = since(t0);
  out.declared_shards = fc.run_threads;
  if (o.shards != 0) fc.run_threads = o.shards;
  fc.tracing = mode.tracing;
  std::vector<Clock::time_point> marks;
  if (mode.time_epochs) {
    marks.reserve(static_cast<std::size_t>(
                      std::ceil(fc.rack.duration_s / fc.epoch_s)) +
                  1);
    fc.epoch_callback = [&marks](std::size_t, double) {
      marks.push_back(Clock::now());
    };
  }
  out.racks = fc.num_racks;

  std::unique_ptr<scenario::Facility> facility;
  try {
    facility = std::make_unique<scenario::Facility>(fc);
  } catch (const std::exception& e) {
    out.failed = out.racks;
    out.failures.push_back(std::string("facility construction threw: ") +
                           e.what());
    return out;
  }
  out.setup_s = since(t0);
  out.shards = facility->num_shards();

  const Clock::time_point t_run = Clock::now();
  if (mode.time_epochs) marks.push_back(t_run);
  facility->run();
  out.run_s = since(t_run);

  const Clock::time_point t_report = Clock::now();
  const std::vector<sprintcon::metrics::RunSummary> summaries =
      facility->summaries();
  const sprintcon::TimeSeries cb = facility->facility_cb_power();
  out.report_s = since(t_report);

  for (std::size_t i = 1; i < marks.size(); ++i) {
    out.epoch_ms.push_back(
        std::chrono::duration<double, std::milli>(marks[i] - marks[i - 1])
            .count());
  }

  std::size_t misses = 0;
  for (std::size_t r = 0; r < out.racks; ++r) {
    const sprintcon::sim::TraceRecorder& rec = facility->rig(r).recorder();
    const sprintcon::metrics::RunSummary& s = summaries[r];
    const std::string why = facility->rack_failed(r)
                                ? std::string("its run threw")
                                : rack_failure(rec, s);
    if (!why.empty()) {
      ++out.failed;
      if (out.failures.size() < 5) {
        out.failures.push_back("rack " + std::to_string(r) + ": " + why);
      }
    }
    const std::uint64_t d = channel_digest(rec);
    out.rack_digests.push_back(d);
    out.digest = fold_digest(out.digest, d);
    for (const sprintcon::TimeSeries* series : rec.all_series()) {
      out.recorder_mib += static_cast<double>(series->size()) * 8.0 /
                          (1024.0 * 1024.0);
    }
    out.rig_ticks += rec.all_series().front()->size();
    out.sim.ups_dod += s.depth_of_discharge;
    out.sim.p95_latency_ms += s.mean_p95_latency_ms;
    out.sim.unserved_wh += s.unserved_energy_wh;
    misses += s.all_deadlines_met ? 0 : 1;
  }
  const auto n = static_cast<double>(out.racks);
  out.sim.ups_dod /= n;
  out.sim.p95_latency_ms /= n;
  out.sim.deadline_miss_frac = static_cast<double>(misses) / n;
  if (cb.empty()) {
    ++out.failed;
    out.failures.push_back("facility_cb_power() is empty");
  }

  if (mode.inspect) mode.inspect(*facility);
  return out;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Fields every mode prints about its facility runs.
void describe_runs(Json& j, const std::vector<PipelineRun>& runs) {
  const PipelineRun& first = runs.front();
  bool deterministic = true;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> spec_load, setup, run, report;
  for (const PipelineRun& r : runs) {
    deterministic = deterministic && r.digest == first.digest &&
                    r.sim == first.sim && r.failed == first.failed;
    failed += r.failed;
    for (const std::string& f : r.failures) {
      if (failures.size() < 5) failures.push_back(f);
    }
    spec_load.push_back(r.spec_load_s);
    setup.push_back(r.setup_s);
    run.push_back(r.run_s);
    report.push_back(r.report_s);
  }
  Json sim;
  sim.num("ups_dod", first.sim.ups_dod)
      .num("p95_latency_ms", first.sim.p95_latency_ms)
      .num("unserved_wh", first.sim.unserved_wh)
      .num("deadline_miss_frac", first.sim.deadline_miss_frac);
  j.str("build_type", PERFBENCH_BUILD_TYPE)
      .count("racks", first.racks)
      .count("shards", first.shards)
      .count("declared_shards", first.declared_shards)
      .count("rig_ticks", first.rig_ticks)
      .count("reps", runs.size())
      .nums("spec_load_s", spec_load)
      .nums("setup_s", setup)
      .nums("run_s", run)
      .nums("report_s", report)
      .str("digest", hex(first.digest))
      .flag("deterministic", deterministic)
      .count("rack_runs", first.racks * runs.size())
      .count("failed_rack_runs", failed)
      .strs("failures", failures)
      .raw("sim", sim.done())
      .num("recorder_mib", first.recorder_mib);
}

/// The channel digest at --digest-seed, so that every run, whatever its
/// own seed, can be checked against the stored digest (untimed).
std::string digest_at_digest_seed(const Options& o,
                                  const PipelineRun& measured) {
  if (o.digest_seed == o.seed) return hex(measured.digest);
  Options at = o;
  at.seed = o.digest_seed;
  return hex(run_pipeline(at, {}).digest);
}

int measure(const Options& o) {
  const Clock::time_point start = Clock::now();
  std::vector<PipelineRun> runs;
  // A user runs the pipeline once per process, so memory is read after
  // the first repetition; later ones only add allocator churn.
  double first_rep_rss_mib = 0.0;
  do {
    runs.push_back(run_pipeline(o, {}));
    runs.back().rack_digests.clear();
    if (runs.size() == 1) first_rep_rss_mib = peak_rss_mib();
  } while (runs.size() < kMinReps || since(start) < o.seconds);
  Json j;
  j.str("mode", "measure");
  describe_runs(j, runs);
  j.num("peak_rss_mib", first_rep_rss_mib)
      .str("digest_seed_digest", digest_at_digest_seed(o, runs.front()));
  std::cout << j.done() << std::endl;
  return 0;
}

/// What one traced facility run yields.
struct TracedRun {
  DecisionSpans spans;
  ShardFigures shards;
  Counts counts;
};

TracedRun harvest(scenario::Facility& facility) {
  TracedRun t;
  for (std::size_t r = 0; r < facility.num_racks(); ++r) {
    const obs::ObsSink* sink = facility.rig(r).obs();
    if (sink == nullptr) continue;
    if (const obs::TraceBuffer* tb = sink->trace(); tb != nullptr) {
      t.spans.add(tb->events());
    }
    const obs::MetricsSnapshot m = sink->metrics().snapshot();
    Counts& c = t.counts;
    c.allocator_adaptations += m.counter("allocator.adaptations");
    c.safety_transitions += m.counter("safety.transitions");
    c.solves += m.counter("mpc.solves.structured") +
                m.counter("mpc.solves.dense");
    c.qp_iterations += m.counter("mpc.qp.iterations");
    c.qp_not_converged += m.counter("mpc.qp.not_converged");
    c.fault_activations += m.counter("fault.activations");
    c.health_degraded += m.counter("health.degraded");
    c.recovery_actions += m.counter("recovery.actions");
    c.recovery_escalations += m.counter("recovery.escalations");
    c.events += sink->events().total_emitted();
    c.events_dropped += sink->events().dropped();
  }
  if (const obs::Tracer* tracer = facility.tracer(); tracer != nullptr) {
    t.counts.trace_dropped = tracer->total_dropped();
    // Rack buffers are registered first, shard buffers after them.
    t.shards = shard_figures(*tracer, facility.num_racks(),
                             facility.num_shards());
  }
  return t;
}

/// Layer timings of the racks rebuilt outside the facility.
struct DrivenFigures {
  LayerTimes replay;       ///< untraced driven loop
  LayerTimes traced;       ///< driven loop with the controller's spans on
  double traced_child_s = 0.0;  ///< mpc_solve + power_outcome in `traced`
  std::uint64_t run_ticks = 0;  ///< Rig::run() on identical racks
  double run_s = 0.0;
  std::vector<double> tick_us;  ///< Simulation::step_once(), full config
  std::size_t builds = 0;
  double build_s = 0.0;
  std::size_t cores = 0;
  DecisionSpans::Stats bids;  ///< bid_collect spans of the bidding racks
  bool bit_identical = true;
  bool traced_identical = true;
  bool matches_facility = true;
  bool spans_complete = true;
};

/// The controller's decision spans on a sink attached to it alone: the
/// rig keeps no sink and no hooks, so its ticks stay replayable. Declare
/// it before the rig it attaches to, so the sink outlives the rig.
class ControllerSpans {
 public:
  explicit ControllerSpans(const scenario::RigConfig& cfg)
      : tracer_(16 * static_cast<std::size_t>(
                         std::ceil(cfg.duration_s / cfg.dt_s)) +
                64) {
    sink_.set_trace(&tracer_.register_buffer("controller"));
  }
  ControllerSpans(const ControllerSpans&) = delete;
  ControllerSpans& operator=(const ControllerSpans&) = delete;

  void attach(scenario::Rig& rig) { rig.sprintcon()->set_obs(&sink_); }
  DecisionSpans read() const {
    DecisionSpans spans;
    spans.add(sink_.trace()->events());
    return spans;
  }
  bool complete() const { return tracer_.total_dropped() == 0; }

 private:
  obs::Tracer tracer_;
  obs::ObsSink sink_;
};

void driven_pass(const Options& o, const scenario::FacilityConfig& fc,
                 const std::vector<std::uint64_t>& facility_digests,
                 DrivenFigures& f) {
  const std::size_t k = std::min(kDrivenRacks, fc.num_racks);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t r = i * fc.num_racks / k;
    const scenario::RigConfig cfg = rack_config(fc, r);
    const scenario::RigConfig replayable = drivable(cfg);

    // The rack as the facility runs it, ticked through step_once().
    const Clock::time_point t_build = Clock::now();
    scenario::Rig full(cfg);
    f.build_s += since(t_build);
    ++f.builds;
    time_step_once(full, f.tick_us);
    // Recovery re-routes load between racks, so only then may a rack
    // rebuilt alone differ from the facility's.
    if (!fc.recovery &&
        channel_digest(full.recorder()) != facility_digests.at(r)) {
      f.matches_facility = false;
    }

    scenario::Rig reference(replayable);
    const Clock::time_point t_run = Clock::now();
    reference.run();
    f.run_s += since(t_run);
    f.run_ticks += reference.recorder().all_series().front()->size();

    scenario::Rig replay(replayable);
    f.replay += drive_ticks(replay, !o.skip_sample);
    f.bit_identical = f.bit_identical &&
                      channels_identical(reference.recorder(),
                                         replay.recorder());
    f.cores = 0;
    for (const auto& server : replay.rack().servers()) {
      f.cores += server.cores().size();
    }

    ControllerSpans traced_spans(replayable);
    scenario::Rig traced(replayable);
    traced_spans.attach(traced);
    f.traced += drive_ticks(traced, !o.skip_sample);
    f.traced_identical = f.traced_identical &&
                         channels_identical(reference.recorder(),
                                            traced.recorder());
    const DecisionSpans spans = traced_spans.read();
    f.traced_child_s += (spans[DecisionSpan::kMpcSolve].sum_us +
                         spans[DecisionSpan::kPowerOutcome].sum_us) *
                        1e-6;

    // Only degraded modes bid; the same rack held in the conservative-cap
    // mode takes the bidding path every control period.
    ControllerSpans bid_spans(replayable);
    scenario::Rig bidding(replayable);
    bidding.sprintcon()->set_control_mode(
        sprintcon::core::ControlMode::kConservativeCap);
    bid_spans.attach(bidding);
    bidding.run();
    f.bids += bid_spans.read()[DecisionSpan::kBidCollect];

    f.spans_complete = f.spans_complete && traced_spans.complete() &&
                       bid_spans.complete();
  }
}

int trace(const Options& o) {
  const Clock::time_point start = Clock::now();
  std::vector<PipelineRun> plain;
  std::vector<PipelineRun> traced_runs;
  std::vector<TracedRun> traced;
  PipelineMode untraced_mode;
  untraced_mode.time_epochs = true;
  PipelineMode traced_mode;
  traced_mode.tracing = true;
  traced_mode.inspect = [&](scenario::Facility& f) {
    traced.push_back(harvest(f));
  };
  do {
    plain.push_back(run_pipeline(o, untraced_mode));
    traced_runs.push_back(run_pipeline(o, traced_mode));
  } while (since(start) < 0.5 * o.seconds);

  // The traced facility must repeat the untraced one exactly, and its
  // counts must repeat from run to run.
  bool tracing_identical = true;
  bool counts_repeat = true;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    tracing_identical =
        tracing_identical && traced_runs[i].digest == plain.front().digest;
    counts_repeat = counts_repeat && traced[i].counts == traced.front().counts;
  }

  const scenario::FacilityConfig fc =
      load_workload(o.spec, o.seed, o.observability);
  DrivenFigures d;
  do {
    driven_pass(o, fc, plain.front().rack_digests, d);
  } while (since(start) < o.seconds);

  // --- per-layer figures ---------------------------------------------------
  DecisionSpans spans;
  std::vector<double> parallel_eff, imbalance, barrier_frac, concurrency;
  for (const TracedRun& t : traced) {
    for (std::size_t s = 0; s < spans.stats.size(); ++s) {
      spans.stats[s] += t.spans.stats[s];
    }
    spans.mpc_solve_us.insert(spans.mpc_solve_us.end(),
                              t.spans.mpc_solve_us.begin(),
                              t.spans.mpc_solve_us.end());
    parallel_eff.push_back(t.shards.parallel_eff());
    imbalance.push_back(t.shards.imbalance());
    barrier_frac.push_back(t.shards.barrier_wait_frac());
    concurrency.push_back(t.shards.concurrency());
  }
  std::vector<double> plain_run_s, traced_run_s, spec_load_s, report_s,
      epoch_ms;
  for (const PipelineRun& r : plain) {
    plain_run_s.push_back(r.run_s);
    spec_load_s.push_back(r.spec_load_s);
    report_s.push_back(r.report_s);
    epoch_ms.insert(epoch_ms.end(), r.epoch_ms.begin(), r.epoch_ms.end());
  }
  for (const PipelineRun& r : traced_runs) traced_run_s.push_back(r.run_s);

  const Counts& c = traced.front().counts;
  const auto per_tick_us = [](double s, std::uint64_t ticks) {
    return ratio(s * 1e6, static_cast<double>(ticks));
  };
  // Layer times are net of the replay's own clock reads.
  const double read_s = clock_read_s();
  const LayerTimes replay = d.replay.without_clock_reads(read_s);
  const LayerTimes controller = d.traced.without_clock_reads(read_s);
  const double rack_us = per_tick_us(replay.rack_s, replay.ticks);
  const double ctrl_us = per_tick_us(replay.controller_s, replay.ticks);
  const double rec_us = per_tick_us(replay.recorder_s, replay.ticks);
  const double driven_us = per_tick_us(replay.loop_s, replay.ticks);
  const double run_tick_us = per_tick_us(d.run_s, d.run_ticks);
  const double step_once_p50_us = quantile(d.tick_us, 0.50) - read_s * 1e6;
  const double step_once_p99_us = quantile(d.tick_us, 0.99) - read_s * 1e6;
  const double layer_sum_err =
      std::abs(rack_us + ctrl_us + rec_us - driven_us) / driven_us;
  const double tick_err = std::abs(driven_us - run_tick_us) / run_tick_us;

  Json layers;
  layers.num("scenario.spec_load_ms", quantile(spec_load_s, 0.5) * 1e3)
      .num("scenario.rig_build_us",
           ratio(d.build_s * 1e6, static_cast<double>(d.builds)))
      .num("facility.parallel_eff", quantile(parallel_eff, 0.5))
      .num("facility.imbalance", quantile(imbalance, 0.5))
      .num("facility.barrier_wait_frac", quantile(barrier_frac, 0.5))
      .num("facility.epoch_ms.p50", quantile(epoch_ms, 0.50))
      .num("facility.epoch_ms.p99", quantile(epoch_ms, 0.99))
      .num("sim.tick_us.p50", step_once_p50_us)
      .num("sim.tick_us.p99", step_once_p99_us)
      .num("sim.driven_tick_us", driven_us)
      .num("sim.rig_run_tick_us", run_tick_us)
      .num("sim.recorder_us", rec_us)
      .num("sim.recorder_mb", plain.front().recorder_mib)
      .num("server.rack_step_us", rack_us)
      .num("server.core_step_ns",
           ratio(rack_us * 1e3, static_cast<double>(d.cores)))
      .num("core.controller_step_us", ctrl_us)
      .num("core.controller_self_us",
           per_tick_us(controller.controller_s - d.traced_child_s,
                       controller.ticks))
      .num("core.allocator_epoch_us",
           spans[DecisionSpan::kAllocatorEpoch].mean_us())
      .num("core.bid_collect_us", d.bids.mean_us())
      .count("allocator.adaptations", c.allocator_adaptations)
      .count("safety.transitions", c.safety_transitions)
      .num("control.mpc_solve_us.p50", quantile(spans.mpc_solve_us, 0.50))
      .num("control.mpc_solve_us.p99", quantile(spans.mpc_solve_us, 0.99))
      .num("control.qp_iters_per_solve",
           ratio(static_cast<double>(c.qp_iterations),
                 static_cast<double>(c.solves)))
      .num("control.qp_not_converged_frac",
           ratio(static_cast<double>(c.qp_not_converged),
                 static_cast<double>(c.solves)))
      .count("control.solves", c.solves)
      .num("power.path_step_us", spans[DecisionSpan::kPowerOutcome].mean_us())
      .count("fault.activations", c.fault_activations)
      .count("health.degraded", c.health_degraded)
      .count("recovery.actions", c.recovery_actions)
      .count("recovery.escalations", c.recovery_escalations)
      .count("obs.events", c.events)
      .count("obs.events_dropped", c.events_dropped)
      .count("obs.trace_dropped", c.trace_dropped)
      .num("obs.trace_overhead_frac",
           quantile(traced_run_s, 0.5) / quantile(plain_run_s, 0.5) - 1.0)
      .num("metrics.report_ms", quantile(report_s, 0.5) * 1e3);

  const bool sharded = plain.front().declared_shards != 1;
  // The median traced run, so that one run caught in a host stall does
  // not fail a sharded workload.
  const double busy_shards = quantile(concurrency, 0.5);
  Json checks;
  checks.flag("bit_identical", d.bit_identical)
      .flag("traced_replay_identical", d.traced_identical)
      .flag("driven_spans_complete", d.spans_complete)
      .flag("rebuilt_rack_matches_facility", d.matches_facility)
      .flag("tracing_identical", tracing_identical)
      .flag("counts_repeat", counts_repeat)
      .flag("layer_sum", layer_sum_err <= kLayerSumTolerance)
      .flag("tick_matches_run", tick_err <= kLayerSumTolerance)
      .flag("sharded", !sharded || busy_shards >= kMinConcurrency);
  Json values;
  values.num("layer_sum_err", layer_sum_err)
      .num("tick_err", tick_err)
      .num("busy_shards", busy_shards)
      .count("shard_epochs", traced.front().shards.epochs)
      .count("driven_ticks", d.replay.ticks)
      .count("traced_reps", traced.size());

  Json j;
  j.str("mode", "trace");
  describe_runs(j, plain);
  j.str("digest_seed_digest", digest_at_digest_seed(o, plain.front()))
      .raw("layers", layers.done())
      .raw("checks", checks.done())
      .raw("check_values", values.done());
  std::cout << j.done() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Options o = perfbench::parse_args(argc, argv);
    return o.trace ? perfbench::trace(o) : perfbench::measure(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
