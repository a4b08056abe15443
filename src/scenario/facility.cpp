#include "scenario/facility.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <exception>
#include <thread>

#include "common/thread_annotations.hpp"
#include "common/validation.hpp"

namespace sprintcon::scenario {

namespace {

/// Captures *every* worker exception — the first as an exception_ptr for
/// rethrow, all of them as (worker, epoch, what) records. Workers race on
/// capture(); errors() / rethrow_first() are meant for after they have
/// joined, but take the lock anyway: the annotations make lock-free
/// "post-join only" readers impossible to express, and the uncontended
/// lock on these cold paths costs nothing.
class ErrorCollector {
 public:
  void capture(std::size_t worker, std::size_t epoch) noexcept {
    const MutexLock lock(mu_);
    if (!eptr_) eptr_ = std::current_exception();
    WorkerError err{worker, epoch, "unknown"};
    try {
      throw;  // re-enter the active exception to read its message
    } catch (const std::exception& e) {
      err.what = e.what();
    } catch (...) {
    }
    errors_.push_back(std::move(err));
  }
  void rethrow_first() {
    std::exception_ptr first;
    {
      const MutexLock lock(mu_);
      first = eptr_;
    }
    if (first) std::rethrow_exception(first);
  }
  bool any() const noexcept {
    const MutexLock lock(mu_);
    return eptr_ != nullptr;
  }
  std::vector<WorkerError> take_errors() {
    const MutexLock lock(mu_);
    std::sort(errors_.begin(), errors_.end(),
              [](const WorkerError& a, const WorkerError& b) {
                return a.worker != b.worker ? a.worker < b.worker
                                            : a.epoch < b.epoch;
              });
    return std::move(errors_);
  }

 private:
  mutable Mutex mu_;
  std::exception_ptr eptr_ SPRINTCON_GUARDED_BY(mu_);
  std::vector<WorkerError> errors_ SPRINTCON_GUARDED_BY(mu_);
};

/// Run `work(w)` for every worker w in [0, n) and return once all of them
/// have finished. `work` must not throw. A single worker runs on the
/// caller. Several each get a std::thread while the caller waits: a
/// caller-run shard allocates from glibc's main arena, which returns
/// freed pages to the OS, so every rebuilt fleet re-faults that shard's
/// memory (measured: ~1.8k extra minor faults and +30% construction time
/// per 500-rig, 2-shard facility on a 4-vCPU x86-64 host).
template <typename Work>
void run_workers(std::size_t n, const Work& work) {
  if (n == 1) {
    work(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t w = 0; w < n; ++w) threads.emplace_back(work, w);
  for (std::thread& t : threads) t.join();
}

}  // namespace

void FacilityConfig::validate() const {
  SPRINTCON_EXPECTS(num_racks > 0, "facility needs at least one rack");
  SPRINTCON_EXPECTS(epoch_s > 0.0, "epoch length must be positive");
  rack.validate();
}

std::pair<std::size_t, std::size_t> Facility::shard_range(
    std::size_t w) const {
  const std::size_t n = rigs_.size();
  return {w * n / num_workers_, (w + 1) * n / num_workers_};
}

Facility::Facility(const FacilityConfig& config) : config_(config) {
  config.validate();
  num_workers_ = config.run_threads != 0
                     ? config.run_threads
                     : std::max<std::size_t>(
                           1, std::thread::hardware_concurrency());
  num_workers_ = std::min(num_workers_, config.num_racks);

  const double cycle = config.rack.sprint.cb_overload_duration_s +
                       config.rack.sprint.cb_recovery_duration_s;
  const auto rack_config = [&](std::size_t r) {
    RigConfig rack_cfg = config.rack;
    rack_cfg.seed = config.rack.seed + r;  // distinct workloads per rack
    rack_cfg.observability =
        config.observability || config.tracing || config.rack.observability;
    rack_cfg.health = config.health || config.rack.health;
    rack_cfg.recovery = config.recovery || config.rack.recovery;
    if (config.staggered) {
      rack_cfg.sprint.schedule_offset_s =
          cycle * static_cast<double>(r) /
          static_cast<double>(config.num_racks);
    }
    return rack_cfg;
  };

  // Each worker constructs its own shard's rigs — construction is the
  // dominant cost at fleet scale (thousands of rigs) and rigs are
  // self-contained, so it shards as cleanly as execution does. The
  // vector is pre-sized; workers write disjoint slots. Construction
  // failures always fail fast — a half-built facility has no surviving
  // shards worth degrading to.
  rigs_.resize(config.num_racks);
  rig_failed_.assign(config.num_racks, 0);
  rerouted_out_.assign(config.num_racks, 0);
  ErrorCollector error;
  run_workers(num_workers_, [&](std::size_t w) {
    const auto [first, last] = shard_range(w);
    try {
      for (std::size_t r = first; r < last; ++r) {
        rigs_[r] = std::make_unique<Rig>(rack_config(r));
      }
    } catch (...) {
      error.capture(w, 0);
    }
  });
  error.rethrow_first();

  if (config.observability) {
    obs_ = std::make_unique<obs::ObsSink>();
    rack_run_us_ = &obs_->metrics().histogram("facility.rack_run_us");
  }

  // Tracing: one buffer per rack for the decision-path spans (attached to
  // the rig's sink, appended by whichever single worker owns the rig) and
  // one per worker shard for the runtime spans. All buffers share the
  // tracer's epoch so the merged timeline lines up in Perfetto.
  if (config.tracing) {
    tracer_ = std::make_unique<obs::Tracer>();
    for (std::size_t r = 0; r < rigs_.size(); ++r) {
      rigs_[r]->obs()->set_trace(
          &tracer_->register_buffer("rack " + std::to_string(r)));
    }
    shard_buffers_.reserve(num_workers_);
    for (std::size_t w = 0; w < num_workers_; ++w) {
      shard_buffers_.push_back(
          &tracer_->register_buffer("shard " + std::to_string(w)));
    }
  }
}

Facility::~Facility() {
  // Last built, first freed. The first chunks a thread frees stay in its
  // allocator cache, so freeing each shard's newest rigs first keeps the
  // top of that shard's heap in use and glibc does not trim it; freeing
  // the oldest first let the rest coalesce into the top, which was
  // trimmed and re-faulted by the next build (measured: a rebuilt 500-rig,
  // 2-shard facility re-faulted one shard's heap, ~3k minor faults, on 58%
  // of repetitions in forward order and 5% in reverse; 4-vCPU x86-64
  // host, glibc 2.36).
  for (auto it = rigs_.rbegin(); it != rigs_.rend(); ++it) it->reset();
}

void Facility::run() {
  if (ran_) return;
  const double duration = config_.rack.duration_s;
  const std::size_t num_epochs = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(duration / config_.epoch_s)));
  const auto start = std::chrono::steady_clock::now();

  // Advance one worker's shard to the end of epoch `e`. The final epoch
  // goes through Rig::run() so the rig latches its ran_ flag. Per-rig
  // wall time accumulates worker-locally; the shared histogram is only
  // touched once per rig at the end (it is atomic-safe regardless).
  std::vector<double> rig_run_s(rigs_.size(), 0.0);
  const auto advance_shard = [&](std::size_t w, std::size_t e) {
    obs::TraceBuffer* const tb =
        w < shard_buffers_.size() ? shard_buffers_[w] : nullptr;
    const obs::ScopedSpan shard_span(tb, "shard_epoch", "facility", "epoch",
                                     static_cast<double>(e));
    const auto [first, last] = shard_range(w);
    const double t_epoch = std::min(
        config_.epoch_s * static_cast<double>(e + 1), duration);
    const bool final_epoch = e + 1 == num_epochs;
    for (std::size_t r = first; r < last; ++r) {
      const obs::ScopedSpan rig_span(tb, "rig_batch", "facility", "rig",
                                     static_cast<double>(r));
      const auto t0 = std::chrono::steady_clock::now();
      if (final_epoch) {
        rigs_[r]->run();
      } else {
        rigs_[r]->run_until(t_epoch);
      }
      rig_run_s[r] +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    }
  };

  ErrorCollector error;
  const auto mark_shard_failed = [&](std::size_t w) {
    const auto [first, last] = shard_range(w);
    for (std::size_t r = first; r < last; ++r) rig_failed_[r] = 1;
  };

  // Re-route coordinator: steer interactive request load away from
  // out-of-service racks (lost to a worker failure, or held in quarantine
  // by their rig's recovery engine) and conserve the offered load across
  // the survivors. Runs only at epoch boundaries with every worker
  // parked, so inspecting any rig is safe; scales are rewritten only when
  // the out-of-service set changes, so a fault-free run never touches a
  // queue.
  const auto reroute = [&](double t_s) {
    std::vector<std::uint8_t> out(rigs_.size(), 0);
    std::size_t num_out = 0;
    std::size_t with_queues = 0;
    for (std::size_t r = 0; r < rigs_.size(); ++r) {
      if (rigs_[r]->request_queues().empty()) continue;
      ++with_queues;
      const recovery::RecoveryManager* rec = rigs_[r]->recovery();
      out[r] = rig_failed_[r] != 0 ||
               (rec != nullptr && rec->quarantined());
      num_out += out[r];
    }
    if (out == rerouted_out_) return;
    rerouted_out_ = out;
    const std::size_t survivors = with_queues - num_out;
    const double scale = survivors > 0
                             ? static_cast<double>(with_queues) /
                                   static_cast<double>(survivors)
                             : 0.0;
    for (std::size_t r = 0; r < rigs_.size(); ++r) {
      const auto& queues = rigs_[r]->request_queues();
      if (queues.empty()) continue;
      const double s = out[r] != 0 ? 0.0 : scale;
      for (workload::RequestQueueSource* q : queues) q->set_load_scale(s);
    }
    if (obs_ != nullptr) {
      obs_->metrics().counter("facility.reroutes").add(1);
      obs_->metrics()
          .gauge("facility.quarantined_racks")
          .set(static_cast<double>(num_out));
      obs_->events().emit(t_s, obs::EventType::kCustom, "load_reroute",
                          {{"out_of_service", static_cast<double>(num_out)},
                           {"scale", scale}});
    }
  };

  // Re-route whenever the rigs run a recovery engine, however it was
  // asked for (facility-wide or per rack).
  const bool reroutes = rigs_.front()->recovery() != nullptr;
  // Epoch boundary: every shard has reached the same simulated time and
  // every worker is parked, so the callback may inspect any rig. Epoch
  // callback exceptions are attributed to pseudo-worker `num_workers_`.
  std::size_t epoch_index = 0;
  const auto on_epoch = [&]() noexcept {
    const double t_s = std::min(
        config_.epoch_s * static_cast<double>(epoch_index + 1), duration);
    if (reroutes) reroute(t_s);
    if (config_.epoch_callback) {
      try {
        config_.epoch_callback(epoch_index, t_s);
      } catch (...) {
        error.capture(num_workers_, epoch_index);
      }
    }
    ++epoch_index;
  };

  const bool degrade =
      config_.worker_failure == WorkerFailurePolicy::kDegrade;
  std::barrier barrier(static_cast<std::ptrdiff_t>(num_workers_), on_epoch);
  run_workers(num_workers_, [&](std::size_t w) {
    obs::TraceBuffer* const tb =
        w < shard_buffers_.size() ? shard_buffers_[w] : nullptr;
    bool failed = false;
    for (std::size_t e = 0; e < num_epochs; ++e) {
      if (!failed) {
        try {
          advance_shard(w, e);
        } catch (...) {
          error.capture(w, e);
          failed = true;  // keep arriving so peers don't deadlock
          // Under kDegrade the shard's racks go out of service; the
          // flags are written only by this owning worker and read at
          // the barrier (or after join), so this does not race.
          if (degrade) mark_shard_failed(w);
        }
      }
      // Barrier wait is the shard-imbalance signal: a worker whose
      // epoch_barrier span dwarfs its shard_epoch span is starved.
      const obs::ScopedSpan wait_span(tb, "epoch_barrier", "facility",
                                      "epoch", static_cast<double>(e));
      barrier.arrive_and_wait();
    }
  });

  // Every captured exception — not just the first — is surfaced: counted,
  // emitted as events (post-join on this thread; the EventLog is
  // single-writer), and kept in worker_errors() even when kFailFast
  // rethrows below.
  worker_errors_ = error.take_errors();
  if (!worker_errors_.empty() && obs_ != nullptr) {
    obs_->metrics().counter("facility.worker_errors")
        .add(worker_errors_.size());
    for (const WorkerError& err : worker_errors_) {
      obs_->events().emit(
          std::min(config_.epoch_s * static_cast<double>(err.epoch + 1),
                   duration),
          obs::EventType::kCustom, "worker_failure",
          {{"worker", static_cast<double>(err.worker)},
           {"epoch", static_cast<double>(err.epoch)}});
    }
  }
  if (!degrade) {
    error.rethrow_first();
  } else if (obs_ != nullptr && error.any()) {
    obs_->metrics()
        .gauge("facility.failed_racks")
        .set(static_cast<double>(num_failed_racks()));
  }

  if (rack_run_us_ != nullptr) {
    for (const double s : rig_run_s) rack_run_us_->record(s * 1e6);
  }
  if (obs_ != nullptr) {
    auto& m = obs_->metrics();
    m.counter("facility.racks").add(rigs_.size());
    m.counter("facility.epochs").add(num_epochs);
    m.gauge("facility.shards").set(static_cast<double>(num_workers_));
    m.gauge("facility.run_s")
        .set(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count());
  }
  ran_ = true;
}

Rig& Facility::rig(std::size_t i) {
  SPRINTCON_EXPECTS(i < rigs_.size(), "rack index out of range");
  return *rigs_[i];
}

TimeSeries Facility::sum_channel(const char* channel,
                                 const char* name) const {
  SPRINTCON_ENSURES(ran_, "run() the facility before aggregating");
  // The recorder's series() lookup is a by-name search; resolve each rack's
  // channel once instead of once per (sample, rack) pair.
  std::vector<const TimeSeries*> series;
  series.reserve(rigs_.size());
  const TimeSeries* ref = nullptr;  // longest series sets the time base
  for (const auto& rig : rigs_) {
    const TimeSeries* s = &rig->recorder().series(channel);
    series.push_back(s);
    if (ref == nullptr || s->size() > ref->size()) ref = s;
  }
  SPRINTCON_ENSURES(ref != nullptr && ref->size() > 0,
                    "no samples recorded on any rack");
  TimeSeries sum(name, ref->dt_s(), ref->start_s());
  for (std::size_t i = 0; i < ref->size(); ++i) {
    double total = 0.0;
    for (const TimeSeries* s : series) {
      // A rack lost to a worker failure mid-run has a short (possibly
      // empty) series: hold its last sample, contribute nothing if it
      // never produced one.
      if (s->size() == 0) continue;
      total += (*s)[std::min(i, s->size() - 1)];
    }
    sum.push(total);
  }
  return sum;
}

bool Facility::rack_failed(std::size_t i) const {
  SPRINTCON_EXPECTS(i < rig_failed_.size(), "rack index out of range");
  return rig_failed_[i] != 0;
}

std::size_t Facility::num_failed_racks() const noexcept {
  std::size_t n = 0;
  for (const std::uint8_t f : rig_failed_) n += f;
  return n;
}

std::vector<std::size_t> Facility::quarantined_racks() const {
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < rigs_.size(); ++r) {
    const recovery::RecoveryManager* rec = rigs_[r]->recovery();
    if (rig_failed_[r] != 0 || (rec != nullptr && rec->quarantined())) {
      out.push_back(r);
    }
  }
  return out;
}

TimeSeries Facility::facility_cb_power() const {
  return sum_channel("cb_power_w", "facility_cb_power_w");
}

TimeSeries Facility::facility_total_power() const {
  return sum_channel("total_power_w", "facility_total_power_w");
}

double Facility::cb_peak_to_mean() const {
  const TimeSeries series = facility_cb_power();
  return series.max() / series.mean();
}

std::vector<metrics::RunSummary> Facility::summaries() const {
  std::vector<metrics::RunSummary> out;
  out.reserve(rigs_.size());
  for (const auto& rig : rigs_) out.push_back(rig->summary());
  return out;
}

std::vector<obs::RunReport> Facility::reports() const {
  SPRINTCON_ENSURES(config_.observability,
                    "Facility::reports() needs FacilityConfig::observability");
  std::vector<obs::RunReport> out;
  out.reserve(rigs_.size());
  for (std::size_t i = 0; i < rigs_.size(); ++i) {
    obs::RunReport r = rigs_[i]->report();
    r.label += "/rack" + std::to_string(i);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace sprintcon::scenario
