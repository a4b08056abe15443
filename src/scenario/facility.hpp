// Facility: several sprinting racks behind one feed.
//
// The paper notes that sprinting power "can consume the headroom in the
// data-center level power budget". A facility hosting K SprintCon racks
// controls that headroom by staggering the racks' CB overload windows:
// each rack keeps its own safety envelope, but the *aggregate* draw stays
// nearly flat instead of inheriting K synchronized square waves. This is
// the library form of the `ablation_stagger` experiment.
//
// Execution model (sharded, see DESIGN.md): each worker owns a fixed
// contiguous shard of rigs for the whole run; a single worker is the
// caller thread, several are one std::thread each. Workers construct
// their own shard's rigs, then advance them independently in simulated
// time, meeting at a barrier every `epoch_s` simulated seconds — the
// cadence at which a facility-level allocator would redistribute power
// budgets. Rigs share nothing (per-rig RNG, recorder, controllers), so
// the results are bit-identical at any shard count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/time_series.hpp"
#include "scenario/rig.hpp"

namespace sprintcon::scenario {

/// What run() does when a shard worker throws mid-run.
enum class WorkerFailurePolicy : std::uint8_t {
  /// Every worker finishes its epoch loop (the barrier needs them), then
  /// the first exception rethrows from run(). Historical behavior.
  kFailFast,
  /// The failing worker's rigs are marked failed (reported quarantined);
  /// surviving shards complete the run and run() returns normally. The
  /// errors stay visible via worker_errors(), the
  /// facility.worker_errors counter, and worker_failure events.
  kDegrade,
};

/// One captured worker exception (see Facility::worker_errors()).
struct WorkerError {
  std::size_t worker = 0;  ///< shard id that threw
  std::size_t epoch = 0;   ///< epoch index in flight when it threw
  std::string what;        ///< exception message ("unknown" if untyped)
};

/// Facility-level configuration.
struct FacilityConfig {
  std::size_t num_racks = 4;
  /// Stagger the racks' overload windows by cycle/num_racks each.
  bool staggered = true;
  /// Workers (= shards). Each worker owns a fixed contiguous shard of
  /// rigs for the whole run — it constructs them and advances them — so
  /// there is no per-tick or per-task handoff. One worker runs on the
  /// calling thread; with more, each gets a std::thread and the caller
  /// waits. Either way the same epoch loop and barrier run. 0 = one worker
  /// per hardware thread; capped at num_racks.
  std::size_t run_threads = 0;
  /// Simulated seconds between facility-wide synchronization points.
  /// Workers advance their shards independently and meet at a barrier
  /// every epoch (the cadence of a facility-level power reallocation).
  /// Larger epochs = less synchronization; results are bit-identical at
  /// any epoch length because rigs share no state.
  double epoch_s = 30.0;
  /// Optional hook run at every epoch boundary (including the final one)
  /// with every worker parked at the barrier: all rigs are quiescent and
  /// safe to inspect. Called as (epoch_index, simulated_time_s) on one of
  /// the worker threads (the caller, on one shard). Under kFailFast it
  /// still runs for every epoch after a worker has thrown, before run()
  /// rethrows.
  std::function<void(std::size_t, double)> epoch_callback;
  /// Per-rack configuration template; each rack gets seed + rack index.
  RigConfig rack;
  /// Observability: gives every rig its own ObsSink (events + metrics)
  /// plus a facility-level sink aggregating rack run times and shard
  /// statistics; exported through reports().
  bool observability = false;
  /// Span tracing (implies observability): builds a Tracer with one
  /// TraceBuffer per rack (decision-path spans: allocator_epoch,
  /// bid_collect, mpc_solve, dvfs_actuate, power_outcome) and one per
  /// worker shard (shard_epoch / rig_batch / epoch_barrier spans), merged
  /// by tracer()->write_chrome_trace() into Perfetto-loadable JSON.
  bool tracing = false;
  /// Forwarded to every rack: enable the per-rig HealthMonitor.
  bool health = false;
  /// Forwarded to every rack: enable the per-rig recovery engine
  /// (implies health). Whenever the rigs run one (this flag or
  /// rack.recovery), the facility also re-routes interactive request
  /// load away from quarantined/failed rigs at every epoch boundary,
  /// conserving the offered load across the survivors.
  bool recovery = false;
  /// Supervision policy for shard workers that throw mid-run.
  WorkerFailurePolicy worker_failure = WorkerFailurePolicy::kFailFast;

  void validate() const;
};

/// Owns and runs one rig per rack; aggregates facility-level metrics.
class Facility {
 public:
  explicit Facility(const FacilityConfig& config);
  /// Destroys the rigs in reverse construction order (see facility.cpp).
  ~Facility();

  /// Run every rack's sprint (idempotent), sharded across
  /// config.run_threads long-lived workers.
  void run();

  std::size_t num_racks() const noexcept { return rigs_.size(); }
  /// Number of worker shards run() will use (resolved at construction).
  std::size_t num_shards() const noexcept { return num_workers_; }
  Rig& rig(std::size_t i);

  /// Sum of the racks' CB power, sample by sample.
  TimeSeries facility_cb_power() const;
  /// Sum of the racks' total power.
  TimeSeries facility_total_power() const;

  /// Facility peak-to-mean ratio of the CB draw (1.0 = perfectly flat).
  double cb_peak_to_mean() const;

  /// Per-rack summaries.
  std::vector<metrics::RunSummary> summaries() const;

  /// Per-rack structured reports (requires config.observability).
  std::vector<obs::RunReport> reports() const;

  /// Facility-level sink (rack run-time histogram, shard/epoch stats);
  /// null unless config.observability is set.
  const obs::ObsSink* obs() const noexcept { return obs_.get(); }

  /// Span tracer; null unless config.tracing is set. Export with
  /// write_chrome_trace() after run() returns (never concurrently).
  obs::Tracer* tracer() noexcept { return tracer_.get(); }
  const obs::Tracer* tracer() const noexcept { return tracer_.get(); }

  /// Every worker exception captured during run(), ordered by (worker,
  /// epoch). Non-empty after a kDegrade run that lost shards, and also
  /// populated before rethrow under kFailFast (so a caller catching the
  /// first exception can still see the rest).
  const std::vector<WorkerError>& worker_errors() const noexcept {
    return worker_errors_;
  }
  /// True when rack `i` was lost to a worker failure (kDegrade).
  bool rack_failed(std::size_t i) const;
  std::size_t num_failed_racks() const noexcept;
  /// Racks currently out of service: failed by a worker, or held in
  /// quarantine by their rig's recovery engine.
  std::vector<std::size_t> quarantined_racks() const;

 private:
  TimeSeries sum_channel(const char* channel, const char* name) const;
  /// Rig index range [first, last) owned by worker `w`.
  std::pair<std::size_t, std::size_t> shard_range(std::size_t w) const;

  FacilityConfig config_;
  std::size_t num_workers_ = 1;
  std::vector<std::unique_ptr<Rig>> rigs_;
  std::unique_ptr<obs::ObsSink> obs_;
  std::unique_ptr<obs::Tracer> tracer_;
  /// Per-worker shard buffers, indexed by worker id (wired before run()).
  std::vector<obs::TraceBuffer*> shard_buffers_;
  obs::Histogram* rack_run_us_ = nullptr;
  /// Per-rack failure flags; each slot is written only by the rack's
  /// owning worker and read with every worker parked (barrier/join).
  /// Barrier-serialized, not mutex-guarded, so this is a documented
  /// contract rather than a SPRINTCON_GUARDED_BY one — the epoch barrier
  /// is the synchronization point (DESIGN.md §11).
  std::vector<std::uint8_t> rig_failed_;
  std::vector<WorkerError> worker_errors_;
  /// Re-route coordinator state: the out-of-service set applied at the
  /// previous epoch boundary (so load scales are only rewritten and the
  /// reroute counter only bumps when the set changes).
  std::vector<std::uint8_t> rerouted_out_;
  bool ran_ = false;
};

}  // namespace sprintcon::scenario
