// Reading the spans the library already records.
//
// A traced Facility gives every rack a TraceBuffer for its decision-path
// spans (reachable as rig.obs()->trace()) and every worker shard one for
// shard_epoch / rig_batch / epoch_barrier spans (reachable only through
// Tracer::write_chrome_trace). Both are reduced here to the per-layer
// figures the benchmark reports.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Decision-path spans the benchmark attributes to a layer.
enum class DecisionSpan : std::uint8_t {
  kMpcSolve,
  kPowerOutcome,
  kAllocatorEpoch,
  kBidCollect,
  kCount,
};

/// Totals of closed decision spans, pooled over any number of buffers.
struct DecisionSpans {
  struct Stats {
    std::uint64_t count = 0;
    double sum_us = 0.0;

    Stats& operator+=(const Stats& o) noexcept {
      count += o.count;
      sum_us += o.sum_us;
      return *this;
    }
    double mean_us() const noexcept {
      return count > 0 ? sum_us / static_cast<double>(count) : 0.0;
    }
  };
  std::array<Stats, static_cast<std::size_t>(DecisionSpan::kCount)> stats{};
  /// Every mpc_solve duration (µs), for its percentiles.
  std::vector<double> mpc_solve_us;

  const Stats& operator[](DecisionSpan s) const noexcept {
    return stats[static_cast<std::size_t>(s)];
  }
  /// Pair the buffer's begin/end records and add every closed span.
  void add(std::span<const sprintcon::obs::TraceEvent> events);
};

/// Sharding figures over the epochs every shard buffer retained in full
/// (a buffer that overflowed keeps only a prefix of the run).
struct ShardFigures {
  std::size_t shards = 0;
  std::size_t epochs = 0;  ///< complete epochs the figures cover
  double wall_s = 0.0;     ///< Σ epoch periods over those epochs
  double busy_s = 0.0;     ///< Σ shard_epoch spans over shards and epochs
  double max_busy_s = 0.0; ///< busiest shard's Σ shard_epoch
  double barrier_s = 0.0;  ///< Σ epoch_barrier spans

  /// busy / (shards × wall): 1 means every shard worked the whole time.
  double parallel_eff() const noexcept;
  /// Busiest shard over the mean shard.
  double imbalance() const noexcept;
  double barrier_wait_frac() const noexcept;
  /// busy / wall: how many shards ran at once, on average.
  double concurrency() const noexcept;
};

/// Read the shard buffers (tids [first_shard_tid, first_shard_tid +
/// shards)) back from the tracer's Chrome trace export. An epoch's period
/// runs from its first shard_epoch begin to the next epoch's (or, for the
/// last epoch, to its last span end).
ShardFigures shard_figures(const sprintcon::obs::Tracer& tracer,
                           std::size_t first_shard_tid, std::size_t shards);

}  // namespace perfbench
