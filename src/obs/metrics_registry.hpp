// Metrics registry: counters, gauges and log-scale histograms.
//
// Registration (name -> metric) takes a mutex; the returned handles are
// stable for the registry's lifetime and their update paths are lock-free
// atomics, so metrics may be emitted concurrently from parallel facility
// workers (TSan-clean). Emitters cache handles at wiring time — the hot
// path never does a name lookup. Readers that need a few values (the
// health monitor) look them up with find<T>() and read them directly
// instead of copying the whole registry into a MetricsSnapshot.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace sprintcon::obs {

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram with fixed base-2 log-scale buckets. Bucket i covers values
/// with binary exponent i + kMinExp, i.e. (2^(i+kMinExp-1), 2^(i+kMinExp)];
/// the range spans ~1e-6 .. ~8.8e12, wide enough for microseconds through
/// watt-scale magnitudes. record() is wait-free apart from min/max CAS.
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  static constexpr int kMinExp = -20;

  void record(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double mean() const noexcept;
  /// Smallest / largest recorded value (0 when empty).
  double min() const noexcept;
  double max() const noexcept;
  /// Approximate quantile from the bucket boundaries, clamped to the
  /// recorded [min, max]. p in [0, 1].
  double percentile(double p) const noexcept;
  std::uint64_t bucket_count(int i) const noexcept {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }
  /// Upper edge of bucket i (2^(i + kMinExp)).
  static double bucket_upper_edge(int i) noexcept;
  static int bucket_index(double v) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  // valid only when count_ > 0
  std::atomic<double> max_{0.0};
};

/// Sliding-window histogram: the same base-2 log-scale buckets as
/// Histogram, but striped across a ring of kWindows windows. record()
/// lands in the current window; rotate() (called on a time boundary by
/// the owner — a rig's metrics window, a facility epoch) retires the
/// oldest window. Quantiles merge the retained windows, so p50/p95/p99
/// track the *recent* distribution instead of the whole run — the
/// tail-latency estimate an SLO monitor or a QoS-aware router needs
/// (arXiv:1912.09870). Updates are relaxed atomics like Histogram's;
/// rotate() racing record() only misfiles that one sample into the
/// adjacent window, which the one-bucket accuracy contract absorbs.
class WindowedHistogram {
 public:
  static constexpr int kWindows = 8;
  static constexpr int kBuckets = Histogram::kBuckets;

  void record(double v) noexcept;
  /// Advance the window ring: the slot that now becomes current is
  /// cleared, dropping the oldest window from the quantile view.
  void rotate() noexcept;

  /// Samples ever recorded (across all rotations).
  std::uint64_t total_count() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  /// Samples in the retained windows (the quantile population).
  std::uint64_t count() const noexcept;
  std::uint64_t rotations() const noexcept {
    return current_.load(std::memory_order_relaxed);
  }
  /// Quantile over the retained windows, resolved to the upper edge of
  /// the bucket holding the order statistic (within one log-scale bucket
  /// of exact — property-tested). 0 when empty. p in [0, 1].
  double percentile(double p) const noexcept;

 private:
  struct Window {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
  };

  std::array<Window, kWindows> windows_{};
  std::atomic<std::uint64_t> current_{0};  ///< monotone; slot = % kWindows
  std::atomic<std::uint64_t> total_{0};
};

/// Point-in-time copy of every registered metric, for export/reporting.
struct MetricsSnapshot {
  struct HistogramStats {
    std::uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /// Non-empty buckets as (upper_edge, count), ascending.
    std::vector<std::pair<double, std::uint64_t>> buckets;
  };

  struct WindowedStats {
    std::uint64_t count = 0;        ///< samples in the retained windows
    std::uint64_t total_count = 0;  ///< samples ever recorded
    std::uint64_t rotations = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;
  std::map<std::string, WindowedStats> windowed;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           windowed.empty();
  }
  std::uint64_t counter(std::string_view name,
                        std::uint64_t fallback = 0) const;
  double gauge(std::string_view name, double fallback = 0.0) const;
};

/// Name -> metric store. A name identifies exactly one metric kind;
/// re-requesting it with a different kind throws InvalidArgumentError.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);
  WindowedHistogram& windowed(std::string_view name);

  /// The metric registered under `name` as a T (Counter, Gauge, Histogram
  /// or WindowedHistogram), or nullptr. Never registers anything; a
  /// non-null result stays valid for the registry's lifetime (metrics are
  /// never erased), so callers may cache it.
  template <typename T>
  const T* find(std::string_view name) const;

  /// Advance every windowed histogram's ring by one window. Called by the
  /// sink's owner on its metrics-window boundary (rare; takes the
  /// registration mutex).
  void rotate_windows();

  MetricsSnapshot snapshot() const;

 private:
  template <typename T>
  using Map = std::map<std::string, std::unique_ptr<T>, std::less<>>;

  template <typename T>
  T& get_or_create(Map<T>& map, std::string_view name, const char* kind)
      SPRINTCON_REQUIRES(mutex_);
  void expect_unique(std::string_view name, const char* kind) const
      SPRINTCON_REQUIRES(mutex_);

  // The maps are guarded; the *metrics* they point at are not — handles
  // returned by counter()/gauge()/... are stable unique_ptr targets whose
  // update paths are lock-free atomics (the whole point of the registry).
  mutable Mutex mutex_;
  Map<Counter> counters_ SPRINTCON_GUARDED_BY(mutex_);
  Map<Gauge> gauges_ SPRINTCON_GUARDED_BY(mutex_);
  Map<Histogram> histograms_ SPRINTCON_GUARDED_BY(mutex_);
  Map<WindowedHistogram> windowed_ SPRINTCON_GUARDED_BY(mutex_);
};

}  // namespace sprintcon::obs
