#include "obs/metrics_registry.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/attributes.hpp"
#include "common/validation.hpp"

namespace sprintcon::obs {

namespace {

// Relaxed CAS update for atomic<double> extrema.
template <typename Cmp>
void update_extremum(std::atomic<double>& slot, double v, Cmp better) {
  double cur = slot.load(std::memory_order_relaxed);
  while (better(v, cur) &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

int Histogram::bucket_index(double v) noexcept {
  if (!(v > 0.0)) return 0;  // non-positive and NaN land in the first bucket
  int exp = 0;
  std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  return std::clamp(exp - kMinExp, 0, kBuckets - 1);
}

double Histogram::bucket_upper_edge(int i) noexcept {
  return std::ldexp(1.0, i + kMinExp);
}

SPRINTCON_HOT void Histogram::record(double v) noexcept {
  buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(
      1, std::memory_order_relaxed);
  // First writer initializes both extrema via count 0 -> 1 transition
  // being unobservable race-free is not required: extrema CAS loops accept
  // any interleaving because they only ever move toward the true extremum.
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    // Seed so the CAS loops compare against a real sample, not 0.0.
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  }
  update_extremum(min_, v, [](double a, double b) { return a < b; });
  update_extremum(max_, v, [](double a, double b) { return a > b; });
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::min() const noexcept {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::percentile(double p) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(n);
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += bucket_count(i);
    if (static_cast<double>(cum) >= target && cum > 0) {
      return std::clamp(bucket_upper_edge(i), min(), max());
    }
  }
  return max();
}

SPRINTCON_HOT void WindowedHistogram::record(double v) noexcept {
  Window& w = windows_[static_cast<std::size_t>(
      current_.load(std::memory_order_relaxed) % kWindows)];
  w.buckets[static_cast<std::size_t>(Histogram::bucket_index(v))].fetch_add(
      1, std::memory_order_relaxed);
  w.count.fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
}

void WindowedHistogram::rotate() noexcept {
  // The slot that becomes current held the oldest window; clear it so new
  // samples start a fresh window and the retired distribution drops out
  // of the quantile view.
  const std::uint64_t next = current_.load(std::memory_order_relaxed) + 1;
  Window& w = windows_[static_cast<std::size_t>(next % kWindows)];
  for (auto& b : w.buckets) b.store(0, std::memory_order_relaxed);
  w.count.store(0, std::memory_order_relaxed);
  current_.store(next, std::memory_order_relaxed);
}

std::uint64_t WindowedHistogram::count() const noexcept {
  std::uint64_t n = 0;
  for (const Window& w : windows_) n += w.count.load(std::memory_order_relaxed);
  return n;
}

double WindowedHistogram::percentile(double p) const noexcept {
  std::array<std::uint64_t, kBuckets> merged{};
  std::uint64_t n = 0;
  for (const Window& w : windows_) {
    for (int i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = w.buckets[static_cast<std::size_t>(i)].load(
          std::memory_order_relaxed);
      merged[static_cast<std::size_t>(i)] += c;
      n += c;
    }
  }
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(n);
  std::uint64_t cum = 0;
  int last_nonempty = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = merged[static_cast<std::size_t>(i)];
    if (c > 0) last_nonempty = i;
    cum += c;
    if (static_cast<double>(cum) >= target && cum > 0) {
      return Histogram::bucket_upper_edge(i);
    }
  }
  return Histogram::bucket_upper_edge(last_nonempty);
}

std::uint64_t MetricsSnapshot::counter(std::string_view name,
                                       std::uint64_t fallback) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? fallback : it->second;
}

double MetricsSnapshot::gauge(std::string_view name, double fallback) const {
  const auto it = gauges.find(std::string(name));
  return it == gauges.end() ? fallback : it->second;
}

void MetricsRegistry::expect_unique(std::string_view name,
                                    const char* kind) const {
  const bool taken = (counters_.find(name) != counters_.end() &&
                      std::string_view(kind) != "counter") ||
                     (gauges_.find(name) != gauges_.end() &&
                      std::string_view(kind) != "gauge") ||
                     (histograms_.find(name) != histograms_.end() &&
                      std::string_view(kind) != "histogram") ||
                     (windowed_.find(name) != windowed_.end() &&
                      std::string_view(kind) != "windowed");
  SPRINTCON_EXPECTS(!taken, "metric name already registered as another kind: " +
                                std::string(name));
}

// Callers hold the lock (SPRINTCON_REQUIRES) so the guarded map can be
// passed by reference without tripping the analysis at the call site.
template <typename T>
T& MetricsRegistry::get_or_create(Map<T>& map, std::string_view name,
                                  const char* kind) {
  SPRINTCON_EXPECTS(!name.empty(), "metric name must be non-empty");
  const auto it = map.find(name);
  if (it != map.end()) return *it->second;
  expect_unique(name, kind);
  auto [pos, inserted] =
      map.emplace(std::string(name), std::make_unique<T>());
  return *pos->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const MutexLock lock(mutex_);
  return get_or_create(counters_, name, "counter");
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const MutexLock lock(mutex_);
  return get_or_create(gauges_, name, "gauge");
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const MutexLock lock(mutex_);
  return get_or_create(histograms_, name, "histogram");
}

WindowedHistogram& MetricsRegistry::windowed(std::string_view name) {
  const MutexLock lock(mutex_);
  return get_or_create(windowed_, name, "windowed");
}

template <typename T>
const T* MetricsRegistry::find(std::string_view name) const {
  const MutexLock lock(mutex_);
  const Map<T>& map = std::get<const Map<T>&>(
      std::tie(counters_, gauges_, histograms_, windowed_));
  const auto it = map.find(name);
  return it == map.end() ? nullptr : it->second.get();
}

template const Counter* MetricsRegistry::find(std::string_view) const;
template const Gauge* MetricsRegistry::find(std::string_view) const;
template const WindowedHistogram* MetricsRegistry::find(
    std::string_view) const;

void MetricsRegistry::rotate_windows() {
  const MutexLock lock(mutex_);
  for (const auto& [name, w] : windowed_) w->rotate();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  const MutexLock lock(mutex_);
  for (const auto& [name, c] : counters_) out.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) out.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramStats s;
    s.count = h->count();
    s.sum = h->sum();
    s.mean = h->mean();
    s.min = h->min();
    s.max = h->max();
    s.p50 = h->percentile(0.50);
    s.p95 = h->percentile(0.95);
    s.p99 = h->percentile(0.99);
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t n = h->bucket_count(i);
      if (n > 0) s.buckets.emplace_back(Histogram::bucket_upper_edge(i), n);
    }
    out.histograms[name] = std::move(s);
  }
  for (const auto& [name, w] : windowed_) {
    MetricsSnapshot::WindowedStats s;
    s.count = w->count();
    s.total_count = w->total_count();
    s.rotations = w->rotations();
    s.p50 = w->percentile(0.50);
    s.p95 = w->percentile(0.95);
    s.p99 = w->percentile(0.99);
    out.windowed[name] = s;
  }
  return out;
}

}  // namespace sprintcon::obs
