#include "spans.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>

namespace perfbench {

namespace {

constexpr std::array<const char*, static_cast<std::size_t>(DecisionSpan::kCount)>
    kDecisionNames = {"mpc_solve", "power_outcome", "allocator_epoch",
                      "bid_collect"};

int decision_index(const char* name) {
  for (std::size_t i = 0; i < kDecisionNames.size(); ++i) {
    if (std::strcmp(name, kDecisionNames[i]) == 0) return static_cast<int>(i);
  }
  return -1;
}

/// One shard's epoch: its shard_epoch and epoch_barrier spans (µs).
struct ShardEpoch {
  double work_begin = 0.0;
  double work_end = -1.0;  ///< < 0 until the span closed
  double wait_begin = 0.0;
  double wait_end = -1.0;
};

/// Receives the Chrome export line by line and keeps only the shard
/// buffers' shard_epoch / epoch_barrier spans.
class ShardSpanReader final : public std::streambuf {
 public:
  ShardSpanReader(std::size_t first_tid, std::size_t shards)
      : first_tid_(first_tid), epochs_(shards), open_(shards) {}

  void finish() {
    parse(line_);
    line_.clear();
  }
  const std::vector<std::vector<ShardEpoch>>& epochs() const noexcept {
    return epochs_;
  }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) {
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return traits_type::not_eof(c);
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::string_view rest(s, static_cast<std::size_t>(n));
    for (std::size_t nl = rest.find('\n'); nl != std::string_view::npos;
         nl = rest.find('\n')) {
      line_.append(rest.substr(0, nl));
      parse(line_);
      line_.clear();
      rest.remove_prefix(nl + 1);
    }
    line_.append(rest);
    return n;
  }

 private:
  struct Open {
    std::string name;
    double ts = 0.0;
    double epoch = -1.0;
  };

  static const char* after(std::string_view line, std::string_view key) {
    const std::size_t at = line.find(key);
    return at == std::string_view::npos ? nullptr
                                        : line.data() + at + key.size();
  }

  void parse(std::string_view line) {
    const char* tid_at = after(line, "\"tid\":");
    if (tid_at == nullptr) return;
    const std::size_t tid = std::strtoull(tid_at, nullptr, 10);
    if (tid < first_tid_ || tid >= first_tid_ + epochs_.size()) return;
    const char* ph = after(line, "\"ph\":\"");
    const char* name = after(line, "\"name\":\"");
    const char* ts = after(line, "\"ts\":");
    if (ph == nullptr || name == nullptr || ts == nullptr) return;
    const std::size_t w = tid - first_tid_;
    const char* name_end = std::strchr(name, '"');
    std::string span_name(name, static_cast<std::size_t>(name_end - name));
    const double t_us = std::strtod(ts, nullptr);
    if (*ph == 'B') {
      const char* epoch = after(line, "\"epoch\":");
      open_[w].push_back(
          {std::move(span_name), t_us,
           epoch != nullptr ? std::strtod(epoch, nullptr) : -1.0});
    } else if (*ph == 'E' && !open_[w].empty()) {
      const Open span = std::move(open_[w].back());
      open_[w].pop_back();
      const bool work = span.name == "shard_epoch";
      if ((!work && span.name != "epoch_barrier") || span.epoch < 0.0) return;
      const auto e = static_cast<std::size_t>(span.epoch);
      if (epochs_[w].size() <= e) epochs_[w].resize(e + 1);
      ShardEpoch& slot = epochs_[w][e];
      (work ? slot.work_begin : slot.wait_begin) = span.ts;
      (work ? slot.work_end : slot.wait_end) = t_us;
    }
  }

  std::size_t first_tid_;
  std::string line_;
  std::vector<std::vector<ShardEpoch>> epochs_;
  std::vector<std::vector<Open>> open_;
};

}  // namespace

void DecisionSpans::add(std::span<const sprintcon::obs::TraceEvent> events) {
  struct Open {
    int index;
    double ts;
  };
  std::vector<Open> open;
  for (const sprintcon::obs::TraceEvent& e : events) {
    if (e.ph == 'B') {
      open.push_back({decision_index(e.name), e.ts_us});
    } else if (e.ph == 'E' && !open.empty()) {
      const Open span = open.back();
      open.pop_back();
      if (span.index < 0) continue;
      const double us = e.ts_us - span.ts;
      Stats& s = stats[static_cast<std::size_t>(span.index)];
      ++s.count;
      s.sum_us += us;
      if (span.index == static_cast<int>(DecisionSpan::kMpcSolve)) {
        mpc_solve_us.push_back(us);
      }
    }
  }
}

double ShardFigures::parallel_eff() const noexcept {
  return wall_s > 0.0 ? busy_s / (static_cast<double>(shards) * wall_s) : 0.0;
}

double ShardFigures::imbalance() const noexcept {
  return busy_s > 0.0 ? max_busy_s * static_cast<double>(shards) / busy_s
                      : 0.0;
}

double ShardFigures::barrier_wait_frac() const noexcept {
  return wall_s > 0.0 ? barrier_s / (static_cast<double>(shards) * wall_s)
                      : 0.0;
}

double ShardFigures::concurrency() const noexcept {
  return wall_s > 0.0 ? busy_s / wall_s : 0.0;
}

ShardFigures shard_figures(const sprintcon::obs::Tracer& tracer,
                           std::size_t first_shard_tid, std::size_t shards) {
  ShardSpanReader reader(first_shard_tid, shards);
  {
    std::ostream out(&reader);
    tracer.write_chrome_trace(out);
  }
  reader.finish();
  const auto& epochs = reader.epochs();

  const auto complete = [&](std::size_t e) {
    for (const auto& shard : epochs) {
      if (e >= shard.size() || shard[e].work_end < 0.0) return false;
      if (shards > 1 && shard[e].wait_end < 0.0) return false;
    }
    return true;
  };
  const auto first_begin = [&](std::size_t e) {
    double t = std::numeric_limits<double>::infinity();
    for (const auto& shard : epochs) t = std::min(t, shard[e].work_begin);
    return t;
  };

  ShardFigures f;
  f.shards = shards;
  std::vector<double> busy_us(shards, 0.0);
  double wall_us = 0.0;
  double barrier_us = 0.0;
  for (std::size_t e = 0; complete(e); ++e) {
    double end = 0.0;
    for (std::size_t w = 0; w < shards; ++w) {
      const ShardEpoch& s = epochs[w][e];
      busy_us[w] += s.work_end - s.work_begin;
      if (shards > 1) barrier_us += s.wait_end - s.wait_begin;
      end = std::max({end, s.work_end, s.wait_end});
    }
    wall_us += (complete(e + 1) ? first_begin(e + 1) : end) - first_begin(e);
    ++f.epochs;
  }
  for (const double b : busy_us) {
    f.busy_s += b * 1e-6;
    f.max_busy_s = std::max(f.max_busy_s, b * 1e-6);
  }
  f.wall_s = wall_us * 1e-6;
  f.barrier_s = barrier_us * 1e-6;
  return f;
}

}  // namespace perfbench
