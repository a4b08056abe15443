#include "workload.hpp"

#include <bit>
#include <cmath>
#include <string_view>

#include "scenario/loader.hpp"

namespace perfbench {

namespace {

/// Offset from the workload seed to the fault seed: 42 -> 1729.
constexpr std::uint64_t kFaultSeedOffset = 1687;

std::uint64_t fold_bytes(std::uint64_t digest, std::string_view bytes) {
  for (const char c : bytes) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

}  // namespace

scenario::FacilityConfig load_workload(const std::string& spec_path,
                                       std::uint64_t seed,
                                       bool observability) {
  scenario::ScenarioSpec spec = scenario::load_scenario(spec_path);
  spec.seed = seed;
  spec.fault_seed = seed + kFaultSeedOffset;
  scenario::FacilityConfig fc = scenario::compile(spec);
  fc.observability = observability;
  // A throwing shard marks its own racks failed instead of aborting the
  // run, so failures are counted per rack.
  fc.worker_failure = scenario::WorkerFailurePolicy::kDegrade;
  return fc;
}

scenario::RigConfig rack_config(const scenario::FacilityConfig& fc,
                                std::size_t r) {
  scenario::RigConfig cfg = fc.rack;
  cfg.seed = fc.rack.seed + r;
  cfg.observability =
      fc.observability || fc.tracing || fc.rack.observability;
  cfg.health = fc.health || fc.rack.health;
  cfg.recovery = fc.recovery || fc.rack.recovery;
  if (fc.staggered) {
    const double cycle = fc.rack.sprint.cb_overload_duration_s +
                         fc.rack.sprint.cb_recovery_duration_s;
    cfg.sprint.schedule_offset_s = cycle * static_cast<double>(r) /
                                   static_cast<double>(fc.num_racks);
  }
  return cfg;
}

std::uint64_t fold_digest(std::uint64_t digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xffU;
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

std::uint64_t channel_digest(const sprintcon::sim::TraceRecorder& rec) {
  std::uint64_t digest = kDigestSeed;
  for (const sprintcon::TimeSeries* s : rec.all_series()) {
    digest = fold_bytes(digest, s->name());
    for (const double v : s->values()) {
      digest = fold_digest(digest, std::bit_cast<std::uint64_t>(v));
    }
  }
  return digest;
}

std::string rack_failure(const sprintcon::sim::TraceRecorder& rec,
                         const sprintcon::metrics::RunSummary& summary) {
  for (const sprintcon::TimeSeries* s : rec.all_series()) {
    for (const double v : s->values()) {
      if (!std::isfinite(v)) return "non-finite " + s->name();
    }
  }
  for (const char* soc : {"battery_soc", "battery_component_soc"}) {
    if (!rec.has(soc)) continue;
    const sprintcon::TimeSeries& s = rec.series(soc);
    if (!s.empty() && (s.min() < 0.0 || s.max() > 1.0)) {
      return std::string(soc) + " outside [0, 1]";
    }
  }
  if (summary.cb_trips > 0) {
    return "cb_trips=" + std::to_string(summary.cb_trips);
  }
  if (summary.unserved_energy_wh > 0.0) {
    return "unserved_wh=" + std::to_string(summary.unserved_energy_wh);
  }
  return {};
}

bool channels_identical(const sprintcon::sim::TraceRecorder& a,
                        const sprintcon::sim::TraceRecorder& b) {
  const auto sa = a.all_series();
  const auto sb = b.all_series();
  if (sa.size() != sb.size()) return false;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i]->name() != sb[i]->name() ||
        sa[i]->size() != sb[i]->size()) {
      return false;
    }
    for (std::size_t j = 0; j < sa[i]->size(); ++j) {
      if (std::bit_cast<std::uint64_t>((*sa[i])[j]) !=
          std::bit_cast<std::uint64_t>((*sb[i])[j])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench
