// Exporters: JSON-lines event dump, metrics snapshot JSON, and the
// combined RunReport consumed by examples/facility_dashboard and
// scripts/report_check.py.
//
// Doubles are printed with %.17g so a dump/parse cycle is lossless; the
// round-trip is covered by obs_test through the event JSONL writer and
// reader in tests/support/obs/events_jsonl.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/summary.hpp"
#include "obs/event.hpp"
#include "obs/metrics_registry.hpp"

namespace sprintcon::obs {

/// One event as a single-line JSON object, e.g.
/// {"t":1.25,"seq":3,"type":"sprint_state","cause":"cb-near-trip","fields":{"from":0,"to":1}}
std::string event_to_json(const Event& event);

/// Metrics snapshot as a JSON object {"counters":{...},"gauges":{...},
/// "histograms":{name:{count,sum,mean,min,max,p50,p95,p99,buckets}},
/// "windowed":{name:{count,total_count,rotations,p50,p95,p99}}}.
std::string metrics_to_json(const MetricsSnapshot& snapshot);

/// RunSummary as a flat JSON object.
std::string summary_to_json(const metrics::RunSummary& summary);

/// Everything one observed run produced: the paper-facing summary, the
/// metric snapshot and the retained event timeline.
struct RunReport {
  std::string label;
  metrics::RunSummary summary;
  MetricsSnapshot metrics;
  std::vector<Event> events;
  /// Events lost to ring overwrite before this snapshot was taken — the
  /// `events` array is the retained tail, and readers need to know it is
  /// a tail. Fill from EventLog::dropped().
  std::uint64_t dropped_count = 0;

  std::string to_json() const;
};

}  // namespace sprintcon::obs
