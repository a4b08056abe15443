#include "obs/export.hpp"

#include <cstdio>

namespace sprintcon::obs {

namespace {

// Shortest exact decimal form: %.17g round-trips any finite double.
// Non-finite values have no JSON spelling; emit null and let readers
// treat it as absent.
void append_double(std::string& out, double v) {
  char buf[32];
  if (v != v || v > 1.7e308 || v < -1.7e308) {
    out += "null";
    return;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  out += '"';
}

void append_key(std::string& out, std::string_view key) {
  append_quoted(out, key);
  out += ':';
}

}  // namespace

std::string event_to_json(const Event& event) {
  std::string out;
  out.reserve(128);
  out += '{';
  append_key(out, "t");
  append_double(out, event.t_s);
  out += ',';
  append_key(out, "seq");
  out += std::to_string(event.seq);
  out += ',';
  append_key(out, "type");
  append_quoted(out, to_string(event.type));
  out += ',';
  append_key(out, "cause");
  if (event.cause != nullptr) {
    append_quoted(out, event.cause);
  } else {
    out += "null";
  }
  out += ',';
  append_key(out, "fields");
  out += '{';
  for (std::size_t i = 0; i < event.num_fields; ++i) {
    if (i > 0) out += ',';
    append_key(out, event.fields[i].key != nullptr ? event.fields[i].key : "");
    append_double(out, event.fields[i].value);
  }
  out += "}}";
  return out;
}

std::string metrics_to_json(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(512);
  out += '{';
  append_key(out, "counters");
  out += '{';
  bool first = true;
  for (const auto& [name, v] : snapshot.counters) {
    if (!first) out += ',';
    first = false;
    append_key(out, name);
    out += std::to_string(v);
  }
  out += "},";
  append_key(out, "gauges");
  out += '{';
  first = true;
  for (const auto& [name, v] : snapshot.gauges) {
    if (!first) out += ',';
    first = false;
    append_key(out, name);
    append_double(out, v);
  }
  out += "},";
  append_key(out, "histograms");
  out += '{';
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    if (!first) out += ',';
    first = false;
    append_key(out, name);
    out += '{';
    append_key(out, "count");
    out += std::to_string(h.count);
    out += ',';
    append_key(out, "sum");
    append_double(out, h.sum);
    out += ',';
    append_key(out, "mean");
    append_double(out, h.mean);
    out += ',';
    append_key(out, "min");
    append_double(out, h.min);
    out += ',';
    append_key(out, "max");
    append_double(out, h.max);
    out += ',';
    append_key(out, "p50");
    append_double(out, h.p50);
    out += ',';
    append_key(out, "p95");
    append_double(out, h.p95);
    out += ',';
    append_key(out, "p99");
    append_double(out, h.p99);
    out += ',';
    append_key(out, "buckets");
    out += '[';
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ',';
      out += '[';
      append_double(out, h.buckets[i].first);
      out += ',';
      out += std::to_string(h.buckets[i].second);
      out += ']';
    }
    out += "]}";
  }
  out += "},";
  append_key(out, "windowed");
  out += '{';
  first = true;
  for (const auto& [name, w] : snapshot.windowed) {
    if (!first) out += ',';
    first = false;
    append_key(out, name);
    out += '{';
    append_key(out, "count");
    out += std::to_string(w.count);
    out += ',';
    append_key(out, "total_count");
    out += std::to_string(w.total_count);
    out += ',';
    append_key(out, "rotations");
    out += std::to_string(w.rotations);
    out += ',';
    append_key(out, "p50");
    append_double(out, w.p50);
    out += ',';
    append_key(out, "p95");
    append_double(out, w.p95);
    out += ',';
    append_key(out, "p99");
    append_double(out, w.p99);
    out += '}';
  }
  out += "}}";
  return out;
}

std::string summary_to_json(const metrics::RunSummary& summary) {
  std::string out;
  out.reserve(512);
  out += '{';
  append_key(out, "label");
  append_quoted(out, summary.label);
  const auto num = [&out](const char* key, double v) {
    out += ',';
    append_key(out, key);
    append_double(out, v);
  };
  num("avg_freq_interactive", summary.avg_freq_interactive);
  num("avg_freq_batch", summary.avg_freq_batch);
  num("mean_p95_latency_ms", summary.mean_p95_latency_ms);
  num("avg_total_power_w", summary.avg_total_power_w);
  num("avg_cb_power_w", summary.avg_cb_power_w);
  num("peak_cb_power_w", summary.peak_cb_power_w);
  num("cb_energy_wh", summary.cb_energy_wh);
  num("ups_discharged_wh", summary.ups_discharged_wh);
  num("depth_of_discharge", summary.depth_of_discharge);
  num("battery_cycle_life", summary.battery_cycle_life);
  num("battery_lifetime_days", summary.battery_lifetime_days);
  num("rainflow_damage", summary.rainflow_damage);
  num("rainflow_lifetime_days", summary.rainflow_lifetime_days);
  num("cb_trips", static_cast<double>(summary.cb_trips));
  num("outage_start_s", summary.outage_start_s);
  num("unserved_energy_wh", summary.unserved_energy_wh);
  num("deadline_s", summary.deadline_s);
  num("worst_completion_s", summary.worst_completion_s);
  out += ',';
  append_key(out, "all_deadlines_met");
  out += summary.all_deadlines_met ? "true" : "false";
  num("normalized_time_use", summary.normalized_time_use);
  num("jobs_completed", static_cast<double>(summary.jobs_completed));
  num("jobs_total", static_cast<double>(summary.jobs_total));
  out += '}';
  return out;
}

std::string RunReport::to_json() const {
  std::string out;
  out.reserve(2048);
  out += '{';
  append_key(out, "label");
  append_quoted(out, label);
  out += ',';
  append_key(out, "summary");
  out += summary_to_json(summary);
  out += ',';
  append_key(out, "metrics");
  out += metrics_to_json(metrics);
  out += ',';
  append_key(out, "dropped_count");
  out += std::to_string(dropped_count);
  out += ',';
  append_key(out, "events");
  out += '[';
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ',';
    out += event_to_json(events[i]);
  }
  out += "]}";
  return out;
}

}  // namespace sprintcon::obs
