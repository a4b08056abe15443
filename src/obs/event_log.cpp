#include "obs/event_log.hpp"

#include <algorithm>

#include "common/attributes.hpp"
#include "common/validation.hpp"
#include "obs/metrics_registry.hpp"

namespace sprintcon::obs {

const char* to_string(EventType type) noexcept {
  switch (type) {
    case EventType::kSprintStateChange: return "sprint_state";
    case EventType::kAllocatorDecision: return "allocator_decision";
    case EventType::kUpsSetpointChange: return "ups_setpoint";
    case EventType::kSocThreshold: return "soc_threshold";
    case EventType::kCbOverloadEnter: return "cb_overload_enter";
    case EventType::kCbOverloadExit: return "cb_overload_exit";
    case EventType::kCbTrip: return "cb_trip";
    case EventType::kCbReclose: return "cb_reclose";
    case EventType::kOutage: return "outage";
    case EventType::kFaultInjected: return "fault_injected";
    case EventType::kFaultCleared: return "fault_cleared";
    case EventType::kHealthDegraded: return "health_degraded";
    case EventType::kHealthRecovered: return "health_recovered";
    case EventType::kRecoveryAction: return "recovery_action";
    case EventType::kRecoveryEscalated: return "recovery_escalated";
    case EventType::kRecoveryDeescalated: return "recovery_deescalated";
    case EventType::kCustom: return "custom";
  }
  return "unknown";
}

double Event::field(const char* key, double fallback) const noexcept {
  for (std::size_t i = 0; i < num_fields; ++i) {
    const char* k = fields[i].key;
    // Pointer compare first (literals are usually merged), then content.
    if (k == key) return fields[i].value;
    if (k != nullptr && key != nullptr) {
      const char *a = k, *b = key;
      while (*a != '\0' && *a == *b) { ++a; ++b; }
      if (*a == *b) return fields[i].value;
    }
  }
  return fallback;
}

EventLog::EventLog(std::size_t capacity) : ring_(std::max<std::size_t>(1, capacity)) {
  SPRINTCON_EXPECTS(capacity >= 1, "event log needs capacity >= 1");
}

SPRINTCON_HOT void EventLog::emit(double t_s, EventType type,
                                  const char* cause,
                    std::initializer_list<EventField> fields) noexcept {
  if (next_ >= ring_.size() && drop_counter_ != nullptr) {
    drop_counter_->add(1);  // this emit overwrites the oldest retained event
  }
  Event& slot = ring_[next_ % ring_.size()];
  slot.t_s = t_s;
  slot.seq = next_;
  slot.type = type;
  slot.cause = cause;
  std::size_t n = 0;
  for (const EventField& f : fields) {
    if (n == kMaxEventFields) {
      field_overflow_ += fields.size() - kMaxEventFields;
      break;
    }
    slot.fields[n++] = f;
  }
  slot.num_fields = static_cast<std::uint8_t>(n);
  ++next_;
}

std::size_t EventLog::size() const noexcept {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(next_, ring_.size()));
}

std::uint64_t EventLog::dropped() const noexcept {
  return next_ > ring_.size() ? next_ - ring_.size() : 0;
}

std::vector<Event> EventLog::snapshot() const {
  std::vector<Event> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = next_ - n;
  for (std::uint64_t s = first; s < next_; ++s)
    out.push_back(ring_[s % ring_.size()]);
  return out;
}

}  // namespace sprintcon::obs
