// Ring-buffered structured event log.
//
// emit() is the hot-path entry point: it writes into the ring's next
// slot, copies at most kMaxEventFields pointer/double pairs, and never
// allocates or throws. The ring reserves its whole capacity once at
// construction but commits memory only as it fills (a slot is constructed
// on its first emit), so a sink that logs a few hundred events touches a
// few hundred slots, not all 4096. When the ring is full the oldest event
// is overwritten (dropped() counts how many). The log is NOT thread-safe:
// each rig/controller owns its own log and emits from a single thread
// (facility-level aggregation uses the MetricsRegistry, which is).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "obs/event.hpp"

namespace sprintcon::obs {

class Counter;

class EventLog {
 public:
  /// @param capacity ring size (events retained); must be >= 1.
  explicit EventLog(std::size_t capacity = 4096);

  /// Record one event. Zero-alloc; excess fields beyond kMaxEventFields
  /// are silently dropped (field_overflow() counts them).
  void emit(double t_s, EventType type, const char* cause,
            std::initializer_list<EventField> fields) noexcept;

  std::size_t capacity() const noexcept { return capacity_; }
  /// Events currently retained (<= capacity).
  std::size_t size() const noexcept { return ring_.size(); }
  /// Events ever emitted (including overwritten ones).
  std::uint64_t total_emitted() const noexcept { return next_; }
  /// Events lost to ring overwrite.
  std::uint64_t dropped() const noexcept;
  /// Fields discarded because an emit exceeded kMaxEventFields.
  std::uint64_t field_overflow() const noexcept { return field_overflow_; }

  /// Mirror ring overwrites into a metrics counter (`events.dropped`) so
  /// silent truncation shows up in snapshots and exports, not only to
  /// callers that think to ask dropped(). Wired by ObsSink; nullptr
  /// detaches.
  void set_drop_counter(Counter* counter) noexcept {
    drop_counter_ = counter;
  }

  /// Retained events, oldest first.
  std::vector<Event> snapshot() const;

 private:
  std::size_t capacity_;
  std::vector<Event> ring_;  ///< grows to capacity_, then wraps
  std::uint64_t next_ = 0;  ///< total emitted; next slot = next_ % capacity
  std::uint64_t field_overflow_ = 0;
  Counter* drop_counter_ = nullptr;
};

}  // namespace sprintcon::obs
