// Span tracer: where did the wall clock go?
//
// The event log answers "what happened"; the tracer answers "how long did
// each stage of a decision take, on which thread". It records scoped
// begin/end spans into per-owner TraceBuffers — one buffer per rig or per
// facility worker shard, appended from exactly one thread, so the hot
// path is a bounds check and a few stores (no locks, no allocation after
// construction; a full buffer drops and counts). A Tracer owns the
// buffers, stamps every span against one common steady_clock epoch, and
// exports the merged timeline as Chrome trace-event JSON loadable in
// Perfetto / chrome://tracing (see DESIGN.md §8.5 and
// scripts/check_trace.py for the emitted schema).
//
// Attachment mirrors the rest of the obs layer: span sites read a
// nullable TraceBuffer* through their ObsSink and cost one predictable
// branch when tracing is off.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"

namespace sprintcon::obs {

/// One trace record. POD; name/cat/arg_key must be static-duration
/// strings (literals), matching the Event contract.
struct TraceEvent {
  const char* name = nullptr;  ///< span name
  const char* cat = nullptr;   ///< category ("decision", "facility", ...)
  double ts_us = 0.0;          ///< microseconds since the tracer epoch
  char ph = 'B';               ///< Chrome phase: 'B' or 'E'
  const char* arg_key = nullptr;  ///< optional argument (nullptr = none)
  double arg_value = 0.0;
};

/// Fixed-capacity append buffer owned by ONE thread (like EventLog, it is
/// not thread-safe; each rig / worker shard gets its own). Appends past
/// capacity are dropped and counted, never reallocated.
class TraceBuffer {
 public:
  using Clock = std::chrono::steady_clock;

  /// @param tid      Chrome thread id the merged export files spans under
  /// @param label    thread name shown by Perfetto (copied; wiring time)
  /// @param capacity events retained (reserved up front)
  /// @param epoch    common timestamp origin (shared across buffers)
  TraceBuffer(std::uint32_t tid, std::string label, std::size_t capacity,
              Clock::time_point epoch);

  /// Open a span ('B'). Pair with end(); ScopedSpan does this for you.
  void begin(const char* name, const char* cat,
             const char* arg_key = nullptr, double arg_value = 0.0) noexcept {
    append(name, cat, 'B', arg_key, arg_value);
  }
  /// Close the innermost span with this name ('E').
  void end(const char* name, const char* cat) noexcept {
    append(name, cat, 'E', nullptr, 0.0);
  }

  std::uint32_t tid() const noexcept { return tid_; }
  const std::string& label() const noexcept { return label_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return events_.size(); }
  /// Events lost to a full buffer.
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::span<const TraceEvent> events() const noexcept { return events_; }

 private:
  void append(const char* name, const char* cat, char ph,
              const char* arg_key, double arg_value) noexcept;

  std::uint32_t tid_;
  std::string label_;
  std::size_t capacity_;
  Clock::time_point epoch_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

/// Owns the per-owner buffers and the common epoch; merges them into one
/// Chrome trace-event JSON document. register_buffer() takes a mutex and
/// returns a stable reference (wiring time only); the append paths are
/// single-owner and lock-free. write_chrome_trace() must not race active
/// writers — export after the run has joined its workers.
class Tracer {
 public:
  /// @param buffer_capacity events retained per buffer; overflow drops
  ///        and counts (total_dropped()), never reallocates mid-run
  explicit Tracer(std::size_t buffer_capacity = std::size_t{1} << 14);

  /// Create (and own) a new buffer; tids are assigned in registration
  /// order.
  TraceBuffer& register_buffer(std::string label);

  std::size_t num_buffers() const;
  std::uint64_t total_events() const;
  std::uint64_t total_dropped() const;

  /// Merged timeline: {"traceEvents":[...],"displayTimeUnit":"ms"} with
  /// one metadata record naming each buffer's thread. Within a tid,
  /// events keep their append order (timestamps are monotone per buffer).
  void write_chrome_trace(std::ostream& out) const;

 private:
  TraceBuffer::Clock::time_point epoch_;
  std::size_t buffer_capacity_;
  // Guards the buffer *list* only: each TraceBuffer's append path is
  // single-owner by contract (see class comment) and deliberately
  // lock-free — the mutex covers registration and post-join export.
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_
      SPRINTCON_GUARDED_BY(mutex_);
};

/// RAII span: begin on construction, end on destruction. A null buffer
/// disables the span entirely (one branch, the clock is not read).
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buffer, const char* name, const char* cat,
             const char* arg_key = nullptr, double arg_value = 0.0) noexcept
      : buffer_(buffer), name_(name), cat_(cat) {
    if (buffer_ != nullptr) buffer_->begin(name, cat, arg_key, arg_value);
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->end(name_, cat_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buffer_;
  const char* name_;
  const char* cat_;
};

}  // namespace sprintcon::obs
