// Event dumps as JSON lines, one event_to_json() object (obs/export.hpp)
// per line, and the reader for them. The reader accepts exactly the
// restricted format the writer produces: a fixture for the round-trip and
// fuzz tests, not a general JSON parser.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/event.hpp"

namespace sprintcon::obs {

/// One event_to_json() line per event.
void write_events_jsonl(std::ostream& out, std::span<const Event> events);

/// Event re-read from a JSONL dump (string-typed, heap-backed — the
/// in-memory Event uses static strings, so parsing yields this instead).
struct ParsedEvent {
  double t_s = 0.0;
  std::uint64_t seq = 0;
  std::string type;
  std::string cause;
  std::vector<std::pair<std::string, double>> fields;

  double field(std::string_view key, double fallback = 0.0) const;
};

/// Parse a write_events_jsonl() stream; throws InvalidArgumentError on
/// lines that do not match the emitted format. Blank lines are skipped.
std::vector<ParsedEvent> parse_events_jsonl(std::istream& in);

}  // namespace sprintcon::obs
