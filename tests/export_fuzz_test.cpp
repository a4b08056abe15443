// Deterministic fuzz harness for the JSONL event parser
// (obs/export.cpp): truncated lines, byte mutations, and hand-picked
// regression inputs. The contract under fuzz is strict — the parser
// either returns parsed events or throws a typed error; it must never
// crash, read out of bounds, hit UB (see the ubsan preset), or silently
// accept a malformed line.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/event_log.hpp"
#include "obs/export.hpp"
#include "obs/events_jsonl.hpp"

namespace sprintcon::obs {
namespace {

// A representative corpus covering the writer's whole output grammar:
// every event type, null and string causes, empty and full field sets,
// escapes, negative/huge/tiny numbers, and non-finite values (emitted as
// null).
std::vector<std::string> corpus() {
  std::vector<std::string> lines;
  EventLog log(64);
  log.emit(0.0, EventType::kSprintStateChange, "cb-near-trip",
           {{"from", 0.0}, {"to", 1.0}});
  log.emit(1.5, EventType::kAllocatorDecision, nullptr, {});
  log.emit(-3.25, EventType::kUpsSetpointChange, "demand \"quoted\"\n\t",
           {{"setpoint_w", -123.456}, {"prev_w", 1e300}});
  log.emit(2.0, EventType::kSocThreshold, "discharge",
           {{"threshold", 0.25}, {"soc", 0.2499999999999999}});
  log.emit(3.0, EventType::kCbTrip, "thermal",
           {{"a", 1.0},
            {"b", 2.0},
            {"c", 3.0},
            {"d", 4.0},
            {"e", 5.0},
            {"f", 6.0}});
  log.emit(4.0, EventType::kFaultInjected, "meter_noise",
           {{"magnitude", 0.05}, {"nan", std::nan("")}});
  log.emit(5.0, EventType::kFaultCleared, "utility_outage",
           {{"inf", std::numeric_limits<double>::infinity()}});
  log.emit(6.0, EventType::kCustom, nullptr, {{"tiny", 5e-324}});
  for (const Event& e : log.snapshot()) lines.push_back(event_to_json(e));
  return lines;
}

// Run one input through the parser. Anything other than "parsed" or "threw
// a sprintcon::Error" is a bug (a crash aborts the test binary; UB is the
// ubsan preset's job).
bool parses(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)parse_events_jsonl(in);
    return true;
  } catch (const SprintconError&) {
    return false;
  }
}

TEST(ExportFuzz, CorpusRoundTrips) {
  for (const std::string& line : corpus()) {
    EXPECT_TRUE(parses(line)) << line;
  }
}

TEST(ExportFuzz, RoundTripPreservesValues) {
  EventLog log(8);
  log.emit(12.5, EventType::kCbTrip, "thermal",
           {{"stress", 1.0125}, {"i2t", -42.0}});
  std::ostringstream out;
  const auto events = log.snapshot();
  write_events_jsonl(out, {events.data(), events.size()});
  std::istringstream in(out.str());
  const std::vector<ParsedEvent> parsed = parse_events_jsonl(in);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed[0].t_s, 12.5);
  EXPECT_EQ(parsed[0].seq, 0u);
  EXPECT_EQ(parsed[0].type, "cb_trip");
  EXPECT_EQ(parsed[0].cause, "thermal");
  EXPECT_DOUBLE_EQ(parsed[0].field("stress"), 1.0125);
  EXPECT_DOUBLE_EQ(parsed[0].field("i2t"), -42.0);
}

// Every strict prefix of a valid line must be rejected, not half-parsed.
// (Catches buffer over-reads on truncated input — a real risk for a
// hand-rolled cursor parser.)
TEST(ExportFuzz, TruncationsNeverCrashAndNeverHalfParse) {
  for (const std::string& line : corpus()) {
    for (std::size_t len = 0; len < line.size(); ++len) {
      const std::string prefix = line.substr(0, len);
      if (prefix.empty()) continue;  // blank lines are skipped by design
      EXPECT_FALSE(parses(prefix))
          << "accepted a truncated line: " << prefix;
    }
  }
}

// Deterministic byte-mutation fuzz: flip random positions to random
// bytes. The parser must survive every mutant (parse or throw — both are
// fine; crashing or UB is not).
TEST(ExportFuzz, RandomMutationsNeverCrash) {
  Rng rng(20260806);
  const std::vector<std::string> lines = corpus();
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string line = lines[rng.uniform_index(lines.size())];
    const int mutations = 1 + static_cast<int>(rng.uniform_index(3));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.uniform_index(line.size());
      line[pos] = static_cast<char>(rng.uniform_index(256));
    }
    if (parses(line)) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // Sanity on the harness itself: mutations must actually exercise the
  // error paths (and some benign mutations should still parse).
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(accepted, 0);
}

// Splices of two valid lines (crossover): another classic source of
// parser confusion.
TEST(ExportFuzz, CrossoverSplicesNeverCrash) {
  Rng rng(77);
  const std::vector<std::string> lines = corpus();
  for (int iter = 0; iter < 1000; ++iter) {
    const std::string& a = lines[rng.uniform_index(lines.size())];
    const std::string& b = lines[rng.uniform_index(lines.size())];
    const std::string spliced = a.substr(0, rng.uniform_index(a.size() + 1)) +
                                b.substr(rng.uniform_index(b.size() + 1));
    (void)parses(spliced);  // must not crash; accept/reject both fine
  }
}

// --- regressions found by inspection/fuzz while hardening the parser ----

TEST(ExportFuzzRegression, RejectsNegativeSequence) {
  // A negative seq used to be cast straight to uint64_t — UB.
  EXPECT_FALSE(parses(
      R"({"t":0,"seq":-5,"type":"custom","cause":null,"fields":{}})"));
}

TEST(ExportFuzzRegression, RejectsOversizedSequence) {
  EXPECT_FALSE(parses(
      R"({"t":0,"seq":1e300,"type":"custom","cause":null,"fields":{}})"));
}

TEST(ExportFuzzRegression, RejectsPartialNumberTokens) {
  // strtod's prefix parse used to silently accept these as 1.2 / 0 / -5.
  EXPECT_FALSE(parses(
      R"({"t":1.2.3,"seq":0,"type":"custom","cause":null,"fields":{}})"));
  EXPECT_FALSE(parses(
      R"({"t":--5,"seq":0,"type":"custom","cause":null,"fields":{}})"));
  EXPECT_FALSE(parses(
      R"({"t":fnia,"seq":0,"type":"custom","cause":null,"fields":{}})"));
  EXPECT_FALSE(parses(
      R"({"t":0,"seq":0,"type":"custom","cause":null,"fields":{"x":1e}})"));
}

TEST(ExportFuzzRegression, RejectsNonStringCause) {
  // "cause":123 used to be silently coerced to an empty cause.
  EXPECT_FALSE(parses(
      R"({"t":0,"seq":0,"type":"custom","cause":123,"fields":{}})"));
}

TEST(ExportFuzzRegression, RejectsTrailingGarbage) {
  EXPECT_FALSE(parses(
      R"({"t":0,"seq":0,"type":"custom","cause":null,"fields":{}}garbage)"));
}

TEST(ExportFuzzRegression, RejectsUnknownKeys) {
  EXPECT_FALSE(parses(
      R"({"t":0,"seq":0,"type":"custom","cause":null,"evil":1,"fields":{}})"));
}

TEST(ExportFuzzRegression, AcceptsNullNumbersAsWritten) {
  // The writer spells non-finite values as null; readers treat them as 0.
  std::istringstream in(
      R"({"t":null,"seq":0,"type":"custom","cause":null,"fields":{"x":null}})");
  const auto events = parse_events_jsonl(in);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].t_s, 0.0);
  EXPECT_DOUBLE_EQ(events[0].field("x"), 0.0);
}

TEST(ExportFuzzRegression, RejectsUnterminatedString) {
  EXPECT_FALSE(parses(R"({"t":0,"seq":0,"type":"cust)"));
  EXPECT_FALSE(parses(R"({"t":0,"seq":0,"type":"custom\)"));
}

}  // namespace
}  // namespace sprintcon::obs
