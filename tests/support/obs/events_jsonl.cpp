#include "obs/events_jsonl.hpp"

#include <cctype>
#include <cstdlib>
#include <istream>
#include <ostream>

#include "common/validation.hpp"
#include "obs/export.hpp"

namespace sprintcon::obs {

namespace {

// --- minimal parser for the format we emit -------------------------------

class Cursor {
 public:
  explicit Cursor(std::string_view line) : s_(line) {}

  void expect(char c) {
    SPRINTCON_EXPECTS(pos_ < s_.size() && s_[pos_] == c,
                      "malformed event JSON line");
    ++pos_;
  }
  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool at(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  bool done() const { return pos_ >= s_.size(); }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        SPRINTCON_EXPECTS(pos_ < s_.size(), "malformed escape in event JSON");
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default: c = esc; break;  // \" and \\ and anything else literal
        }
      }
      out += c;
    }
    expect('"');
    return out;
  }

  double number() {
    if (consume_literal("null")) return 0.0;
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == 'i' ||
            s_[pos_] == 'n' || s_[pos_] == 'f' || s_[pos_] == 'a')) {
      ++pos_;
    }
    SPRINTCON_EXPECTS(pos_ > start, "expected number in event JSON");
    // strtod must consume the whole token: a partial parse (e.g. "nfi",
    // "--5", "1.2.3") would otherwise be silently accepted as 0 or as its
    // numeric prefix (found by the fuzz harness, export_fuzz_test).
    const std::string token(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    SPRINTCON_EXPECTS(end == token.c_str() + token.size(),
                      "malformed number in event JSON: " + token);
    return v;
  }

  /// Non-negative integer that fits a uint64 (sequence numbers). A plain
  /// number() + cast would be UB for negative or oversized values.
  std::uint64_t sequence() {
    const double v = number();
    SPRINTCON_EXPECTS(v >= 0.0 && v < 1.8446744073709552e19 && v == v,
                      "event seq out of range");
    return static_cast<std::uint64_t>(v);
  }

  bool consume_null() { return consume_literal("null"); }

 private:
  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

void write_events_jsonl(std::ostream& out, std::span<const Event> events) {
  for (const Event& e : events) out << event_to_json(e) << '\n';
}

double ParsedEvent::field(std::string_view key, double fallback) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return fallback;
}

std::vector<ParsedEvent> parse_events_jsonl(std::istream& in) {
  std::vector<ParsedEvent> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Cursor c(line);
    ParsedEvent e;
    c.expect('{');
    bool first = true;
    while (!c.at('}')) {
      if (!first) c.expect(',');
      first = false;
      const std::string key = c.string();
      c.expect(':');
      if (key == "t") {
        e.t_s = c.number();
      } else if (key == "seq") {
        e.seq = c.sequence();
      } else if (key == "type") {
        e.type = c.string();
      } else if (key == "cause") {
        if (c.at('"')) {
          e.cause = c.string();
        } else {
          // The writer emits a string or the null literal; anything else
          // (bare numbers, garbage) must be rejected, not coerced.
          SPRINTCON_EXPECTS(c.consume_null(),
                            "event cause must be a string or null");
        }
      } else if (key == "fields") {
        c.expect('{');
        bool ffirst = true;
        while (!c.at('}')) {
          if (!ffirst) c.expect(',');
          ffirst = false;
          std::string fkey = c.string();
          c.expect(':');
          e.fields.emplace_back(std::move(fkey), c.number());
        }
        c.expect('}');
      } else {
        SPRINTCON_EXPECTS(false, "unknown key in event JSON: " + key);
      }
    }
    c.expect('}');
    SPRINTCON_EXPECTS(c.done(), "trailing characters after event JSON");
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace sprintcon::obs
