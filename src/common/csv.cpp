#include "common/csv.hpp"

#include <algorithm>
#include <cmath>

#include "common/time_series.hpp"
#include "common/validation.hpp"

namespace sprintcon {

std::string csv_escape(std::string_view cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n") != std::string_view::npos;
  if (!needs_quotes) return std::string(cell);
  std::string out;
  out.reserve(cell.size() + 2);
  out.push_back('"');
  for (char c : cell) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void write_series_csv(std::ostream& out,
                      const std::vector<const TimeSeries*>& series) {
  SPRINTCON_EXPECTS(!series.empty(), "need at least one series");
  const double dt = series.front()->dt_s();
  const double start = series.front()->start_s();
  std::size_t rows = 0;
  for (const TimeSeries* s : series) {
    SPRINTCON_EXPECTS(s != nullptr, "null series pointer");
    SPRINTCON_EXPECTS(std::abs(s->dt_s() - dt) < 1e-12, "series must share dt");
    SPRINTCON_EXPECTS(std::abs(s->start_s() - start) < 1e-12,
                      "series must share start time");
    rows = std::max(rows, s->size());
  }

  out << "time_s";
  for (const TimeSeries* s : series) out << ',' << csv_escape(s->name());
  out << '\n';

  for (std::size_t i = 0; i < rows; ++i) {
    out << start + static_cast<double>(i) * dt;
    for (const TimeSeries* s : series) {
      out << ',' << (s->empty() ? 0.0 : (*s)[std::min(i, s->size() - 1)]);
    }
    out << '\n';
  }
}

}  // namespace sprintcon
