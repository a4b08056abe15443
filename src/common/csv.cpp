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

CsvWriter::CsvWriter(std::ostream& out) : out_(out) {}

void CsvWriter::header(const std::vector<std::string>& columns) {
  SPRINTCON_EXPECTS(!header_written_, "header may only be written once");
  SPRINTCON_EXPECTS(!columns.empty(), "header must have at least one column");
  columns_ = columns.size();
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) out_ << ',';
    out_ << csv_escape(columns[i]);
  }
  out_ << '\n';
  header_written_ = true;
}

void CsvWriter::row(const std::vector<double>& values) {
  SPRINTCON_EXPECTS(header_written_, "header must precede data rows");
  SPRINTCON_EXPECTS(values.size() == columns_, "row width must match header");
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out_ << ',';
    out_ << values[i];
  }
  out_ << '\n';
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

  CsvWriter csv(out);
  std::vector<std::string> cols{"time_s"};
  for (const TimeSeries* s : series) cols.push_back(s->name());
  csv.header(cols);

  std::vector<double> row(series.size() + 1);
  for (std::size_t i = 0; i < rows; ++i) {
    row[0] = start + static_cast<double>(i) * dt;
    for (std::size_t c = 0; c < series.size(); ++c) {
      const TimeSeries& s = *series[c];
      row[c + 1] = s.empty() ? 0.0 : (*series[c])[std::min(i, s.size() - 1)];
    }
    csv.row(row);
  }
}

}  // namespace sprintcon
