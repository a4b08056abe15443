#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/validation.hpp"

namespace sprintcon {

std::string format_fixed(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string format_percent(double fraction, int precision) {
  return format_fixed(fraction * 100.0, precision) + "%";
}

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  SPRINTCON_EXPECTS(!columns_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  SPRINTCON_EXPECTS(cells.size() == columns_.size(),
                    "row width must match header");
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  }

  std::ostringstream os;
  const auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << "  ";
      os << std::left << std::setw(static_cast<int>(widths[c])) << cells[c];
    }
    os << '\n';
  };
  emit_row(columns_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w;
  total += 2 * (widths.size() - 1);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

}  // namespace sprintcon
