// Fixed-width console tables for the benchmark harnesses.
//
// Each figure/table reproduction prints its rows through this formatter so
// every bench binary has a consistent, diff-friendly layout in
// bench_output.txt.
#pragma once

#include <string>
#include <vector>

namespace sprintcon {

/// Accumulates rows and renders an aligned ASCII table.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// Append a row of pre-formatted cells; width must match the header.
  void add_row(std::vector<std::string> cells);

  /// Render with column alignment, a header rule, and 2-space gutters.
  std::string to_string() const;

  std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (helper for mixed-text rows).
std::string format_fixed(double value, int precision);

/// Render "x.x%" style percentage.
std::string format_percent(double fraction, int precision = 1);

}  // namespace sprintcon
