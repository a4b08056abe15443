// Minimal CSV emission for experiment artifacts.
//
// Every bench harness can dump the exact series behind a figure so results
// are plottable outside the repo. Writing is streaming and escape-correct
// for the (rare) case of commas/quotes in channel names.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace sprintcon {

class TimeSeries;

/// Write a set of equally-sampled series as columns: time,name1,name2,...
/// All series must share dt and start; shorter series pad with their last
/// value so ragged ends do not lose rows.
void write_series_csv(std::ostream& out, const std::vector<const TimeSeries*>& series);

/// Escape a cell for CSV (quotes fields containing comma/quote/newline).
std::string csv_escape(std::string_view cell);

}  // namespace sprintcon
