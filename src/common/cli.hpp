// Minimal command-line handling for the figure harnesses.
//
// Every harness that exports series accepts exactly one option, `--csv
// <dir>`, to dump the exact series behind the figure as CSV (plottable
// outside the repo); every other harness takes no argument at all. These
// helpers keep the parsing uniform and the binaries free of argv fiddling.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace sprintcon {

class TimeSeries;

/// Parsed options of a figure harness.
struct BenchOptions {
  /// Directory to write CSV artifacts into (unset: no artifacts).
  std::optional<std::string> csv_dir;
};

/// Parse argv: no arguments, or exactly `--csv <dir>`. Throws
/// InvalidArgumentError on anything else.
BenchOptions parse_bench_options(int argc, const char* const* argv);

/// parse_bench_options for a harness's main(): on a usage error, print
/// `usage: <harness> [--csv DIR]` to stderr and exit with status 1.
BenchOptions parse_bench_options_or_exit(int argc, const char* const* argv);

/// For a harness that takes no argument: on any argument, print
/// `usage: <harness>` to stderr and exit with status 1.
void reject_arguments_or_exit(int argc, const char* const* argv);

/// If options request CSV output, write the series into
/// `<csv_dir>/<name>.csv` (creating the directory) and return the path;
/// otherwise return an empty string. Errors are reported by exception.
std::string maybe_write_csv(const BenchOptions& options,
                            const std::string& name,
                            const std::vector<const TimeSeries*>& series);

}  // namespace sprintcon
