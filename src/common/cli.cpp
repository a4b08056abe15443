#include "common/cli.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string_view>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/validation.hpp"

namespace sprintcon {

BenchOptions parse_bench_options(int argc, const char* const* argv) {
  BenchOptions options;
  if (argc == 1) return options;
  SPRINTCON_EXPECTS(argc == 3 && std::string_view(argv[1]) == "--csv",
                    "the only option is --csv <dir>");
  options.csv_dir = argv[2];
  return options;
}

namespace {

[[noreturn]] void exit_with_usage(const char* argv0, const char* options) {
  std::cerr << "usage: " << std::filesystem::path(argv0).filename().string()
            << options << "\n";
  std::exit(1);
}

}  // namespace

BenchOptions parse_bench_options_or_exit(int argc, const char* const* argv) {
  try {
    return parse_bench_options(argc, argv);
  } catch (const InvalidArgumentError&) {
    exit_with_usage(argv[0], " [--csv DIR]");
  }
}

void reject_arguments_or_exit(int argc, const char* const* argv) {
  if (argc > 1) exit_with_usage(argv[0], "");
}

std::string maybe_write_csv(const BenchOptions& options,
                            const std::string& name,
                            const std::vector<const TimeSeries*>& series) {
  if (!options.csv_dir) return {};
  namespace fs = std::filesystem;
  const fs::path dir(*options.csv_dir);
  fs::create_directories(dir);
  const fs::path path = dir / (name + ".csv");
  std::ofstream out(path);
  SPRINTCON_EXPECTS(static_cast<bool>(out),
                    "cannot open CSV artifact for writing: " + path.string());
  write_series_csv(out, series);
  return path.string();
}

}  // namespace sprintcon
