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

BenchOptions parse_bench_options_or_exit(int argc, const char* const* argv) {
  try {
    return parse_bench_options(argc, argv);
  } catch (const InvalidArgumentError&) {
    std::cerr << "usage: "
              << std::filesystem::path(argv[0]).filename().string()
              << " [--csv DIR]\n";
    std::exit(1);
  }
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
