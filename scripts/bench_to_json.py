#!/usr/bin/env python3
"""Run the controller microbenchmarks and record them as BENCH_controller.json.

By default this configures and builds the Release preset (build-release/),
runs its perf_controller with google-benchmark's JSON output, and condenses
the result into a small stable document at the repo root so the perf
trajectory of the controller hot paths can be tracked across PRs:

    {
      "context": { "build_type": "release", "num_cpus": ..., "git_commit": ... },
      "benchmarks": { "<name>": {"real_time_ns": ..., "items_per_second": ...} },
      "headline": {
        "mpc_step_256_structured_ns": ...,
        "rig_tick_ns": ...,
        "facility_ticks_per_second_1000": ...
      }
    }

The recorded build_type is OUR CMAKE_BUILD_TYPE read from the build tree's
CMakeCache.txt — google-benchmark's own `library_build_type` context field
describes the benchmark *library*, not this code, and is ignored. Numbers
from a Debug build are refused (override with --allow-debug, which still
stamps the truth into the JSON).

With `--compare OLD.json` the freshly condensed document is also diffed
against a previously recorded one: every headline metric present in both
is checked in its natural direction (times and overhead percentages must
not grow, throughput and speedups must not shrink) against a relative
threshold (default 5%, `--threshold`). Any regression is printed and the
script exits non-zero, so a CI step can gate on
`bench_to_json.py --compare BENCH_controller.json`.

Usage:
    scripts/bench_to_json.py [--build-dir build-release] [--no-build]
                             [--bench-binary PATH] [--output FILE]
                             [--filter REGEX] [--min-time SECONDS]
                             [--allow-debug]
                             [--compare OLD.json] [--threshold PCT]
"""

import argparse
import json
import pathlib
import re
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def build_release_preset(build_dir: pathlib.Path) -> None:
    """Configure + build the benchmark target for the given build tree.

    Uses the `release` CMake preset when targeting its binaryDir, else a
    plain configure so --build-dir can point at any existing tree.
    """
    if build_dir == REPO_ROOT / "build-release":
        subprocess.run(["cmake", "--preset", "release"], cwd=REPO_ROOT,
                       check=True)
    elif not (build_dir / "CMakeCache.txt").exists():
        raise SystemExit(f"{build_dir} is not a configured build tree; "
                         "configure it first or drop --build-dir")
    subprocess.run(["cmake", "--build", str(build_dir), "-j",
                    "--target", "perf_controller"], cwd=REPO_ROOT, check=True)


def read_build_type(build_dir: pathlib.Path) -> str:
    """Our CMAKE_BUILD_TYPE from the build tree, lowercased ('' if unset)."""
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return ""
    match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(),
                      re.MULTILINE)
    return match.group(1).strip().lower() if match else ""


def git_commit() -> str:
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                cwd=REPO_ROOT, capture_output=True, text=True,
                                check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"],
                               cwd=REPO_ROOT, capture_output=True, text=True,
                               check=True).stdout.strip()
        return f"{commit}-dirty" if dirty else commit
    except (OSError, subprocess.CalledProcessError):
        return ""


def run_benchmarks(binary: pathlib.Path, bench_filter: str,
                   min_time: float) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = pathlib.Path(tmp.name)
    # Old google-benchmark (< 1.8) takes a plain double for min_time; newer
    # versions require a "<N>s" suffix. Probe the old form first.
    cmd = [
        str(binary),
        f"--benchmark_out={out_path}",
        "--benchmark_out_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    probe = subprocess.run(cmd + ["--benchmark_list_tests=true"],
                           capture_output=True, text=True)
    if probe.returncode != 0:
        cmd[-1] = f"--benchmark_min_time={min_time}s"
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    subprocess.run(cmd, check=True)
    try:
        with out_path.open() as fh:
            return json.load(fh)
    finally:
        out_path.unlink(missing_ok=True)


_NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# google-benchmark entry keys that are not user counters.
_STANDARD_KEYS = frozenset({
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "items_per_second",
    "bytes_per_second", "label", "aggregate_name", "aggregate_unit",
})


def condense(raw: dict, build_type: str) -> dict:
    benchmarks = {}
    for entry in raw.get("benchmarks", []):
        if entry.get("run_type") != "iteration":
            continue
        scale = _NS_PER_UNIT[entry.get("time_unit", "ns")]
        record = {
            "real_time_ns": entry["real_time"] * scale,
            "cpu_time_ns": entry["cpu_time"] * scale,
            "iterations": entry["iterations"],
        }
        if "items_per_second" in entry:
            record["items_per_second"] = entry["items_per_second"]
        # User counters (state.counters[...]) surface as extra numeric keys;
        # BM_MpcStepObserved reports solver health from the metrics
        # snapshot this way.
        counters = {
            key: value
            for key, value in entry.items()
            if key not in _STANDARD_KEYS and isinstance(value, (int, float))
        }
        if counters:
            record["counters"] = counters
        benchmarks[entry["name"]] = record

    headline = {}
    structured = benchmarks.get("BM_MpcStep/256")
    observed = benchmarks.get("BM_MpcStepObserved/256")
    if structured:
        headline["mpc_step_256_structured_ns"] = structured["real_time_ns"]
    if observed:
        headline["mpc_step_256_observed_ns"] = observed["real_time_ns"]
        if structured and structured["real_time_ns"] > 0:
            headline["mpc_obs_overhead_pct"] = round(
                100.0 * (observed["real_time_ns"] / structured["real_time_ns"]
                         - 1.0), 2)
        for counter, key in (("qp_iterations_per_solve",
                              "mpc_step_256_qp_iterations"),
                             ("qp_restarts_per_solve",
                              "mpc_step_256_qp_restarts")):
            value = observed.get("counters", {}).get(counter)
            if value is not None:
                headline[key] = round(value, 2)

    rig_tick = benchmarks.get("BM_RigTick")
    if rig_tick:
        headline["rig_tick_ns"] = round(rig_tick["real_time_ns"], 1)

    # Fleet scaling: aggregate simulated-tick throughput (items/s) at each
    # fleet size, and the parallel-vs-sequential speedup where both rows ran.
    for rigs in (100, 1000, 10000):
        par = benchmarks.get(f"BM_FacilityScaling/{rigs}/0")
        seq = benchmarks.get(f"BM_FacilityScaling/{rigs}/1")
        best = par or seq
        if best and "items_per_second" in best:
            headline[f"facility_ticks_per_second_{rigs}"] = round(
                best["items_per_second"])
        if (par and seq and "items_per_second" in par
                and seq.get("items_per_second")):
            headline[f"facility_scaling_speedup_{rigs}"] = round(
                par["items_per_second"] / seq["items_per_second"], 2)

    return {
        "context": {
            "date": raw.get("context", {}).get("date"),
            "host_name": raw.get("context", {}).get("host_name"),
            "num_cpus": raw.get("context", {}).get("num_cpus"),
            "build_type": build_type,
            "git_commit": git_commit(),
        },
        "benchmarks": benchmarks,
        "headline": headline,
    }


def headline_direction(key: str):
    """'lower' / 'higher' for a headline metric, None when unordered."""
    if "per_second" in key or "speedup" in key:
        return "higher"
    if key.endswith("_ns") or key.endswith("_pct"):
        return "lower"
    return None


def compare_headlines(old: dict, new: dict, threshold_pct: float) -> list:
    """Regression messages for headline metrics that moved the wrong way
    by more than threshold_pct percent. Metrics missing from either side
    or without a natural direction are skipped."""
    regressions = []
    tolerance = threshold_pct / 100.0
    for key in sorted(set(old) & set(new)):
        direction = headline_direction(key)
        before, after = old[key], new[key]
        if direction is None or not all(
                isinstance(v, (int, float)) and v > 0
                for v in (before, after)):
            continue
        change = (after - before) / before
        arrow = f"{before:g} -> {after:g} ({change:+.1%})"
        if direction == "lower" and change > tolerance:
            regressions.append(f"{key}: {arrow}, allowed +{tolerance:.0%}")
        elif direction == "higher" and change < -tolerance:
            regressions.append(f"{key}: {arrow}, allowed -{tolerance:.0%}")
    return regressions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir",
                        default=str(REPO_ROOT / "build-release"),
                        help="build tree to build and take the binary from")
    parser.add_argument("--no-build", action="store_true",
                        help="skip the configure/build step")
    parser.add_argument("--bench-binary", default="",
                        help="benchmark binary (default: "
                             "<build-dir>/bench/perf_controller)")
    parser.add_argument("--output",
                        default=str(REPO_ROOT / "BENCH_controller.json"))
    parser.add_argument("--filter", default="",
                        help="google-benchmark --benchmark_filter regex")
    parser.add_argument("--min-time", type=float, default=0.1,
                        help="per-benchmark minimum measurement time")
    parser.add_argument("--allow-debug", action="store_true",
                        help="record numbers from a non-Release build anyway")
    parser.add_argument("--compare", type=pathlib.Path, default=None,
                        help="previously recorded JSON to diff headline "
                             "metrics against; exit non-zero on regression")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="relative regression threshold in percent "
                             "(default 5)")
    args = parser.parse_args()
    if args.threshold < 0:
        parser.error("--threshold must be non-negative")

    build_dir = pathlib.Path(args.build_dir)
    if not args.no_build:
        build_release_preset(build_dir)

    binary = (pathlib.Path(args.bench_binary) if args.bench_binary
              else build_dir / "bench/perf_controller")
    if not binary.exists():
        print(f"benchmark binary not found: {binary}\n"
              "build it first: cmake --preset release && "
              "cmake --build build-release --target perf_controller",
              file=sys.stderr)
        return 1

    build_type = read_build_type(build_dir)
    if build_type != "release":
        message = (f"build tree {build_dir} has CMAKE_BUILD_TYPE="
                   f"{build_type or '(unset)'} — benchmark numbers from a "
                   "non-Release build are not comparable")
        if not args.allow_debug:
            print(f"error: {message}\nuse the release preset "
                  "(scripts/bench_to_json.py with no flags) or pass "
                  "--allow-debug to record them anyway", file=sys.stderr)
            return 1
        print(f"WARNING: {message}; recording with "
              f"build_type={build_type or '(unset)'}", file=sys.stderr)

    raw = run_benchmarks(binary, args.filter, args.min_time)
    condensed = condense(raw, build_type)
    output = pathlib.Path(args.output)
    output.write_text(json.dumps(condensed, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    if condensed["headline"]:
        print(json.dumps(condensed["headline"], indent=2))

    if args.compare is not None:
        try:
            old = json.loads(args.compare.read_text())
        except FileNotFoundError:
            print(f"error: baseline {args.compare} not found",
                  file=sys.stderr)
            return 1
        except json.JSONDecodeError as exc:
            print(f"error: baseline {args.compare} is not valid JSON: {exc}",
                  file=sys.stderr)
            return 1
        old_headline = old.get("headline", {})
        compared = sorted(set(old_headline) & set(condensed["headline"]))
        if not compared:
            print(f"error: no common headline metrics with {args.compare}",
                  file=sys.stderr)
            return 1
        regressions = compare_headlines(old_headline, condensed["headline"],
                                        args.threshold)
        if regressions:
            print(f"PERF REGRESSION vs {args.compare} "
                  f"(threshold {args.threshold:g}%):", file=sys.stderr)
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"compare: OK — {len(compared)} headline metrics within "
              f"{args.threshold:g}% of {args.compare}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
