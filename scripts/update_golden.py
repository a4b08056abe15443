#!/usr/bin/env python3
"""Regenerate the golden snapshots under tests/golden/.

The golden_trace_test compares the canonical rig's downsampled channels
(and every shipped scenario's replay, bit-identically) against checked-in
snapshots; after an *intentional* behavior change, run this script to
rebuild the test and rewrite the affected snapshots:

    python3 scripts/update_golden.py                  # canonical rig only
    python3 scripts/update_golden.py --scenario NAME  # one scenario golden
    python3 scripts/update_golden.py --figure NAME    # one figure golden
    python3 scripts/update_golden.py --all            # all of the above

For --scenario, NAME is the scenario's file stem under
examples/scenarios/ (e.g. "rolling-brownout"). For --figure, NAME is a
figure or ablation harness under bench/ (e.g. "fig6_power_behavior");
its golden tests/golden/figures/NAME.txt is the harness's stdout. The
script then re-runs the checks in verification mode so a stale write (or
nondeterminism) is caught immediately.
"""

import argparse
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(REPO, "tests", "golden", "canonical_trace.jsonl")
SCENARIO_DIR = os.path.join(REPO, "examples", "scenarios")
SCENARIO_GOLDEN_DIR = os.path.join(REPO, "tests", "golden", "scenarios")
FIGURE_GOLDEN_DIR = os.path.join(REPO, "tests", "golden", "figures")
BENCH_DIR = os.path.join(REPO, "bench")


def figure_names():
    """Every figure/ablation harness: bench/*.cpp but the microbenchmark."""
    return sorted(p[:-4] for p in os.listdir(BENCH_DIR)
                  if p.endswith(".cpp") and p != "perf_controller.cpp")


def run(cmd, **kwargs):
    print("+ " + " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True, cwd=REPO, **kwargs)


def update_figures(build, names):
    """Rewrite each figure golden through its `figures` ctest, then verify."""
    run(["cmake", "--build", build, "-j", str(os.cpu_count() or 2),
         "--target"] + names)
    selection = "^figure_(" + "|".join(names) + ")$"
    env = dict(os.environ, SPRINTCON_GOLDEN_UPDATE="1")
    run(["ctest", "--test-dir", build, "--output-on-failure",
         "-R", selection], env=env)
    print(f"wrote {len(names)} golden(s) under {FIGURE_GOLDEN_DIR}")
    run(["ctest", "--test-dir", build, "--output-on-failure",
         "-R", selection])
    print("figure golden(s) regenerated and verified")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory (default: build)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--scenario", metavar="NAME",
                       help="regenerate one scenario golden "
                            "(tests/golden/scenarios/NAME.jsonl) instead "
                            "of the canonical trace")
    group.add_argument("--figure", metavar="NAME",
                       help="regenerate one figure golden "
                            "(tests/golden/figures/NAME.txt)")
    group.add_argument("--all", action="store_true",
                       help="regenerate the canonical trace, every "
                            "scenario golden and every figure golden")
    args = parser.parse_args()

    if args.figure and args.figure not in figure_names():
        sys.exit(f"no such figure harness: {args.figure}\n"
                 f"known: {', '.join(figure_names())}")

    if args.scenario:
        scn = os.path.join(SCENARIO_DIR, args.scenario + ".scn")
        if not os.path.exists(scn):
            known = sorted(p[:-4] for p in os.listdir(SCENARIO_DIR)
                           if p.endswith(".scn"))
            sys.exit(f"no such scenario: {scn}\nknown: {', '.join(known)}")

    build = os.path.join(REPO, args.build_dir)
    if not os.path.isdir(build):
        run(["cmake", "-B", build, "-S", REPO,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    figures = (figure_names() if args.all
               else [args.figure] if args.figure else [])
    if figures:
        update_figures(build, figures)
    if args.figure:
        return
    run(["cmake", "--build", build, "-j", str(os.cpu_count() or 2),
         "--target", "golden_trace_test"])

    test_bin = os.path.join(build, "tests", "golden_trace_test")
    if not os.path.exists(test_bin):
        sys.exit(f"test binary not found: {test_bin}")

    # Pass 1: regenerate the selected snapshot(s).
    env = dict(os.environ, SPRINTCON_GOLDEN_UPDATE="1")
    if args.all:
        run([test_bin, "--gtest_filter=GoldenTrace.MatchesCanonicalRun"
             ":GoldenTrace.ScenarioLibraryMatchesGoldens"], env=env)
        print(f"wrote {GOLDEN} and {SCENARIO_GOLDEN_DIR}/*.jsonl")
    elif args.scenario:
        env["SPRINTCON_GOLDEN_SCENARIO"] = args.scenario
        run([test_bin,
             "--gtest_filter=GoldenTrace.ScenarioLibraryMatchesGoldens"],
            env=env)
        print(f"wrote {SCENARIO_GOLDEN_DIR}/{args.scenario}.jsonl")
    else:
        run([test_bin, "--gtest_filter=GoldenTrace.MatchesCanonicalRun"],
            env=env)
        print(f"wrote {GOLDEN}")

    # Pass 2: verify the fresh snapshot(s) round-trip.
    run([test_bin])
    print("golden trace(s) regenerated and verified")


if __name__ == "__main__":
    main()
