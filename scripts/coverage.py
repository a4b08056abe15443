#!/usr/bin/env python3
"""Which library code do the shipped runs execute?

Run from the repository root:

    python3 scripts/coverage.py                     # build, run, report
    python3 scripts/coverage.py --check tests/coverage_baseline.txt
    python3 scripts/coverage.py --from RUNS ALL     # report saved gcov data

It builds the repository with --coverage and atomic counters (Debug, so
no line is folded away) into build-coverage/main, and perfbench/ the same way through its
own CMake package into build-coverage/perfbench; perfbench's files are
not edited. It then runs the *run set*:

  - the `figures` and `examples` ctest labels;
  - every scenario file (examples/scenarios/, perfbench/workloads/)
    through `facility_dashboard --scenario FILE --json OUT`, and one
    faulted, recovering facility (rolling-brownout's racks and faults
    with `recovery=true`) on two threads with `--json` and `--trace`;
  - every figure and ablation harness with `--csv DIR`;
  - `custom_rack` plain (its synthesized trace) and on
    tests/cli_fixtures/replay-trace.csv;
  - the perfbench binary on each workload, with and without `--trace`.

and takes a gcov snapshot (`gcov --json-format`, GCC 12, nothing
downloaded). Then it runs the rest of the test suite and takes a second
snapshot. Every instrumented line and function of src/ falls in one of
three sets:

  run-reached  executed by the run set;
  test-only    executed only once the tests ran too;
  dead         executed by neither.

The report lists the sets per file and per function, and ends with the
number of src/ lines that no run executes (test-only plus dead). The two
raw snapshots are kept as build-coverage/gcov-runs.jsonl and
gcov-all.jsonl; `--from` reports on saved snapshots without building.

`--check BASELINE` compares that number with the count committed in
BASELINE (the first line that is not a comment) and exits 1 when it is
higher, so new code must be reached by a run or be deleted.

Functions that no translation unit instantiates (an unused inline
function in a header, an uncalled template) are invisible to gcov and
so to this report.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

HARNESS_LABELS = "figures|examples"


class CoverageError(Exception):
    pass


# --------------------------------------------------------------- building

def run(cmd, cwd=ROOT, **kwargs):
    print("+ " + " ".join(str(c) for c in cmd), flush=True)
    done = subprocess.run([str(c) for c in cmd], cwd=cwd, **kwargs)
    if done.returncode != 0:
        raise CoverageError(f"command failed ({done.returncode}): "
                            + " ".join(str(c) for c in cmd))
    return done


def build(out, jobs):
    # Atomic counters: the sharded facility runs on several threads, and
    # racy increments would let gcov derive wrong (even zero) counts for
    # lines whose count it computes from other arcs, so the report would
    # change from run to run.
    flags = ["-DCMAKE_BUILD_TYPE=Debug",
             "-DCMAKE_CXX_FLAGS=--coverage -fprofile-update=atomic",
             "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]
    main, bench = out / "main", out / "perfbench"
    run(["cmake", "-S", ROOT, "-B", main, "-DSPRINTCON_BUILD_TESTS=ON",
         "-DSPRINTCON_BUILD_BENCH=ON", "-DSPRINTCON_BUILD_EXAMPLES=ON"]
        + flags, stdout=subprocess.DEVNULL)
    run(["cmake", "--build", main, "-j", jobs], stdout=subprocess.DEVNULL)
    run(["cmake", "-S", ROOT / "perfbench", "-B", bench] + flags,
        stdout=subprocess.DEVNULL)
    run(["cmake", "--build", bench, "-j", jobs, "--target", "perfbench"],
        stdout=subprocess.DEVNULL)
    return main, bench


def run_set(main, bench, scratch):
    """Everything a user of the repository runs; tests excluded."""
    quiet = {"stdout": subprocess.DEVNULL}
    run(["ctest", "--test-dir", main, "-L", HARNESS_LABELS,
         "--output-on-failure"], **quiet)
    dashboard = main / "examples" / "facility_dashboard"
    scenarios = sorted(glob.glob(str(ROOT / "examples/scenarios/*.scn"))
                       + glob.glob(str(ROOT / "perfbench/workloads/*.scn")))
    for scn in scenarios:
        run([dashboard, "--scenario", scn,
             "--json", scratch / (Path(scn).stem + ".json")], **quiet)
    brownout = (ROOT / "examples/scenarios/rolling-brownout.scn").read_text()
    if "health=true" not in brownout:
        raise CoverageError("rolling-brownout.scn: no `health=true` to "
                            "extend with `recovery=true`")
    recovering = scratch / "recovery.scn"
    recovering.write_text(
        brownout.replace("health=true", "health=true recovery=true"))
    run([dashboard, "--scenario", recovering, "--threads", "2",
         "--json", scratch / "recovery.json",
         "--trace", scratch / "recovery.trace.json"], **quiet)
    for cpp in sorted((ROOT / "bench").glob("*.cpp")):
        if cpp.stem != "perf_controller":
            run([main / "bench" / cpp.stem, "--csv", scratch / cpp.stem],
                **quiet)
    custom_rack = main / "examples" / "custom_rack"
    run([custom_rack], cwd=scratch, **quiet)
    run([custom_rack, ROOT / "tests/cli_fixtures/replay-trace.csv"],
        cwd=scratch, **quiet)
    exe = bench / "perfbench"
    for scn in sorted((ROOT / "perfbench" / "workloads").glob("*.scn")):
        cmd = [exe, "--spec", scn, "--seconds", "1"]
        if scn.stem == "surge-brownout":
            cmd.append("--observability")
        run(cmd, **quiet)
        run(cmd + ["--trace"], **quiet)


def run_tests(main, jobs):
    run(["ctest", "--test-dir", main, "-LE", HARNESS_LABELS, "-j", jobs,
         "--output-on-failure"], stdout=subprocess.DEVNULL)


def snapshot(dirs, dest):
    """Write gcov's JSON for every object under dirs to dest (JSON lines)."""
    notes = sorted(str(p) for d in dirs for p in Path(d).rglob("*.gcno"))
    with open(dest, "w") as out:
        for i in range(0, len(notes), 64):
            done = subprocess.run(
                ["gcov", "--json-format", "--stdout"] + notes[i:i + 64],
                cwd=dest.parent, stdout=out, stderr=subprocess.DEVNULL)
            if done.returncode != 0:
                raise CoverageError("gcov failed; is GCC's gcov on PATH?")


# --------------------------------------------------------------- analysis

def load(path):
    """Merge a gcov JSON-lines snapshot into per-line and per-function
    counts for src/ files: ({(file, line): count}, {(file, name): entry})."""
    lines, funcs = {}, {}
    src = str(SRC) + os.sep
    with open(path) as f:
        for raw in f:
            raw = raw.strip()
            if not raw:
                continue
            for entry in json.loads(raw)["files"]:
                name = entry["file"]
                if not os.path.isabs(name):
                    name = os.path.normpath(ROOT / name)
                if not name.startswith(src):
                    continue
                rel = os.path.relpath(name, ROOT)
                mangled = {}
                for fn in entry["functions"]:
                    key = (rel, fn["demangled_name"])
                    mangled[fn["name"]] = key
                    have = funcs.setdefault(
                        key, {"line": fn["start_line"], "count": 0,
                              "lines": set()})
                    have["count"] += fn["execution_count"]
                for ln in entry["lines"]:
                    key = (rel, ln["line_number"])
                    lines[key] = lines.get(key, 0) + ln["count"]
                    owner = mangled.get(ln.get("function_name"))
                    if owner is not None:
                        funcs[owner]["lines"].add(ln["line_number"])
    return lines, funcs


def classify(runs_path, all_path):
    run_lines, run_funcs = load(runs_path)
    all_lines, all_funcs = load(all_path)
    lines = {k: ("run" if run_lines.get(k, 0) > 0 else
                 "test" if c > 0 else "dead")
             for k, c in all_lines.items()}
    funcs = {k: ("run" if run_funcs.get(k, {"count": 0})["count"] > 0 else
                 "test" if f["count"] > 0 else "dead", f)
             for k, f in all_funcs.items()}
    return lines, funcs


def report(lines, funcs):
    per_file = {}
    for (path, _), kind in lines.items():
        per_file.setdefault(path, {"run": 0, "test": 0, "dead": 0})[kind] += 1
    print(f"{'file':44} {'lines':>6} {'run':>6} {'test-only':>9} "
          f"{'dead':>5}")
    for path in sorted(per_file):
        c = per_file[path]
        print(f"{path:44} {sum(c.values()):6d} {c['run']:6d} "
              f"{c['test']:9d} {c['dead']:5d}")
    for kind, title in (("test", "test-only"), ("dead", "dead")):
        chosen = sorted((k, f) for k, (s, f) in funcs.items() if s == kind)
        n_lines = sum(len(f["lines"]) for _, f in chosen)
        print(f"\n{title} functions: {len(chosen)} ({n_lines} lines)")
        for (path, name), f in chosen:
            print(f"  {path}:{f['line']}  {name}  ({len(f['lines'])} lines)")
    total = len(lines)
    reached = sum(1 for k in lines.values() if k == "run")
    with_tests = sum(1 for k in lines.values() if k != "dead")
    print(f"\ninstrumented src/ lines: {total}")
    if total:
        print(f"run-reached: {reached} ({100.0 * reached / total:.1f}%); "
              f"with tests: {with_tests} ({100.0 * with_tests / total:.1f}%)")
    print(f"functions: {len(funcs)}; run-reached "
          f"{sum(1 for s, _ in funcs.values() if s == 'run')}, test-only "
          f"{sum(1 for s, _ in funcs.values() if s == 'test')}, dead "
          f"{sum(1 for s, _ in funcs.values() if s == 'dead')}")
    unreached = total - reached
    print(f"src/ lines no run executes: {unreached}")
    return unreached


def read_baseline(path):
    for raw in Path(path).read_text().splitlines():
        raw = raw.strip()
        if raw and not raw.startswith("#"):
            return int(raw)
    raise CoverageError(f"{path}: no count")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--jobs", default=str(os.cpu_count() or 2))
    parser.add_argument("--from", dest="snapshots", nargs=2, type=Path,
                        metavar=("RUNS", "ALL"),
                        help="report on saved gcov snapshots, no build")
    parser.add_argument("--check", type=Path, metavar="BASELINE",
                        help="fail if more src/ lines go unexecuted by "
                             "runs than BASELINE allows")
    args = parser.parse_args()

    try:
        if args.snapshots:
            runs_path, all_path = args.snapshots
        else:
            out = ROOT / "build-coverage"
            main_dir, bench_dir = build(out, args.jobs)
            for d in (main_dir, bench_dir):
                for gcda in d.rglob("*.gcda"):
                    gcda.unlink()
            scratch = out / "artifacts"
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir()
            run_set(main_dir, bench_dir, scratch)
            runs_path, all_path = out / "gcov-runs.jsonl", out / "gcov-all.jsonl"
            snapshot([main_dir, bench_dir], runs_path)
            run_tests(main_dir, args.jobs)
            snapshot([main_dir, bench_dir], all_path)
        lines, funcs = classify(runs_path, all_path)
        if not lines:
            # A snapshot of another checkout (gcov records absolute
            # paths) or of no build at all must not pass --check.
            raise CoverageError(f"no line under {SRC} in the snapshots")
        unreached = report(lines, funcs)
        if args.check:
            allowed = read_baseline(args.check)
            if unreached > allowed:
                print(f"coverage: FAIL: {unreached} src/ lines no run "
                      f"executes; {args.check.name} allows {allowed}")
                return 1
            print(f"coverage: OK: {unreached} src/ lines no run executes "
                  f"(baseline {allowed})")
        return 0
    except CoverageError as e:
        print(f"coverage: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
