#!/usr/bin/env python3
"""SprintCon repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ -- a CMake package that compiles the library from this
checkout's sources -- in Release into .bench_build/ (or $CARGO_TARGET_DIR),
then runs one workload for --seconds of wall clock:

  --trace 0  repeats the whole pipeline (spec load + compile + Facility
             construction, Facility::run(), summaries() + facility
             aggregation) with tracing off and reports the end-to-end
             metrics of BENCHMARK.json over the repetitions;
  --trace 1  reports the per-layer metrics of BENCHMARK.json instead.

perfbench/README.md says how each metric is measured. Every run checks the
simulated outputs: each rack must finish without throwing, keep every
channel finite and SOC within [0, 1], never trip its breaker and serve all
demand; repeated runs must agree bit for bit; and the channel digest at
the seed perfbench/digests.json pins must match the stored one (a mismatch
fails every rack). The traced run adds its own guards (bit-identical
driven ticks, layer sums within 10%, sharding actually concurrent).

The second-to-last stdout line is the full report (host context, every
figure, every check); the last is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

The options --digests, --shards and --skip-sample exist for the
benchmark's own tests (perfbench/test_run.py), which use them to show each
check going red.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = {
    "paper-racks": {"observability": False},
    "small-rig-fleet": {"observability": False},
    "surge-brownout": {"observability": True},
}

# The default seed (digests.json pins the digests at it), and one kept out
# of every measurement made while writing the benchmark, for later claims.
DEFAULT_SEED = 42
HELD_OUT_SEED = 271828

# The whole run must end within 180 s; leave room for building and start-up.
MEASURE_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that leaves no result to print."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build the measuring binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no SprintCon sources under {ROOT}", 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "perfbench-build.log"
    with open(out / "perfbench.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, len(os.sched_getaffinity(0))))
        steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                raise BenchError(f"build failed ({' '.join(cmd)}):\n{tail}", 3)
    return out / "perfbench"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(exe, args, spec, digest_seed):
    cmd = [str(exe), "--spec", str(spec), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--digest-seed", str(digest_seed)]
    if WORKLOADS[args.workload]["observability"]:
        cmd.append("--observability")
    if args.trace:
        cmd.append("--trace")
    if args.shards:
        cmd += ["--shards", str(args.shards)]
    if args.skip_sample:
        cmd.append("--skip-sample")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"measurement timed out: {e}", 5)
    if done.returncode != 0:
        raise BenchError(f"measurement failed: {done.stderr.strip()}", 5)
    return json.loads(done.stdout.strip().splitlines()[-1])


def wall_times(raw):
    return [s + r + p for s, r, p in
            zip(raw["setup_s"], raw["run_s"], raw["report_s"])]


def distribution(values):
    """Fastest, median and p90 of a run's repetitions."""
    deciles = statistics.quantiles(values, n=10) if len(values) > 1 else values
    return {"n": len(values), "min": min(values),
            "median": statistics.median(values), "p90": deciles[-1]}


def end_to_end(raw):
    """The BENCHMARK.json end-to-end figures.

    Host noise here only ever adds time, in bursts that last seconds, so
    the fastest repetition is the steady estimate of run and wall time;
    set-up, which is short and allocation-bound, is the median. The
    report line carries every distribution.
    """
    run_s = min(raw["run_s"])
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "run_s": run_s,
        "wall_s": min(wall_times(raw)),
        "rig_ticks_per_s": raw["rig_ticks"] / run_s if run_s > 0 else 0.0,
        "peak_rss_mb": raw["peak_rss_mib"],
    }


def simulated(raw, failed):
    """Simulated outcomes: exact for a seed, so they vary only with it."""
    sim = raw["sim"]
    return {
        "sim.ups_dod": {"value": sim["ups_dod"], "unit": "ratio"},
        "sim.p95_latency_ms": {"value": sim["p95_latency_ms"], "unit": "ms"},
        "sim.unserved_wh": {"value": sim["unserved_wh"], "unit": "Wh"},
        "sim.deadline_miss_frac": {"value": sim["deadline_miss_frac"],
                                   "unit": "ratio"},
        "failed_rack_frac": {"value": failed / raw["rack_runs"],
                             "unit": "ratio", "base": raw["rack_runs"]},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", type=Path,
                        default=BENCH_DIR / "digests.json",
                        help="stored digests to check against")
    parser.add_argument("--shards", type=int, default=0,
                        help="override the workload's shard count")
    parser.add_argument("--skip-sample", action="store_true",
                        help="drop the driven tick's recorder call")
    args = parser.parse_args()

    spec_file = BENCH_DIR / "workloads" / f"{args.workload}.scn"
    bench_json = ROOT / "BENCHMARK.json"
    if not bench_json.is_file():
        raise BenchError(f"missing {bench_json}", 2)
    declared = json.loads(bench_json.read_text())
    exe = build()

    load_before = os.getloadavg()
    started = time.time()
    stored = json.loads(args.digests.read_text())
    raw = measure(exe, args, spec_file, stored["seed"])
    elapsed = time.time() - started
    load_after = os.getloadavg()
    if raw["build_type"] != "Release":
        raise BenchError(f"refusing a {raw['build_type']!r} build", 4)

    failed = raw["failed_rack_runs"]
    checks = {"deterministic": raw["deterministic"],
              "racks_pass": failed == 0}
    # Checked on every run: at the stored seed the binary reports the
    # digest of one extra, untimed run when --seed differs.
    checks["digest"] = (raw["digest_seed_digest"] ==
                        stored["digests"][args.workload])
    if not checks["digest"]:
        failed = raw["rack_runs"]
    checks.update(raw.get("checks", {}))

    if args.trace:
        figures = raw["layers"]
        wanted = declared["per_layer"]
    else:
        figures = end_to_end(raw)
        wanted = declared["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        raise BenchError(f"no figure for {missing}", 6)
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in wanted}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "load_before": load_before,
            "load_after": load_after,
            "build_type": raw["build_type"],
            "commit": git_commit(),
        },
        "measured_s": elapsed,
        "racks": raw["racks"],
        "shards": raw["shards"],
        "failures": raw["failures"],
        "digest": raw["digest"],
        "digest_seed": stored["seed"],
        "digest_seed_digest": raw["digest_seed_digest"],
        "sim": simulated(raw, failed),
        "reps_s": {"setup": distribution(raw["setup_s"]),
                   "run": distribution(raw["run_s"]),
                   "report": distribution(raw["report_s"]),
                   "wall": distribution(wall_times(raw))},
        "checks": checks,
        "check_values": raw.get("check_values", {}),
        "figures": figures,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": raw["rack_runs"],
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(e.code)
