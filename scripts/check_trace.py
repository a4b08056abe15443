#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON export from the span tracer.

Checks the invariants the Tracer promises (DESIGN.md §8.5):
  * top level is {"traceEvents": [...], ...};
  * every record has name/ph/pid/tid, phases are B/E/I/M only;
  * durations carry a numeric "ts" that is non-decreasing per (pid, tid)
    track (each TraceBuffer appends from one thread against one clock);
  * B/E records nest properly per track: every E closes the innermost
    open B with the same name, and no span is left open at the end;
  * each track with events has a thread_name metadata record.

Two modes:
    scripts/check_trace.py TRACE.json
        validate an existing export.
    scripts/check_trace.py --dashboard build/examples/facility_dashboard \
        [--racks 3] [--threads 2]
        self-run the dashboard on a temporary `fleet racks=N` scenario
        with --trace into a temp file, validate it,
        and additionally require the decision-path and shard spans
        (mpc_solve, power_outcome, shard_epoch) that a facility run must
        produce. This is the `trace` ctest.

Exits non-zero with a reason on the first violation. tests/trace_fixtures/
holds one valid export and three invalid ones (broken nesting, a ts that
goes backwards, an unnamed track); the `static` ctests check that each
invalid one fails with its own reason.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

VALID_PHASES = {"B", "E", "I", "M"}


def fail(msg: str) -> None:
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate(doc: dict) -> dict:
    """Validate the document; return {span name: count} over B records."""
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("top-level 'traceEvents' array missing")

    last_ts = {}     # (pid, tid) -> last timestamp seen
    stacks = {}      # (pid, tid) -> open span-name stack
    named = set()    # tracks with a thread_name metadata record
    seen = set()     # tracks with at least one non-metadata event
    begins = {}      # span name -> count

    for i, e in enumerate(events):
        if not isinstance(e, dict):
            fail(f"record {i}: not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                fail(f"record {i}: missing '{key}'")
        ph = e["ph"]
        if ph not in VALID_PHASES:
            fail(f"record {i}: invalid phase {ph!r}")
        track = (e["pid"], e["tid"])

        if ph == "M":
            if e["name"] == "thread_name":
                if not e.get("args", {}).get("name"):
                    fail(f"record {i}: thread_name metadata without a name")
                named.add(track)
            continue

        seen.add(track)
        ts = e.get("ts")
        if not isinstance(ts, (int, float)):
            fail(f"record {i}: missing numeric 'ts'")
        if ts < last_ts.get(track, float("-inf")):
            fail(f"record {i}: ts {ts} decreases on track {track} "
                 f"(was {last_ts[track]})")
        last_ts[track] = ts

        if ph == "B":
            stacks.setdefault(track, []).append(e["name"])
            begins[e["name"]] = begins.get(e["name"], 0) + 1
        elif ph == "E":
            stack = stacks.get(track, [])
            if not stack:
                fail(f"record {i}: 'E' for {e['name']!r} on track {track} "
                     "with no open span")
            top = stack.pop()
            if top != e["name"]:
                fail(f"record {i}: 'E' for {e['name']!r} closes open span "
                     f"{top!r} on track {track} (spans must nest)")

    for track, stack in stacks.items():
        if stack:
            fail(f"track {track}: spans left open at end of trace: {stack}")
    unnamed = seen - named
    if unnamed:
        fail(f"tracks without thread_name metadata: {sorted(unnamed)}")
    return begins


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", nargs="?", type=pathlib.Path,
                        help="existing trace-event JSON file to validate")
    parser.add_argument("--dashboard", type=pathlib.Path, default=None,
                        help="facility_dashboard binary: self-run with "
                             "--trace and validate the output")
    parser.add_argument("--racks", type=int, default=3)
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args()

    if (args.trace is None) == (args.dashboard is None):
        parser.error("pass exactly one of TRACE.json or --dashboard BIN")

    require_spans = ()
    if args.dashboard is not None:
        if not args.dashboard.exists():
            fail(f"dashboard binary not found at {args.dashboard}")
        with tempfile.TemporaryDirectory() as tmp:
            scn_path = pathlib.Path(tmp) / "run.scn"
            trace_path = pathlib.Path(tmp) / "trace.json"
            scn_path.write_text("scenario name=check-trace\n"
                                f"fleet racks={args.racks}\n")
            try:
                subprocess.run(
                    [str(args.dashboard), "--scenario", str(scn_path),
                     "--threads", str(args.threads),
                     "--trace", str(trace_path)],
                    check=True, capture_output=True, text=True)
                doc = json.loads(trace_path.read_text())
            except subprocess.CalledProcessError as exc:
                fail(f"dashboard exited {exc.returncode}: "
                     f"{exc.stderr.strip()}")
            except json.JSONDecodeError as exc:
                fail(f"trace is not valid JSON: {exc}")
        require_spans = ("mpc_solve", "power_outcome", "shard_epoch")
    else:
        try:
            doc = json.loads(args.trace.read_text())
        except FileNotFoundError:
            fail(f"no such file: {args.trace}")
        except json.JSONDecodeError as exc:
            fail(f"trace is not valid JSON: {exc}")

    begins = validate(doc)
    for span in require_spans:
        if begins.get(span, 0) <= 0:
            fail(f"required span {span!r} absent from the trace "
                 f"(saw {sorted(begins)})")

    total = sum(begins.values())
    print(f"check_trace: OK — {total} spans across "
          f"{len(begins)} span names: "
          + ", ".join(f"{k}×{v}" for k, v in sorted(begins.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
