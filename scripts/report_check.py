#!/usr/bin/env python3
"""Smoke-check the structured run report exported by facility_dashboard.

Runs build/examples/facility_dashboard with --json, parses the export and
validates that the observability layer actually captured what the
acceptance criteria demand: per-rack reports with summary/metrics/events,
MPC solver counters that moved, and allocator + UPS events in the
timeline. A second pass re-runs the dashboard with --recovery and a
scripted fault plan and validates the health/recovery summary blocks
(active alerts, remediation actions, incidents resolved, MTTR). Exits
non-zero (with a reason) on the first violation.

Usage:
    scripts/report_check.py [--dashboard build/examples/facility_dashboard]
                            [--racks 3] [--keep FILE] [--skip-recovery]
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def fail(msg: str) -> None:
    print(f"report_check: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_rack(i: int, rack: dict) -> None:
    for key in ("label", "summary", "metrics", "events", "dropped_count"):
        if key not in rack:
            fail(f"rack {i}: missing key '{key}'")
    if not isinstance(rack["dropped_count"], int) or rack["dropped_count"] < 0:
        fail(f"rack {i}: dropped_count must be a non-negative integer")
    if "windowed" not in rack["metrics"]:
        fail(f"rack {i}: metrics missing 'windowed' section")
    if rack["label"] != f"SprintCon/rack{i}":
        fail(f"rack {i}: unexpected label {rack['label']!r}")

    counters = rack["metrics"].get("counters", {})
    if counters.get("mpc.solves.structured", 0) <= 0:
        fail(f"rack {i}: no MPC solves recorded")
    if counters.get("mpc.qp.iterations", 0) <= 0:
        fail(f"rack {i}: no QP iterations recorded")

    summary = rack["summary"]
    for key in ("avg_freq_batch", "ups_discharged_wh", "cb_trips",
                "all_deadlines_met"):
        if key not in summary:
            fail(f"rack {i}: summary missing '{key}'")

    events = rack["events"]
    if not events:
        fail(f"rack {i}: empty event timeline")
    types = {e.get("type") for e in events}
    if "allocator_decision" not in types:
        fail(f"rack {i}: no allocator_decision events (saw {sorted(types)})")
    if "ups_setpoint" not in types:
        fail(f"rack {i}: no ups_setpoint events (saw {sorted(types)})")
    seqs = [e["seq"] for e in events]
    if seqs != sorted(seqs):
        fail(f"rack {i}: event sequence numbers not monotone")


FAULT_PLAN = """\
dvfs_stuck start=120 duration=300
meter_dropout start=200 duration=250
"""


def run_dashboard(dashboard: pathlib.Path, racks: int,
                  extra: list, keep: pathlib.Path = None) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = pathlib.Path(tmp.name)
    try:
        subprocess.run(
            [str(dashboard), str(racks), "--json", str(out_path)] + extra,
            check=True, capture_output=True, text=True)
        return json.loads(out_path.read_text())
    except subprocess.CalledProcessError as exc:
        fail(f"dashboard exited {exc.returncode}: {exc.stderr.strip()}")
    except json.JSONDecodeError as exc:
        fail(f"export is not valid JSON: {exc}")
    finally:
        if keep is not None:
            keep.write_bytes(out_path.read_bytes())
        out_path.unlink(missing_ok=True)


def check_recovery_export(doc: dict, racks: int) -> None:
    """Validate the --recovery health/recovery summary blocks."""
    for key in ("health", "recovery"):
        block = doc.get(key)
        if not isinstance(block, list) or len(block) != racks:
            fail(f"--recovery export: '{key}' must list all {racks} racks")
    for i, h in enumerate(doc["health"]):
        if not isinstance(h.get("active_alerts"), int) or h["active_alerts"] < 0:
            fail(f"rack {i}: health.active_alerts must be a non-negative int")
        if not isinstance(h.get("degraded"), list):
            fail(f"rack {i}: health.degraded must be a list")
        if len(h["degraded"]) != h["active_alerts"]:
            fail(f"rack {i}: degraded list length != active_alerts")
    total_actions = 0
    total_resolved = 0
    for i, r in enumerate(doc["recovery"]):
        for key in ("actions", "incidents_resolved", "active_incidents",
                    "quarantined", "last_mttr_s"):
            if key not in r:
                fail(f"rack {i}: recovery summary missing '{key}'")
        total_actions += r["actions"]
        total_resolved += r["incidents_resolved"]
        if r["incidents_resolved"] > 0 and r["last_mttr_s"] < 0:
            fail(f"rack {i}: incidents resolved but last_mttr_s unset")
    if total_actions <= 0:
        fail("recovery engine took no actions against the scripted faults")
    if total_resolved <= 0:
        fail("recovery engine resolved no incidents")
    quarantined = doc.get("facility", {}).get("quarantined_racks")
    if not isinstance(quarantined, list):
        fail("--recovery export: facility.quarantined_racks missing")
    # Each rack's own metric registry must agree with its summary block.
    for i, (rack, rec) in enumerate(zip(doc.get("racks", []),
                                        doc["recovery"])):
        counters = rack["metrics"].get("counters", {})
        if counters.get("recovery.actions", 0) != rec["actions"]:
            fail(f"rack {i}: recovery.actions counter disagrees with summary")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dashboard",
                        default=REPO_ROOT / "build/examples/facility_dashboard",
                        type=pathlib.Path)
    parser.add_argument("--racks", type=int, default=3)
    parser.add_argument("--keep", type=pathlib.Path, default=None,
                        help="also write the raw JSON export here")
    parser.add_argument("--skip-recovery", action="store_true",
                        help="skip the --recovery fault-plan pass")
    args = parser.parse_args()

    if not args.dashboard.exists():
        fail(f"dashboard binary not found at {args.dashboard} "
             "(build with -DSPRINTCON_BUILD_EXAMPLES=ON)")

    doc = run_dashboard(args.dashboard, args.racks, [], keep=args.keep)

    context = doc.get("context")
    if not isinstance(context, dict):
        fail("missing context block")
    for key in ("git_commit", "build_type", "num_racks", "num_shards",
                "duration_s"):
        if key not in context:
            fail(f"context missing '{key}'")
    if context["num_racks"] != args.racks:
        fail(f"context.num_racks != {args.racks}")
    if context["num_shards"] < 1:
        fail("context.num_shards must be >= 1")

    if "facility" not in doc or "metrics" not in doc["facility"]:
        fail("missing facility.metrics")
    fac_counters = doc["facility"]["metrics"].get("counters", {})
    if fac_counters.get("facility.racks", 0) != args.racks:
        fail(f"facility.racks counter != {args.racks}")

    racks = doc.get("racks", [])
    if len(racks) != args.racks:
        fail(f"expected {args.racks} rack reports, got {len(racks)}")
    for i, rack in enumerate(racks):
        check_rack(i, rack)

    for key in ("health", "recovery"):
        if key in doc:
            fail(f"default run must not export a '{key}' block")

    total_events = sum(len(r["events"]) for r in racks)
    print(f"report_check: OK — {len(racks)} racks, {total_events} events, "
          f"{sum(r['metrics']['counters'].get('mpc.solves.structured', 0) for r in racks)} "
          "structured MPC solves")

    if not args.skip_recovery:
        with tempfile.NamedTemporaryFile(mode="w", suffix=".plan",
                                         delete=False) as tmp:
            tmp.write(FAULT_PLAN)
            plan_path = pathlib.Path(tmp.name)
        try:
            rec_doc = run_dashboard(
                args.dashboard, args.racks,
                ["--recovery", "--faults", str(plan_path)])
        finally:
            plan_path.unlink(missing_ok=True)
        check_recovery_export(rec_doc, args.racks)
        total = sum(r["actions"] for r in rec_doc["recovery"])
        resolved = sum(r["incidents_resolved"] for r in rec_doc["recovery"])
        print(f"report_check: OK — recovery pass: {total} actions, "
              f"{resolved} incidents resolved across {args.racks} racks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
