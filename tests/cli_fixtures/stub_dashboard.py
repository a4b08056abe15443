#!/usr/bin/env python3
"""Stand-in for facility_dashboard that writes a broken export.

Accepts `--scenario FILE --json OUT` like the real dashboard, reads the
fleet size from the scenario's `racks=N`, and writes an otherwise
well-formed export in which rack 0 has no `events` key. The
`report_check_goes_red` ctest runs scripts/report_check.py against it,
which must fail with "rack 0: missing key 'events'".
"""

import argparse
import json
import re

parser = argparse.ArgumentParser()
parser.add_argument("--scenario", required=True)
parser.add_argument("--json", required=True)
args = parser.parse_args()

with open(args.scenario) as f:
    racks = int(re.search(r"\bracks=(\d+)", f.read()).group(1))

rack = {"label": "", "summary": {}, "metrics": {"windowed": {}},
        "events": [], "dropped_count": 0}
reports = [dict(rack, label=f"SprintCon/rack{i}") for i in range(racks)]
del reports[0]["events"]
doc = {"context": {"git_commit": "stub", "build_type": "stub",
                   "num_racks": racks, "num_shards": 1, "duration_s": 900},
       "facility": {"metrics": {"counters": {"facility.racks": racks}}},
       "racks": reports}
with open(args.json, "w") as f:
    json.dump(doc, f)
