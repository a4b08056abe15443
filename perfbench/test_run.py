#!/usr/bin/env python3
"""The benchmark's own tests: every check it makes must be able to fail.

Run from the repository root (builds the benchmark first if needed):

    python3 perfbench/test_run.py

Each negative fixture turns one check red -- a wrong stored digest, a
driven tick that skips recorder().sample(), a sharded workload forced onto
one shard -- next to a positive control showing the same check green.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the benchmark itself, for its paths)

SECONDS = "2"


def bench(workload, *extra, seed=42, trace=0):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
         *extra],
        capture_output=True, text=True, cwd=run.ROOT, check=True)
    report, result = (json.loads(line)
                      for line in done.stdout.strip().splitlines()[-2:])
    return report, result


class DigestCheck(unittest.TestCase):
    def test_stored_digest_passes(self):
        report, result = bench("small-rig-fleet")
        self.assertTrue(report["checks"]["digest"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_other_seed_is_checked_at_the_stored_seed(self):
        report, result = bench("small-rig-fleet", seed=7)
        self.assertNotEqual(report["digest"], report["digest_seed_digest"])
        self.assertTrue(report["checks"]["digest"])
        self.assertTrue(result["correct"])

    def test_wrong_digest_fails_every_rack(self):
        stored = json.loads((BENCH_DIR / "digests.json").read_text())
        stored["digests"]["small-rig-fleet"] = "0" * 16
        wrong = run.build_dir() / "test-wrong-digests.json"
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_text(json.dumps(stored))
        report, result = bench("small-rig-fleet", "--digests", str(wrong))
        self.assertFalse(report["checks"]["digest"])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(report["sim"]["failed_rack_frac"]["value"], 1.0)


class BitIdentityGuard(unittest.TestCase):
    def test_driven_tick_reproduces_rig_run(self):
        report, result = bench("paper-racks", trace=1)
        self.assertTrue(report["checks"]["bit_identical"])
        self.assertTrue(report["checks"]["layer_sum"])
        self.assertTrue(report["checks"]["tick_matches_run"])
        self.assertTrue(result["correct"])

    def test_skipping_recorder_sample_is_caught(self):
        report, result = bench("paper-racks", "--skip-sample", trace=1)
        self.assertFalse(report["checks"]["bit_identical"])
        self.assertFalse(result["correct"])


class ShardingCheck(unittest.TestCase):
    def test_single_shard_run_fails_and_reads_slower(self):
        two, two_result = bench("small-rig-fleet", trace=1)
        one, one_result = bench("small-rig-fleet", "--shards", "1", trace=1)
        self.assertTrue(two["checks"]["sharded"])
        self.assertTrue(two_result["correct"])
        self.assertEqual(one["shards"], 1)
        self.assertFalse(one["checks"]["sharded"])
        self.assertFalse(one_result["correct"])
        self.assertAlmostEqual(
            one_result["metrics"]["facility.parallel_eff"]["value"], 1.0,
            delta=0.05)

        _, fast = bench("small-rig-fleet")
        _, slow = bench("small-rig-fleet", "--shards", "1")
        self.assertLess(slow["metrics"]["rig_ticks_per_s"]["value"],
                        fast["metrics"]["rig_ticks_per_s"]["value"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
