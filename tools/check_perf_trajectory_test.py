#!/usr/bin/env python3
"""Unit tests for check_perf_trajectory.py.

Run directly (python3 tools/check_perf_trajectory_test.py) or through
ctest, which registers this file as check_perf_trajectory_test.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import check_perf_trajectory  # noqa: E402

COMMITTED = os.path.join(HERE, os.pardir, "BENCH_fleet_scale.json")


def record(block, config, median_ms, events, counters):
    return {"block": block, "config": config, "repeats": 3,
            "wall_ms": {"median": median_ms, "min": median_ms,
                        "max": median_ms},
            "events": events, "events_per_sec": events / (median_ms / 1e3),
            "counters": counters, "behavior": {"makespan_ms": 10.0}}


def field(rec, path):
    return {"block": rec["block"], "config": rec["config"], "value": path}


def sample_doc():
    on = record("storm", {"hosts": 3, "retries": "on"}, 10.0, 1000,
                {"give_ups": 1, "retries": 5})
    off = record("storm", {"hosts": 3, "retries": "off"}, 8.0, 900,
                 {"give_ups": 20, "retries": 0})
    return {
        "bench": "fleet_scale",
        "schema_version": check_perf_trajectory.SCHEMA_VERSION,
        "records": [on, off],
        "assertions": [
            {"left": field(on, "counters.retries"), "op": ">", "right": 0},
            {"left": field(on, "counters.give_ups"), "op": "<",
             "right": field(off, "counters.give_ups")},
        ],
    }


class CheckPerfTrajectoryTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def check(self, fresh, committed):
        """Exit code of the checker on the two documents."""
        args = [self.write("fresh.json", fresh),
                self.write("committed.json", committed)]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                return check_perf_trajectory.main(args)
        except SystemExit as exit_:
            return exit_.code

    def test_committed_file_passes_against_itself(self):
        with open(COMMITTED, "r", encoding="utf-8") as f:
            doc = json.load(f)
        self.assertTrue(doc["records"])
        self.assertTrue(doc["assertions"])
        self.assertEqual(self.check(doc, doc), 0)

    def test_wall_clock_regression_fails(self):
        fresh = sample_doc()
        fresh["records"][0]["wall_ms"]["median"] *= 3.5
        self.assertEqual(self.check(fresh, sample_doc()), 1)

    def test_wall_clock_within_ratio_passes(self):
        fresh = sample_doc()
        fresh["records"][0]["wall_ms"]["median"] *= 2.5
        fresh["records"][0]["events_per_sec"] /= 2.5
        self.assertEqual(self.check(fresh, sample_doc()), 0)

    def test_events_per_sec_below_floor_fails(self):
        fresh = sample_doc()
        fresh["records"][1]["events_per_sec"] /= 3.5
        self.assertEqual(self.check(fresh, sample_doc()), 1)

    def test_missing_record_fails(self):
        fresh = sample_doc()
        del fresh["records"][1]
        fresh["assertions"] = fresh["assertions"][:1]
        committed = sample_doc()
        committed["assertions"] = committed["assertions"][:1]
        self.assertEqual(self.check(fresh, committed), 1)

    def test_false_assertion_fails(self):
        fresh = sample_doc()
        fresh["records"][0]["counters"]["give_ups"] = 25
        self.assertEqual(self.check(fresh, sample_doc()), 1)

    def test_dropped_assertion_fails(self):
        fresh = sample_doc()
        fresh["assertions"].pop()
        self.assertEqual(self.check(fresh, sample_doc()), 1)

    def test_counter_drift_is_only_a_note(self):
        fresh = sample_doc()
        fresh["records"][1]["counters"]["retries"] = 3
        fresh["records"][1]["behavior"]["makespan_ms"] = 11.0
        self.assertEqual(self.check(fresh, sample_doc()), 0)

    def test_schema_version_mismatch_is_bad_input(self):
        fresh = sample_doc()
        fresh["schema_version"] = check_perf_trajectory.SCHEMA_VERSION - 1
        self.assertEqual(self.check(fresh, sample_doc()), 2)


if __name__ == "__main__":
    unittest.main()
