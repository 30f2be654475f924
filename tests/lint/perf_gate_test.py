#!/usr/bin/env python3
"""Tests for scripts/perf_gate.py (the CI perf regression gate).

No bench run is needed: the tests write synthetic BENCH_retrieval.json
baselines and drive every exit path of the gate — pass, fail on a slower
kernel or Sdtw::BuildBand, fail on a cascade counter, the like-for-like
whole-file skips, and the per-entry skips that must not hide failures
already found.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.environ.get(
    "SDTW_REPO_ROOT",
    os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
GATE = os.path.join(REPO_ROOT, "scripts", "perf_gate.py")

BASELINE = {
    "schema": "sdtw-bench-retrieval-v4",
    "scale": {"series": 40, "queries": 8, "length": 48, "threads": 2,
              "k": 5, "smoke": True},
    "kernel": {"band_half_width": 16, "variant": "avx2",
               "cpu_features": "avx2",
               "banded_cells_per_second_abs": 5.0e8,
               "banded_cells_per_second_squared": 4.0e8},
    "band_build": {"series": 16, "length": 256,
                   "band_build_us_per_pair": 15.0},
    "modes": {
        "sdtw": {"orders": {"lb": {"dp_evaluations": 55,
                                   "pruned_by_keogh": 133}}},
    },
}


class PerfGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="sdtw_perf_gate_")
        self.addCleanup(self.tmp.cleanup)

    def run_gate(self, baseline, current, *flags):
        paths = []
        for name, doc in (("baseline.json", baseline),
                          ("current.json", current)):
            path = os.path.join(self.tmp.name, name)
            if doc is not None:
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(doc, f)
            paths.append(path)
        return subprocess.run([sys.executable, GATE, *paths, *flags],
                              capture_output=True, text=True, check=False)

    def current(self, band_build_us=15.0):
        doc = copy.deepcopy(BASELINE)
        doc["band_build"]["band_build_us_per_pair"] = band_build_us
        return doc

    def test_identical_runs_pass(self):
        r = self.run_gate(BASELINE, self.current())
        self.assertEqual(r.returncode, 0, r.stdout)
        self.assertIn("perf gate: PASS", r.stdout)
        self.assertIn("band_build_us_per_pair: 15.00 -> 15.00", r.stdout)

    def test_band_build_within_ratio_passes(self):
        # 15 -> 17 us is a speed ratio of 0.88, above the 0.85 floor.
        r = self.run_gate(BASELINE, self.current(17.0))
        self.assertEqual(r.returncode, 0, r.stdout)

    def test_slower_band_build_fails(self):
        # 15 -> 20 us is a speed ratio of 0.75.
        r = self.run_gate(BASELINE, self.current(20.0))
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("band_build_us_per_pair regressed", r.stdout)

    def test_min_ratio_flag_applies_to_band_build(self):
        r = self.run_gate(BASELINE, self.current(20.0), "--min-ratio=0.7")
        self.assertEqual(r.returncode, 0, r.stdout)

    def test_faster_band_build_passes(self):
        r = self.run_gate(BASELINE, self.current(7.5))
        self.assertEqual(r.returncode, 0, r.stdout)

    def test_schema_change_skips(self):
        old = copy.deepcopy(BASELINE)
        old["schema"] = "sdtw-bench-retrieval-v3"
        r = self.run_gate(old, self.current(40.0))
        self.assertEqual(r.returncode, 0, r.stdout)
        self.assertIn("SKIP (schema changed", r.stdout)

    def test_missing_baseline_skips(self):
        r = self.run_gate(None, self.current())
        self.assertEqual(r.returncode, 0, r.stdout)
        self.assertIn("SKIP (no previous baseline", r.stdout)

    def test_kernel_variant_change_skips(self):
        cur = self.current(40.0)
        cur["kernel"]["variant"] = "portable"
        r = self.run_gate(BASELINE, cur)
        self.assertEqual(r.returncode, 0, r.stdout)
        self.assertIn("SKIP (kernel variant changed", r.stdout)

    def test_changed_pair_set_skips_only_that_row(self):
        cur = self.current(40.0)
        cur["band_build"]["series"] = 32
        cur["modes"]["sdtw"]["orders"]["lb"]["dp_evaluations"] = 56
        r = self.run_gate(BASELINE, cur)
        self.assertIn("band_build_us_per_pair: skipped (pair set changed)",
                      r.stdout)
        # The entry skip must not hide the counter regression.
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("dp_evaluations increased", r.stdout)

    def test_missing_band_build_block_skips_only_that_row(self):
        old = copy.deepcopy(BASELINE)
        del old["band_build"]
        r = self.run_gate(old, self.current(40.0))
        self.assertEqual(r.returncode, 0, r.stdout)
        self.assertIn("band_build_us_per_pair: skipped (missing", r.stdout)

    def test_slower_kernel_fails(self):
        cur = self.current()
        cur["kernel"]["banded_cells_per_second_abs"] = 3.0e8
        r = self.run_gate(BASELINE, cur)
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("banded_cells_per_second_abs regressed", r.stdout)


if __name__ == "__main__":
    unittest.main()
