#!/usr/bin/env python3
"""Exit codes of scripts/bench_compare.py on small BENCH_*.json fixtures.

Usage: bench_compare_test.py [PATH/TO/bench_compare.py]

Registered with CTest under the `tools` label when CMake finds Python 3.
Each case writes its fixtures to a fresh temporary directory.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "scripts", "bench_compare.py")

VARIANTS = ["lsa", "lsa-nors", "cs-vc", "cs-r", "sstm", "zl", "tl2"]


def doc(rows):
    return {"bench": "fig6", "host": {"cpus": 1}, "rows": rows}


def bank_rows(variants=VARIANTS, threads=(1, 2)):
    return [{"system": v, "threads": t, "transfer_per_s": 1000.0 * t}
            for v in variants for t in threads]


class BenchCompareExitCodes(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, content):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write(content if isinstance(content, str) else json.dumps(content))
        return path

    def compare(self, baseline, current):
        base = self.write("base.json", baseline)
        cur = self.write("cur.json", current)
        return subprocess.run([sys.executable, SCRIPT, base, cur],
                              capture_output=True, text=True).returncode

    def test_identical_files(self):
        self.assertEqual(self.compare(doc(bank_rows()), doc(bank_rows())), 0)

    def test_one_row_dropped(self):
        self.assertEqual(
            self.compare(doc(bank_rows()), doc(bank_rows()[1:])), 1)

    def test_one_variant_dropped(self):
        without_tl2 = [v for v in VARIANTS if v != "tl2"]
        self.assertEqual(
            self.compare(doc(bank_rows()), doc(bank_rows(without_tl2))), 1)

    def test_baseline_field_dropped(self):
        with_aborts = [dict(r, aborts=3) for r in bank_rows()]
        self.assertEqual(self.compare(doc(with_aborts), doc(bank_rows())), 1)

    def test_field_only_in_current_run(self):
        with_aborts = [dict(r, aborts=3) for r in bank_rows()]
        self.assertEqual(self.compare(doc(bank_rows()), doc(with_aborts)), 0)

    def test_no_row_in_common(self):
        self.assertEqual(
            self.compare(doc(bank_rows(threads=(1,))),
                         doc(bank_rows(threads=(4,)))), 2)

    def test_unreadable_file(self):
        self.assertEqual(self.compare(doc(bank_rows()), "{not json"), 2)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        SCRIPT = sys.argv.pop(1)
    unittest.main()
