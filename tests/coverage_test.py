#!/usr/bin/env python3
"""scripts/coverage.py's merge, report and exit status on synthetic gcov
JSON documents.

Usage: coverage_test.py [PATH/TO/coverage.py]

Registered with CTest under the `tools` label when CMake finds Python 3.
No compiler or gcov run is needed: the documents have gcov's JSON shape.
"""

import contextlib
import importlib.util
import io
import os
import sys
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "scripts", "coverage.py")


def load(path):
    spec = importlib.util.spec_from_file_location("coverage_script", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def document(data_file, files):
    """A gcov document: files maps a path to {line: count}."""
    return {
        "format_version": "1",
        "current_working_directory": "/proj/build",
        "data_file": data_file,
        "files": [{"file": path,
                   "lines": [{"line_number": n, "count": c,
                              "unexecuted_block": c == 0}
                             for n, c in sorted(lines.items())]}
                  for path, lines in files.items()],
    }


class CoverageMerge(unittest.TestCase):
    def setUp(self):
        # One header instantiated in two translation units: line 10 runs in
        # the first only, line 11 in neither. The second unit's own source
        # lies outside the measured root.
        self.docs = [
            document("a.gcda", {"/proj/src/h.hpp": {10: 3, 11: 0}}),
            document("b.gcda", {"/proj/src/h.hpp": {10: 0, 11: 0},
                                "../tests/b.cpp": {1: 0}}),
        ]

    def run_report(self, roots):
        out = io.StringIO()
        hit, total = SCRIPT_MODULE.report(
            SCRIPT_MODULE.merge(self.docs, roots), out)
        return hit, total, out.getvalue().splitlines()

    def test_counts_sum_across_units(self):
        hit, total, lines = self.run_report(["/proj/src"])
        self.assertEqual((hit, total), (1, 2))
        self.assertEqual(lines[:-1], ["/proj/src/h.hpp:11"])
        self.assertTrue(lines[-1].startswith("1 of 2 lines executed"))

    def test_relative_paths_resolve_against_the_unit_directory(self):
        hit, total, lines = self.run_report(["/proj/tests"])
        self.assertEqual((hit, total), (0, 1))
        self.assertEqual(lines[:-1], ["/proj/tests/b.cpp:1"])

    def test_a_root_does_not_match_a_sibling_prefix(self):
        hit, total, _ = self.run_report(["/proj/sr"])
        self.assertEqual((hit, total), (0, 0))


class CoverageExitStatus(unittest.TestCase):
    """main() exits 0 only when every measured line ran; the report is
    printed either way."""

    def run_main(self, roots):
        docs = [document("a.gcda", {"/proj/src/h.hpp": {10: 3, 11: 0},
                                    "/proj/src/c.cpp": {1: 2}})]
        saved = SCRIPT_MODULE.gcov_documents
        SCRIPT_MODULE.gcov_documents = lambda build_dir: docs
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                status = SCRIPT_MODULE.main(["coverage.py", "build", *roots])
        finally:
            SCRIPT_MODULE.gcov_documents = saved
        return status, out.getvalue().splitlines()

    def test_every_line_executed_exits_0(self):
        status, lines = self.run_main(["/proj/src/c.cpp"])
        self.assertEqual(status, 0)
        self.assertEqual(lines, ["1 of 1 lines executed (100.0 %)"])

    def test_an_unexecuted_line_exits_1_after_the_report(self):
        status, lines = self.run_main(["/proj/src"])
        self.assertEqual(status, 1)
        self.assertEqual(lines, ["/proj/src/h.hpp:11",
                                 "2 of 3 lines executed (66.7 %)"])

    def test_no_measured_line_exits_1(self):
        status, lines = self.run_main(["/proj/sr"])
        self.assertEqual(status, 1)
        self.assertEqual(lines, ["0 of 0 lines executed"])


if __name__ == "__main__":
    if len(sys.argv) > 1:
        SCRIPT = sys.argv.pop(1)
    SCRIPT_MODULE = load(SCRIPT)
    unittest.main()
