#!/usr/bin/env python3
"""kv_server's exit status on an unknown --variants name.

Usage: kv_server_usage_test.py PATH/TO/kv_server

Registered with CTest under the `tools` label when CMake finds Python 3 and
builds the server. An unknown name is a usage error: exit status 2 and the
name resolver's message on stderr, before any service starts — not an
uncaught exception (SIGABRT, status 134).
"""

import subprocess
import sys
import unittest

KV_SERVER = None


def run(*args):
    return subprocess.run([KV_SERVER, *args, "--duration-ms=10"],
                          capture_output=True, text=True, timeout=60)


class UnknownVariant(unittest.TestCase):
    def test_unknown_name_is_a_usage_error(self):
        r = run("--variants=foo")
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("unknown STM variant 'foo'", r.stderr)

    def test_checked_before_any_service_starts(self):
        r = run("--variants=zl,foo")
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("unknown STM variant 'foo'", r.stderr)
        self.assertEqual(r.stdout, "")

    def test_unknown_flag_keeps_its_status(self):
        r = run("--no-such-flag")
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("unknown argument", r.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        sys.exit(2)
    KV_SERVER = sys.argv.pop(1)
    unittest.main()
