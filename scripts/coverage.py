#!/usr/bin/env python3
"""Line coverage of a --coverage build, summed across translation units.

Usage: coverage.py BUILD_DIR DIR...

Runs gcc's own `gcov --json-format --stdout` on every .gcda file under
BUILD_DIR (nothing to install), sums each source line's execution count
over every translation unit — a header's templates are instantiated in
many of them — and prints each line under one of the DIRs (directories or
single files) that no unit executed, then the total. Build and run the
suite first: `cmake --preset coverage && cmake --build --preset coverage
-j && ctest --preset coverage`.

Exit status, after the report is printed: 0 when every line under the
DIRs ran, 1 when some line did not or no line lies under them (CI gates
on it); 2 on a usage error or when BUILD_DIR holds no .gcda file.
"""

import collections
import json
import os
import subprocess
import sys


def gcov_documents(build_dir):
    """One gcov JSON document per .gcda file under build_dir."""
    build_dir = os.path.abspath(build_dir)
    gcdas = sorted(os.path.join(root, name)
                   for root, _, names in os.walk(build_dir)
                   for name in names if name.endswith(".gcda"))
    if not gcdas:
        return []
    out = subprocess.run(["gcov", "--json-format", "--stdout", *gcdas],
                         cwd=build_dir, capture_output=True, text=True,
                         check=True).stdout
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def merge(documents, roots):
    """{source path: {line: count summed over documents}} under roots."""
    roots = [os.path.abspath(r) for r in roots]
    counts = collections.defaultdict(collections.Counter)
    for doc in documents:
        cwd = doc.get("current_working_directory", "")
        for f in doc["files"]:
            path = os.path.normpath(os.path.join(cwd, f["file"]))
            if not any(path == r or path.startswith(r + os.sep)
                       for r in roots):
                continue
            for line in f["lines"]:
                counts[path][line["line_number"]] += line["count"]
    return counts


def report(counts, out=sys.stdout):
    """Print every unexecuted line, then the total; returns (hit, total)."""
    hit = total = 0
    for path in sorted(counts):
        for number, count in sorted(counts[path].items()):
            total += 1
            if count > 0:
                hit += 1
            else:
                print(f"{path}:{number}", file=out)
    share = f" ({100.0 * hit / total:.1f} %)" if total else ""
    print(f"{hit} of {total} lines executed{share}", file=out)
    return hit, total


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    documents = gcov_documents(argv[1])
    if not documents:
        print(f"coverage.py: no .gcda file under {argv[1]}", file=sys.stderr)
        return 2
    hit, total = report(merge(documents, argv[2:]), sys.stdout)
    return 0 if total and hit == total else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
