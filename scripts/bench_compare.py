#!/usr/bin/env python3
"""Diff two BENCH_<name>.json files (bench/bench_json.hpp format).

Usage: bench_compare.py BASELINE.json CURRENT.json

Rows are matched by their identity fields (every string field plus small
integer knobs like `threads` / `r` / `versions_kept` / `accounts`); numeric
fields are printed side by side with a percentage delta. Perf deltas are
informational (CI runs the compare non-gating; shared runners are noisy).

Exit status: 0 when every baseline row has a match carrying every numeric
baseline field; 1 when a baseline row, or a numeric field of a matched
baseline row, is missing from the current run, so a harness that stops
emitting a row or a column does not pass silently (fields only the current
run has are informational); 2 on unreadable input or when no row matches.
"""

import json
import sys

# String fields (e.g. `system`, `transport`) are identity
# automatically; these small integer knobs join them.
ID_INT_FIELDS = {"threads", "r", "versions_kept", "rate", "io_threads",
                 "conns", "accounts", "entries"}


def row_key(row):
    key = []
    for k, v in row.items():
        if isinstance(v, str) or k in ID_INT_FIELDS:
            key.append((k, v))
    return tuple(key)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for row in doc.get("rows", []):
        rows[row_key(row)] = row
    return doc, rows


def fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        base_doc, base_rows = load(sys.argv[1])
        cur_doc, cur_rows = load(sys.argv[2])
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    name = cur_doc.get("bench", "?")
    base_host = base_doc.get("host", {})
    cur_host = cur_doc.get("host", {})
    print(f"bench_compare: {name}  ({sys.argv[1]} -> {sys.argv[2]})")
    if base_host != cur_host:
        print(f"  note: hosts differ: {base_host} vs {cur_host}")

    matched = 0
    missing = 0
    missing_fields = 0
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        label = " ".join(f"{k}={v}" for k, v in key) or "(row)"
        if cur is None:
            print(f"  {label}: missing from current run")
            missing += 1
            continue
        matched += 1
        deltas = []
        for field, bv in base.items():
            if (field, bv) in key or not isinstance(bv, (int, float)):
                continue
            cv = cur.get(field)
            if not isinstance(cv, (int, float)):
                deltas.append(f"{field}: missing from current run")
                missing_fields += 1
                continue
            if bv:
                pct = 100.0 * (cv - bv) / bv
                deltas.append(f"{field} {fmt(bv)} -> {fmt(cv)} ({pct:+.1f}%)")
            elif cv != bv:
                deltas.append(f"{field} {fmt(bv)} -> {fmt(cv)}")
        print(f"  {label}:")
        for d in deltas:
            print(f"    {d}")
    for key in cur_rows:
        if key not in base_rows:
            label = " ".join(f"{k}={v}" for k, v in key)
            print(f"  {label}: new row (not in baseline)")

    if matched == 0:
        print("bench_compare: no rows matched between the two files",
              file=sys.stderr)
        return 2
    if missing:
        print(f"bench_compare: {missing} baseline row(s) missing from the "
              "current run", file=sys.stderr)
    if missing_fields:
        print(f"bench_compare: {missing_fields} baseline field(s) missing "
              "from the current run", file=sys.stderr)
    return 1 if missing or missing_fields else 0


if __name__ == "__main__":
    sys.exit(main())
