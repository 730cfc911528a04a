#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/RATIONALE.md).

    python3 perfbench/run.py --workload zipf|uniform --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form builds zstm_perfbench from source into .bench_build/ (an
incremental no-op once built), runs one workload and passes its output
through: a provenance line, then the result line. A traced run (--trace 1)
also writes its spans to .bench_build/spans/<workload>.spans.csv. The exit code is the benchmark's: 0 only
when every correctness check passed.

--selftest is the smoke mode: it runs every workload briefly in both modes,
checks that every metric BENCHMARK.json names is emitted with a finite value,
and checks that the correctness gate trips on an injected wrong answer.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "zstm_perfbench")
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = "4"


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def source_id():
    """git commit when there is one, else a hash of every source file."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def build():
    """Configures once, then builds incrementally. False on any failure."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log("the library sources (%s) are missing; nothing to build" % needed)
            return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    out = sys.stderr
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "zstm_perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=out, stderr=out).returncode == 0


def run_bench(args):
    """Runs the binary; returns (exit code, stdout text)."""
    cmd = [BINARY] + args + ["--source-id", source_id()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 3, ""
    return r.returncode, r.stdout


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, text = run_bench(["--workload", name, "--seed", "1",
                                    "--seconds", SMOKE_SECONDS, "--trace", trace])
            res = last_json(text)
            where = "%s --trace %s" % (name, trace)
            if code != 0 or res is None or res.get("correct") is not True:
                problems.append("%s: exit %d, result %s" % (where, code, res))
                continue
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or not math.isfinite(got["value"]):
                    problems.append("%s: metric %s missing or not finite" % (where, m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s: metric %s unit %s" % (where, m["name"], got["unit"]))
            extra = set(res["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("%s: metrics not in BENCHMARK.json: %s" % (where, sorted(extra)))
            log("smoke %s: %d metrics ok" % (where, len(res["metrics"])))
        code, text = run_bench(["--workload", name, "--seed", "1", "--seconds",
                                SMOKE_SECONDS, "--trace", "0", "--inject-wrong"])
        res = last_json(text)
        if code == 0 or res is None or res.get("correct") is not False or res.get("failed", 0) < 3:
            problems.append("%s: injected wrong answers did not trip the gate "
                            "(exit %d, result %s)" % (name, code, res))
        else:
            log("gate %s: tripped (%d failed)" % (name, res["failed"]))
    for p in problems:
        log("SELFTEST FAIL: " + p)
    print("selftest: %s" % ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="45")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--inject-wrong", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not build():
        log("build failed")
        return 2
    if a.selftest:
        return selftest()
    if not a.workload:
        ap.error("--workload is required")
    args = ["--workload", a.workload, "--seed", a.seed, "--seconds", a.seconds,
            "--trace", a.trace]
    if a.inject_wrong:
        args.append("--inject-wrong")
    if a.trace == "1":
        out_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(out_dir, exist_ok=True)
        args += ["--out-dir", out_dir]
    code, text = run_bench(args)
    sys.stdout.write(text)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
