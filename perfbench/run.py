#!/usr/bin/env python3
"""Build the benchmark driver and run one workload, or the self-test.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (the driver plus the library sources in src/) into
.bench_build/ at the repository root, then runs the driver there.  The
driver's last stdout line is the run's JSON result; this script checks
that it names exactly the metrics BENCHMARK.json lists for the mode,
with their units, before passing it on.  See perfbench/NOTES.md.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "bear_perfbench")
# Relative to ROOT: a Unix socket path must stay under 108 bytes.
WORK = os.path.join(".bench_build", "work")
DRIVER_TIMEOUT_S = 170

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build; all output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_driver(args, extra=(), stderr=None):
    """Run the driver; return (exit code, stdout lines)."""
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK, *extra]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=stderr, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    return done.returncode, done.stdout.splitlines()


def result_problems(spec, trace, line):
    """What is wrong with a driver result line (empty when nothing)."""
    try:
        result = json.loads(line)
    except (ValueError, TypeError):
        return ["last line is not JSON: %r" % line]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = expected_metrics(spec, trace)
    got = result["metrics"]
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append("metric %s missing" % name)
        elif name not in want:
            problems.append("metric %s not in BENCHMARK.json" % name)
        elif got[name].get("unit") != want[name]:
            problems.append("metric %s has unit %r, want %r"
                            % (name, got[name].get("unit"), want[name]))
        elif not isinstance(got[name].get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    return problems


def spec_problems(spec):
    """Check BENCHMARK.json against the benchmark file contract."""
    problems = []
    keys = ["command", "end_to_end", "paths", "per_layer", "run_seconds",
            "workloads"]
    if sorted(spec) != keys:
        return ["BENCHMARK.json keys %s, want %s" % (sorted(spec), keys)]
    names = set()

    def name_ok(name, where):
        if not NAME.match(name) or name in names:
            problems.append("%s: bad or repeated name %r" % (where, name))
        names.add(name)

    for w in spec["workloads"]:
        name_ok(w["name"], "workload")
        if sorted(w) != ["name", "why"] or len(w["why"]) > 200 \
                or "\n" in w["why"]:
            problems.append("workload %s: want name and a one-line why "
                            "of <= 200 characters" % w["name"])
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("want 2..8 workloads")
    for m in spec["end_to_end"]:
        name_ok(m["name"], "end_to_end")
        if sorted(m) != ["better", "bound", "name", "unit"] \
                or not 0 < m["bound"] <= 0.25:
            problems.append("end_to_end %s: keys or bound" % m["name"])
    for m in spec["per_layer"]:
        name_ok(m["name"], "per_layer")
        if sorted(m) != ["better", "name", "unit"]:
            problems.append("per_layer %s: keys" % m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower",
                                                           "higher"):
            problems.append("%s: unit or direction" % m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" \
            or setup[0]["better"] != "lower" \
            or setup[0]["bound"] < max(m["bound"]
                                       for m in spec["end_to_end"]):
        problems.append("setup_s must be in s, lower, with the largest "
                        "bound")
    if not 1 <= spec["run_seconds"] <= 60:
        problems.append("run_seconds must be 1..60")
    return problems


def selftest(spec):
    """Every workload at tiny budgets, in both modes; then again with
    the first report of each check corrupted, which must fail one
    operation per corrupted report."""
    problems = spec_problems(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=1,
                                      trace=trace)
            code, lines = run_driver(args, ["--tiny"])
            where = "%s --trace %d" % (workload, trace)
            if code or not lines:
                problems.append("%s: exit %d" % (where, code))
                continue
            found = result_problems(spec, trace, lines[-1])
            problems += [where + ": " + p for p in found]
            if not found and not json.loads(lines[-1])["correct"]:
                problems.append(where + ": a clean run is not correct")
            # Its FAIL lines are the expected outcome; keep them quiet.
            code, lines = run_driver(args, ["--tiny", "--corrupt"],
                                     stderr=subprocess.DEVNULL)
            damaged = sum(line.startswith("corrupted:") for line in lines)
            result = json.loads(lines[-1]) if not code and lines else {}
            if not damaged or result.get("correct", True) \
                    or result.get("failed", 0) < damaged:
                problems.append("%s: %d corrupted report(s), %s failed "
                                "operation(s)"
                                % (where, damaged, result.get("failed")))
    for p in problems:
        print("selftest: FAILED: " + p, file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    build()
    if args.selftest:
        return selftest(spec)
    if not args.workload:
        parser.error("--workload is required")

    code, lines = run_driver(args)
    if code:
        fail("driver exited %d" % code)
    if not lines:
        fail("driver printed nothing")
    problems = result_problems(spec, args.trace, lines[-1])
    if problems:
        fail("; ".join(problems))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
