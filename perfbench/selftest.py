#!/usr/bin/env python3
"""Self-test of the repo benchmark at tiny scale.

    python3 perfbench/selftest.py

Run from the repository root (it builds the benchmark first, like run.py).
For every workload in BENCHMARK.json it runs one untraced and one
traced run at --scale tiny and checks that:
  - the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct and with no failure;
  - the metrics are exactly the end-to-end (untraced) or per-layer
    (traced) metrics of BENCHMARK.json, each a finite number with the
    unit BENCHMARK.json gives, and each printed in the report by name
    with that unit;
  - the traced run's top-level spans cover >= 95% of every cell;
  - a second untraced run in a fresh process yields the same simulated
    fingerprint for every cell.
Exits non-zero on the first failed check.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SECONDS = "1"


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", SECONDS, "--trace", str(trace),
           "--scale", "tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        fail("%s exited %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def record(workload, trace):
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not root.is_absolute():
        root = REPO / root
    path = root / "perfbench" / "results" / (
        "%s-seed3-trace%d.json" % (workload, trace))
    with open(path) as f:
        return json.load(f)


def check_result(workload, trace, report, result, expected):
    where = "%s trace=%d" % (workload, trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s: correct=%s failed=%s\n%s" % (
            where, result["correct"], result["failed"], "\n".join(report)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted=%r" % (where, result["attempted"]))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail("%s: metrics %s, expected %s" % (
            where, sorted(metrics), sorted(expected)))
    for name, unit in expected.items():
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            fail("%s: %s is %r, expected unit %s" % (where, name, m, unit))
        if not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            fail("%s: %s value %r" % (where, name, m["value"]))
        if not any(line.split()[:1] == [name] and unit in line.split()
                   for line in report):
            fail("%s: report does not print %s with unit %s" % (
                where, name, unit))
    if not any(line.split()[:1] == ["failed_frac"] for line in report):
        fail("%s: report does not print failed_frac" % where)


def main():
    with open(REPO / "BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        report, result = run(w, 0)
        check_result(w, 0, report, result, e2e)
        first = record(w, 0)["cells"]

        report, result = run(w, 1)
        check_result(w, 1, report, result, layers)
        coverage = result["metrics"]["trace.min_coverage"]["value"]
        if coverage < 0.95:
            fail("%s: top-level spans cover only %.3f of a cell"
                 % (w, coverage))

        run(w, 0)
        if record(w, 0)["cells"] != first:
            fail("%s: cell fingerprints differ between two processes" % w)
        print("selftest: %s ok (%d cells, coverage %.3f, "
              "trace overhead %+.3f)" % (
                  w, len(first), coverage,
                  result["metrics"]["trace.overhead_frac"]["value"]))
    print("selftest: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
