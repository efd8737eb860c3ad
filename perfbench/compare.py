#!/usr/bin/env python3
"""Compares benchmark result records of two builds.

    python3 perfbench/compare.py --base A1.json [A2.json ...] \\
                                 --new  B1.json [B2.json ...]

Each file is a record the perfbench binary writes under
<build dir>/results/<workload>-seed<N>-trace<T>.json. All records must
be of one workload and one trace mode. Per metric the script prints the
median of each side and the change; for end-to-end metrics it also
flags a change worse than the bound in BENCHMARK.json.

Host seconds only compare on one host and build setup: when any context
field other than git_rev differs between records, the script prints the
differing fields instead of any change and exits with status 3. It also
reports cells whose simulated fingerprint differs between the sides: a
host-only change must leave every one of them identical.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load(paths):
    records = []
    for p in paths:
        with open(p) as f:
            records.append(json.load(f))
    return records


def bounds():
    try:
        with open(REPO / "BENCHMARK.json") as f:
            bench = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m for m in bench.get("end_to_end", [])}


def context_diff(records):
    """Context fields (git_rev aside) that are not equal everywhere."""
    keys = sorted({k for r in records for k in r["context"]})
    diff = {}
    for k in keys:
        if k == "git_rev":
            continue
        values = {r["context"].get(k) for r in records}
        if len(values) > 1:
            diff[k] = sorted(str(v) for v in values)
    for k in ("workload", "trace", "seconds"):
        values = {r[k] for r in records}
        if len(values) > 1:
            diff[k] = sorted(str(v) for v in values)
    return diff


def fingerprints(records):
    """cell -> set of fingerprints seen across records."""
    seen = {}
    for r in records:
        for c in r["cells"]:
            seen.setdefault(c["cell"], set()).add(c["fingerprint_fnv"])
    return seen


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base, new = load(args.base), load(args.new)

    diff = context_diff(base + new)
    if diff:
        print("contexts differ; no change is reported:")
        for k, values in diff.items():
            print("  %-14s %s" % (k, " | ".join(values)))
        return 3

    e2e = bounds()
    print("%-26s %16s %16s %9s" % ("metric", "base", "new", "change"))
    worse = []
    for name, m in base[0]["metrics"].items():
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        if not all(name in r["metrics"] for r in new):
            print("%-26s %16.6g %16s" % (name, b, "missing"))
            continue
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        change = (n - b) / b if b else float("nan")
        flag = ""
        spec = e2e.get(name)
        if spec:
            loss = change if spec["better"] == "lower" else -change
            if loss > spec["bound"]:
                flag = "  worse than bound %.2f" % spec["bound"]
                worse.append(name)
        print("%-26s %16.6g %16.6g %+8.2f%% %s%s" % (
            name, b, n, 100 * change, m["unit"], flag))

    base_fp, new_fp = fingerprints(base), fingerprints(new)
    changed = sorted(c for c in base_fp
                     if c in new_fp and base_fp[c] != new_fp[c])
    if changed:
        print("simulated fingerprint differs on %d cell(s): %s"
              % (len(changed), ", ".join(changed[:10])))
    else:
        print("simulated fingerprints identical on %d cell(s)"
              % len(base_fp))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
