#!/usr/bin/env python3
"""Asserts that sweep documents are equivalent modulo provenance.

Usage: ci/check_sweep_equiv.py REFERENCE.json OTHER.json [OTHER2.json ...]

The sweep runner's contract is that worker threads and cache-resumed
reruns never change simulated results: a sweep request run by
bauvm_submit on N threads, or rerun with --resume=DIR, must match the
1-thread run cell for cell.

Only execution provenance is allowed to differ — wall-clock timings,
parallelism, and cache attribution.  Everything else, including
every simulated counter, seed, digest, and the cell order, must be
identical.  Exits 1 with a field-level diff on the first mismatch:
this is a correctness gate.

bauvm.sweep/1.3 multi-tenant cells carry a per-tenant result array
(result.tenants); every field in it is deterministic, so the generic
diff covers it with no special casing.  As a structural sanity check
we additionally require tenant ids to be 0..n-1 in order — a
mis-merged result that reordered or dropped a tenant would corrupt
that before it corrupted any counter.
"""

import json
import sys

# Fields that legitimately differ between executions of the same cell:
# timings, parallelism, and cache attribution. A unit test pins this
# set to kProvenanceKeys in src/runner/sweep_result.h.
PROVENANCE = {
    "wall_s",
    "host_wall_s",
    "events_per_sec",
    "elapsed_s",
    "jobs",
    "cached",
}


def strip(node):
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items()
                if k not in PROVENANCE}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


def diff(ref, other, path=""):
    """Yields human-readable paths where the two documents differ."""
    if type(ref) is not type(other):
        yield f"{path or '/'}: type {type(ref).__name__} vs " \
              f"{type(other).__name__}"
        return
    if isinstance(ref, dict):
        for key in sorted(set(ref) | set(other)):
            sub = f"{path}.{key}" if path else key
            if key not in ref:
                yield f"{sub}: only in candidate"
            elif key not in other:
                yield f"{sub}: only in reference"
            else:
                yield from diff(ref[key], other[key], sub)
    elif isinstance(ref, list):
        if len(ref) != len(other):
            yield f"{path}: length {len(ref)} vs {len(other)}"
            return
        for i, (a, b) in enumerate(zip(ref, other)):
            yield from diff(a, b, f"{path}[{i}]")
    elif ref != other:
        yield f"{path}: {ref!r} vs {other!r}"


def check_tenant_ids(doc, path):
    """Yields complaints for tenant arrays whose ids aren't 0..n-1."""
    for i, cell in enumerate(doc.get("cells", [])):
        tenants = (cell.get("result") or {}).get("tenants")
        if tenants is None:
            continue
        ids = [t.get("id") for t in tenants]
        if ids != list(range(len(ids))):
            yield (f"{path}: cells[{i}].result.tenants ids {ids} "
                   f"are not 0..{len(ids) - 1} in order")


def main():
    if len(sys.argv) < 3:
        print(__doc__.strip().splitlines()[2])
        return 2
    ref_path = sys.argv[1]
    with open(ref_path) as f:
        ref = strip(json.load(f))
    if not str(ref.get("schema", "")).startswith("bauvm.sweep/1"):
        print(f"check_sweep_equiv: {ref_path} is not a bauvm.sweep/1 "
              "document")
        return 1
    bad_ids = list(check_tenant_ids(ref, ref_path))
    if bad_ids:
        for m in bad_ids:
            print(f"check_sweep_equiv: {m}")
        return 1

    failed = 0
    for path in sys.argv[2:]:
        with open(path) as f:
            cand = strip(json.load(f))
        mismatches = list(check_tenant_ids(cand, path))
        mismatches += list(diff(ref, cand))
        if mismatches:
            failed += 1
            print(f"check_sweep_equiv: {path} differs from {ref_path} "
                  f"beyond provenance ({len(mismatches)} field(s)):")
            for m in mismatches[:20]:
                print(f"  {m}")
            if len(mismatches) > 20:
                print(f"  ... {len(mismatches) - 20} more")
        else:
            cells = len(cand.get("cells", []))
            print(f"check_sweep_equiv: {path} == {ref_path} "
                  f"({cells} cells, provenance stripped)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
