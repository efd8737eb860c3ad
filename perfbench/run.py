#!/usr/bin/env python3
"""Runs one workload of the repo benchmark.

    python3 perfbench/run.py --workload fig11 --seed 1 --seconds 35 --trace 0

Run from the repository root. The first call builds the simulator
library and the perfbench binary from source with CMake into
$CARGO_TARGET_DIR/perfbench (default: .bench_build/perfbench); later
calls only bring that build up to date. The binary's report goes to
stdout and its last line is the run's JSON result. Result records and
span files are written under <build dir>/results. See README.md.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, stdout, env):
    """Runs cmd in its own process group; kills the whole group (make
    and compiler children included) if it outlives timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build_dir():
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not root.is_absolute():
        root = REPO / root
    return root / "perfbench"


def build(out, env):
    """Configures and builds the binary (both quick when up to date);
    build logs go to stderr so that stdout stays the report."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(out), "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        rc, _ = run_group(cmd, BUILD_TIMEOUT_S, sys.stderr, env)
        if rc != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="fig11, bfs-hyb-huge or mix2 (see README.md)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", help="override the workload's scale "
                    "(tiny/small/...; the self-test uses tiny)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not (REPO / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no simulator sources at %s" % (REPO / "src"),
              file=sys.stderr)
        return 2
    out = build_dir()
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        if not build(out, env):
            print("perfbench: build failed", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1

    cmd = [str(out / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--out-dir", str(out / "results")]
    if args.scale:
        cmd += ["--scale", args.scale]
    try:
        rc, report = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE, env)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(report.decode())
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
