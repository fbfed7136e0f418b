#!/usr/bin/env python3
"""Build the benchmark and the sawl-serve daemon, then run one measurement.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: bpa-lifetime, ycsb-lifetime, timed-mixed, serve-observed.
Builds land in $CARGO_TARGET_DIR (default: .bench_build at the checkout
root); the daemon's state lives under it while a run lasts. The last line
of standard output is the result, one JSON object. Every process the run
starts is stopped before this script exits.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bpa-lifetime", "ycsb-lifetime", "timed-mixed", "serve-observed"]

# Longest a measurement may take once built; the whole run must end
# within 180 seconds.
RUN_TIMEOUT_S = 165


def build(target_dir):
    """Build perfbench and the sawl-serve binary; return their paths."""
    for manifest, extra in [
        ("perfbench/Cargo.toml", []),
        ("crates/serve/Cargo.toml", ["--bin", "sawl-serve"]),
    ]:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        done = subprocess.run(cmd + extra, cwd=ROOT, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: building {manifest} failed")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "sawl-serve")


def stop_group(pgid):
    """Kill whatever is left of the run's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "crates")):
        sys.exit("run.py: the repository's crates/ directory is missing; run from a full checkout")

    target_dir = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    bench, serve = build(target_dir)

    # Relative to the checkout root when possible: the daemon's Unix
    # socket lives here, and socket paths are limited to 107 bytes.
    state_dir = os.path.join(target_dir, "perfbench-state")
    if state_dir.startswith(ROOT + os.sep):
        state_dir = os.path.relpath(state_dir, ROOT)

    cmd = [
        bench,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-bin", serve,
        "--state-dir", state_dir,
    ]
    # A process group of its own, so any daemon left behind by a crash or
    # a timeout is stopped with it.
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(child.pid)
        child.wait()
        sys.exit(f"run.py: the measurement did not finish within {RUN_TIMEOUT_S} s")
    finally:
        stop_group(child.pid)
    if child.returncode != 0:
        sys.exit(f"run.py: perfbench exited with {child.returncode}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
