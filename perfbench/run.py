#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trickle --seed 1 --seconds 30 --trace 0

The first run configures and builds the midas library and the perfbench
binary from source into ``$CARGO_TARGET_DIR/perfbench`` (default
``.bench_build/perfbench``); later runs reuse that build. Build output goes to
stderr, so the binary's result JSON stays the last line of stdout. The exit
code is the binary's: 0 when every output check passed, 1 when one failed,
2 on bad usage or a checkout without the library sources, 3 on a timeout.
"""

import argparse
import fcntl
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail(3, "build timed out: " + " ".join(step))
            if done.returncode != 0:
                fail(2, "build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["trickle", "drift", "served"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail(2, "run from the root of a checkout: src/CMakeLists.txt not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    build(build_dir)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(target, "perfbench-run")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(3, f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout.decode("utf-8", "replace"))
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
