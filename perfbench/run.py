#!/usr/bin/env python3
"""Builds and runs the mmdb end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload embedded-helmet --seed 1 \
        --seconds 25 --trace 0

`--workload all` runs the three workloads in turn.

The first run configures and builds perfbench/ (the mmdb library from
src/ plus the benchmark program) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that variable is set; later runs rebuild
only what changed. Build output goes to stderr. The program's standard
output is passed through: its last line is the JSON result.
"""

import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("embedded-helmet", "served-sharded", "disk-flag")
# A run measures for --seconds plus set-up and checks; stop it if it hangs.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="'all' runs the three workloads in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: mmdb sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    build = ["cmake", "--build", build_dir, "-j", "4"]
    os.makedirs(build_root, exist_ok=True)
    # One build at a time when runs start together in one checkout.
    with open(os.path.join(build_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in (configure, build):
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                print("perfbench: build failed: " + " ".join(step),
                      file=sys.stderr)
                return 2

    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        command = [os.path.join(build_dir, "mmdb_perfbench"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out-dir", os.path.join(build_root, "perfbench-out")]
        print("workload " + workload, flush=True)
        try:
            status = status or subprocess.run(
                command, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print("perfbench: %s exceeded %d s" % (workload, RUN_TIMEOUT_S),
                  file=sys.stderr)
            status = 3
    return status


if __name__ == "__main__":
    sys.exit(main())
