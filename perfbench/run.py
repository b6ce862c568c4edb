#!/usr/bin/env python3
"""Builds `sraa` and the benchmark from source, then runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload <batch-allpairs|daemon-read|daemon-edit> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test --seconds 2

Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. Builds land in $CARGO_TARGET_DIR
(default `.bench_build`); sockets, store directories and span files in
`.bench_work`.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The lattice backend's arc/dense crossover, pinned to this host's idle
# calibration so no per-process timing probe can flip the backend under
# load.
DENSE_MIN = "64"


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("error: no Cargo.toml at the repository root; nothing to build", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["SRAA_DENSE_MIN"] = DENSE_MIN
    target = env["CARGO_TARGET_DIR"]
    builds = [
        ["--manifest-path", "Cargo.toml", "--bin", "sraa"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "sraa-perfbench"),
        "--sraa", os.path.join(release, "sraa"),
        "--work", ".bench_work",
    ]
    return subprocess.run(bench + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
