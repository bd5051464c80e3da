#!/usr/bin/env python3
"""Build the benchmark and the `gcube` CLI from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload steady-ffgcr --seed 1 --seconds 20 --trace 0

Build output goes to standard error; standard output is the benchmark's
own, ending in one JSON result line. Artifacts land in `$CARGO_TARGET_DIR`
(default `.bench_build` at the repository root).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path"]
    builds = [
        cargo + [os.path.join(HERE, "Cargo.toml")],
        cargo + [os.path.join(ROOT, "Cargo.toml"), "-p", "gcube-cli", "--bin", "gcube"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    bench = os.path.join(target, "release", "perfbench")
    gcube = os.path.join(target, "release", "gcube")
    return subprocess.run([bench, *sys.argv[1:], "--gcube", gcube], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
