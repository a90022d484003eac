#!/usr/bin/env python3
"""Build the training-step benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload mae_hyper_dchag_w2 --seed 7 --seconds 20 --trace 0

The Rust package in this directory is built in release mode (offline) into
$CARGO_TARGET_DIR, default `.bench_build`; its standard output is passed
through, so the last line is the JSON result. Cargo's own output goes to
standard error. The exit code is the benchmark's, or 1 if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env)
    except OSError as e:
        print(f"cannot run cargo: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
