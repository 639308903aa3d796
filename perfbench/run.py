#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <pf-compacting|fleet-mixed|search-first-fit> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is built in release mode into $CARGO_TARGET_DIR (default
.bench_build in the working directory). Build output goes to stderr; the
benchmark's result is the last line of stdout. The exit code is the
benchmark's, or cargo's if the build fails.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(here, "Cargo.toml"),
            "--bin", "perfbench",
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
