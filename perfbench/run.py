#!/usr/bin/env python3
"""Build and run the HOMP host-cost benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `homp-perfbench` package in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), then runs
it with the same arguments. In a traced run the span file goes to
`<target dir>/perfbench/spans-<workload>-<seed>.csv`. The last line of
standard output is the benchmark's JSON result. Exits non-zero, without
a result, if the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def arg(argv, flag):
    """Value following `flag` in `argv`, or None."""
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def main(argv):
    here = Path(__file__).resolve().parent
    root = here.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(here / "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [str(target / "release" / "homp-perfbench"), *argv]
    if arg(argv, "--trace") == "1":
        name = f"spans-{arg(argv, '--workload')}-{arg(argv, '--seed')}.csv"
        cmd += ["--spans", str(target / "perfbench" / name)]
    run = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
