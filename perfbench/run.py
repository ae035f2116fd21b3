#!/usr/bin/env python3
"""Build and run the openwf benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload plan-deep --seed 1 --seconds 20 --trace 0

The Go program under perfbench/ is built against the repository's own
source (perfbench/go.mod replaces the openwf module with the parent
directory). Every build artefact, the Go build cache and the span files
of traced runs stay under .bench_build/ at the repository root. The last
line of standard output is the JSON result; build output goes to stderr.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
    )
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    env = go_env()
    build = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
