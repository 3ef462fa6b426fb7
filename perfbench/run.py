#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan-warm --seed 1 --seconds 30 --trace 0

Every file the build and the run write goes under .bench_build/ in the
checkout: the Go build cache, the binary, the peers' storage and the span
files of traced runs. The exit code is the program's, or the build's when
the build fails (as it does when the repository is not beside this
directory).
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOFLAGS="",
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    run = subprocess.run([binary, *sys.argv[1:]], cwd=root, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
