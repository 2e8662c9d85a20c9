#!/usr/bin/env python3
"""Build and run the PreciseTracer benchmark from the root of a checkout.

    python3 perfbench/run.py --workload offline-logs --seed 1 --seconds 10 --trace 0

Builds the perfbench Go module (which compiles the repository's packages
from source) into .bench_build/, keeping every Go cache and setting file
inside that directory, then runs it with the given arguments. The last
line of standard output is the run's JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
