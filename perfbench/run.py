#!/usr/bin/env python3
"""Build and run MicroNN's repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Go program in this directory (its own module, which
builds the micronn module of the checkout from source). This script builds
it into .bench_build/ at the checkout root -- Go's build cache, temporary
files and configuration included, so nothing is written outside the
checkout -- then runs it with the given arguments and passes its output and
exit code through. The last line of standard output is the JSON result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(here)
    if not os.path.isfile(os.path.join(repo, "go.mod")) or not os.path.isfile(os.path.join(repo, "micronn.go")):
        print("perfbench: the micronn module is not at %s; run from a full checkout" % repo, file=sys.stderr)
        return 2
    build = os.path.join(repo, ".bench_build")
    env = {k: v for k, v in os.environ.items() if not k.startswith("MICRONN_TEST_")}
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "-mod=readonly",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
    })
    for d in ("gocache", "tmp", "gopath", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if built.returncode != 0:
        print("perfbench: build failed:\n" + built.stdout, file=sys.stderr)
        return 1
    args = sys.argv[1:] + [
        "--workdir", os.path.join(build, "work"),
        "--tracedir", os.path.join(build, "traces"),
    ]
    return subprocess.run([binary] + args, cwd=repo, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
