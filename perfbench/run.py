#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim-ships --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare base.txt,new.txt
    python3 perfbench/run.py --reference

Every build and cache file goes under .bench_build/ in the repository root
(or $CARGO_TARGET_DIR when it is set), so a run writes nothing outside the
checkout. The binary's output and exit code are passed through unchanged;
a failed build exits 2 without printing a result line.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
    })
    for key in ("GOCACHE", "GOPATH", "GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if built.returncode != 0:
        sys.stderr.write(built.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return 2
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
