#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a pos checkout.

    python3 perfbench/run.py --workload appendix --seed 1 --seconds 20 --trace 0

The Go program is built from source inside the checkout: the binary, the
Go build cache and every temporary file live under the build directory
($CARGO_TARGET_DIR, default .bench_build), so nothing outside the checkout
is read or written besides the Go toolchain itself. Arguments are passed
through to the benchmark; its last line of output is the result JSON.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: %s holds no go.mod; run from a pos checkout\n" % ROOT)
        return 2
    build = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    work = os.path.join(build, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    for d in (work, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(work, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    sys.stdout.flush()
    return subprocess.run([binary, "--work", work] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
