#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The arguments are handed to the binary unchanged (see perfbench/main.ml).
Build output goes to stderr, so the last stdout line is the binary's JSON
result. Exits non-zero when the sources do not build.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.exit("perfbench: no dune-project here; run from the repository root")
    # Dune's shared cache lives outside the checkout; keep every write inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
