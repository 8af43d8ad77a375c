#!/usr/bin/env python3
"""Build and run the end-to-end MRCP-RM benchmark.

    python3 perfbench/run.py --workload fb-stream --seed 1 --seconds 20 --trace 0

Builds perfbench/e2e.exe with dune from the source checkout this file sits
in, then runs it with the same arguments.  Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
Exits nonzero, without a result, when the checkout holds no sources, when
the build fails, or when a correctness check fails.  See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        sys.stderr.write(
            "perfbench: %s holds no mrcp-rm sources (dune-project, lib/)\n" % ROOT
        )
        return 2
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("perfbench: dune is not on PATH\n")
        return 2
    # the shared dune cache lives outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/e2e.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "e2e.exe")
    run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT)
    return 0 if run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
