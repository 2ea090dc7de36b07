#!/usr/bin/env python3
"""Build the Splice benchmark from source and run one workload.

    python3 perfbench/run.py --workload fig92|fuzz|serve --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. It builds the benchmark program and the
`splice` CLI (which the serve workload spawns) with dune, then runs the
program, whose last line of standard output is the JSON result. Build output
goes to standard error. Exits non-zero, printing no result, when the
checkout does not hold the Splice sources.
"""

import os
import shutil
import signal
import subprocess
import sys

PROGRAM = os.path.join("_build", "default", "perfbench", "main.exe")
SPLICE = os.path.join("_build", "default", "bin", "splice_cli.exe")
RUN_TIMEOUT_S = 170


def find_dune():
    dune = shutil.which("dune")
    if dune is None and os.environ.get("OPAM_SWITCH_PREFIX"):
        candidate = os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune")
        if os.access(candidate, os.X_OK):
            dune = candidate
    return dune


def main():
    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin")):
        sys.stderr.write(
            "perfbench: no Splice sources here (dune-project, lib/ and bin/ "
            "must be in the current directory)\n")
        return 2
    dune = find_dune()
    if dune is None:
        sys.stderr.write("perfbench: dune not found on PATH\n")
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/main.exe", "./bin/splice_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    # own session, so a timeout also takes down any server the program spawned
    proc = subprocess.Popen(
        [PROGRAM] + sys.argv[1:] + ["--splice", SPLICE], start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: timed out after %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
