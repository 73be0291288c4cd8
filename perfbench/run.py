#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload solve-2d --seed 1 --seconds 15 --trace 0

Builds the benchmark (perfbench/mgbench.exe, with the library it links)
from source with dune into .bench_build/, runs the self-test of the
benchmark's own arithmetic, then pins itself to one vCPU and runs
mgbench.exe with the given arguments.  The build and self-test output go to stderr, so the last
line of stdout is mgbench's JSON result.  Exits with mgbench's exit
code, or 2 when the tree cannot be built.

`--workload all` runs every workload, each in its own process, and
ends with one summary row per workload; the exit code is the worst.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGETS = ["./perfbench/mgbench.exe", "./perfbench/selftest.exe"]
WORKLOADS = ["solve-2d", "solve-3d-durable", "serve-small"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the repository root (no dune-project and lib/ here)")
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune not found on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet"] + TARGETS,
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        return fail("build failed")
    exe = os.path.join(BUILD_DIR, "default", "perfbench")
    selftest = subprocess.run([os.path.join(exe, "selftest.exe")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        return fail("self-test of the benchmark arithmetic failed")
    mgbench = os.path.join(exe, "mgbench.exe")
    # One vCPU for the whole run, inherited by every process it starts:
    # mgbench divides each operation's time by that of a reference loop
    # timed beside it, which only tracks the host's speed on the same
    # vCPU (see "Host speed" in mgbench.ml).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if "all" not in argv:
        sys.stdout.flush()
        return subprocess.run([mgbench] + argv).returncode
    return run_all(mgbench, argv)


def run_all(mgbench, argv):
    """--workload all: every workload in its own process, in turn, then
    one summary row per workload."""
    i = argv.index("all")
    rows, worst = [], 0
    for name in WORKLOADS:
        out = subprocess.run([mgbench] + argv[:i] + [name] + argv[i + 1:],
                             stdout=subprocess.PIPE, text=True)
        sys.stdout.write(out.stdout)
        worst = max(worst, out.returncode)
        try:
            rows.append((name, json.loads(out.stdout.strip().splitlines()[-1])))
        except (IndexError, ValueError):
            rows.append((name, None))
            worst = max(worst, 1)
    print("\nworkload            correct  attempted  failed  metrics")
    for name, res in rows:
        if res is None:
            print("%-19s no result" % name)
            continue
        metrics = "  ".join("%s=%.6g %s" % (k, v["value"], v["unit"])
                            for k, v in res["metrics"].items())
        print("%-19s %-8s %9d %7d  %s" % (name, res["correct"], res["attempted"],
                                          res["failed"], metrics))
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
