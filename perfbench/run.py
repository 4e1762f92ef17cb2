#!/usr/bin/env python3
"""Build and run the PCQE end-to-end benchmark.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The benchmark is built from source with
dune (into _build/), then run once; its standard output ends with one JSON
result line.  --workload all runs the three workloads one after another,
e.g. with --size tiny as a quick pass through every check.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "pcqe_bench.exe")
WORKLOADS = ["browse", "adhoc", "improve"]
# One run must end within 180 s; the build before the first run may take longer.
RUN_TIMEOUT_S = 175


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune is not on PATH")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    args = p.parse_args()

    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune() + ["build", "--root", ROOT, "./perfbench/pcqe_bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("run.py: build failed")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for w in workloads:
        cmd = [EXE, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        try:
            rc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            sys.exit("run.py: %s did not finish within %d s" % (w, RUN_TIMEOUT_S))
        if rc != 0:
            sys.exit(rc)


if __name__ == "__main__":
    main()
