#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload search|check|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/perfbench.exe from
source with dune (a no-op once built), runs it, and relays its output:
human-readable metric lines, then one JSON result line.  Exits non-zero
without a result when the checkout cannot be built or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 880
# Beyond --seconds: set-up repetitions, one overrunning round, the
# output checks and, in a traced run, the probes.
RUN_SLACK_S = 140


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["search", "check", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the root of a full checkout (missing %s)" % need)

    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed")

    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    timeout = a.seconds + RUN_SLACK_S
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % timeout)
    out = run.stdout.decode("utf-8", "replace")
    sys.stdout.write(out)
    try:
        result = json.loads(out.rstrip("\n").split("\n")[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        fail("no result line (exit code %d)" % run.returncode)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
