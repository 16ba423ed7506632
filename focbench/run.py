#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 focbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark and the `foc` binary
from source with dune, runs the workload in its own process group, saves
the run (metadata + result) under .focbench/results/, and prints the
result object as the last line of standard output. Exits non-zero, without
a result line, if the build or the run fails.
"""

import argparse
import datetime
import hashlib
import json
import os
import signal
import subprocess
import sys

BUILD = "_build/default"
BENCH_EXE = BUILD + "/focbench/focbench.exe"
FOC_EXE = BUILD + "/bin/foc_cli.exe"
RUN_TIMEOUT_S = 175


def fail(msg):
    print("focbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile("dune-project"):
        fail("no dune-project here: run from the repository root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./focbench/focbench.exe", "./bin/foc_cli.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed")


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    paths = []
    for top in ["dune-project", "lib", "bin", "focbench"]:
        if os.path.isfile(top):
            paths.append(top)
        for root, _, files in os.walk(top):
            paths.extend(os.path.join(root, f) for f in files)
    for path in sorted(paths):
        h.update(path.encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return "tree:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--foc", FOC_EXE]
    # its own process group, so a timeout also reaches the foc serve child
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload %s timed out" % args.workload)
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        fail("workload %s failed (exit %d)" % (args.workload, proc.returncode))
    meta = json.loads(lines[-2])["meta"]
    result = json.loads(lines[-1])
    meta["commit"] = source_commit()

    os.makedirs(".focbench/results", exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    path = ".focbench/results/%s-seed%d-trace%d-%s.json" % (args.workload, args.seed, args.trace, stamp)
    with open(path, "w") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
