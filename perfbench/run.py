#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ring-uds-1024 --seed 1 --seconds 10 --trace 0

The metric names and units come from BENCHMARK.json at the checkout root.
The last line of standard output is the run's JSON result. Everything the
run writes stays inside the checkout: the build in _build/, spans and
dune's state under .perfbench_run/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUNS = os.path.join(ROOT, ".perfbench_run")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def revision():
    """`git describe` where there is a repository, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "describe", "--always", "--dirty"],
                capture_output=True, text=True, timeout=30)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: not a checkout of the repository" % ROOT)
    # Keep dune's cache and state inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(RUNS, "cache"))
    try:
        out = subprocess.run(
            ["dune", "build", "--root", ROOT, "--profile", "release", "-j", "2",
             "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not finish: %s" % e)
    if out.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)

    build()
    spec = lambda key: ",".join("%s:%s" % (m["name"], m["unit"]) for m in bench[key])
    run_dir = os.path.join(RUNS, "%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--end-to-end", spec("end_to_end"), "--per-layer", spec("per_layer"),
           "--rev", revision(), "--nproc", str(len(os.sched_getaffinity(0)))]
    sys.stdout.flush()
    started = time.time()
    try:
        code = subprocess.run(cmd, cwd=run_dir, env=dict(os.environ, TMPDIR=run_dir),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    spans = os.path.join(run_dir, "spans.tsv")
    if os.path.isfile(spans):
        os.replace(spans, os.path.join(RUNS, "spans-%s-seed%d.tsv" % (
            args.workload, args.seed)))
    shutil.rmtree(run_dir, ignore_errors=True)
    if code != 0:
        fail("driver exited with code %d after %.1f s" % (code, time.time() - started))


if __name__ == "__main__":
    main()
