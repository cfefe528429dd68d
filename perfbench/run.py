#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload warm-hot --seed 1 --seconds 20 --trace 0

With --workload all, every workload named in BENCHMARK.json runs in
turn and a table of every metric, by name and with its unit, closes the
output.

Run from the repository root.  The build uses dune inside the checkout
(no shared cache, temporary files under .perfbench_state/); the run
executes perfbench/main.exe, whose last line of standard output is the
result object.  Every process the run starts is in one process group,
which is killed and waited for before this script exits.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = os.path.join(ROOT, ".perfbench_state")
WORKLOADS = ("warm-hot", "cold-solve", "edit-chain")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def stop_group(pgid):
    """Kill the run's process group and wait until it is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    tmp = os.path.join(STATE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)

    build = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/main.exe", "./bin/definability_cli.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False,
    )
    if build.returncode != 0:
        fail("build failed")

    if args.workload != "all":
        run_one(args, args.workload, env)
        return
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    rows = []
    for name in names:
        last = run_one(args, name, env, capture=True)
        for metric, m in json.loads(last)["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
    print()
    for name, metric, value, unit in rows:
        print("%-12s %-36s %16.4f %s" % (name, metric, value, unit))


def run_one(args, workload, env, capture=False):
    """Run main.exe for one workload; with [capture], echo its output and
    return its last line."""
    cmd = [
        os.path.join(ROOT, "_build", "default", "perfbench", "main.exe"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cli", os.path.join("_build", "default", "bin", "definability_cli.exe"),
        "--state", ".perfbench_state",
    ]
    sys.stdout.flush()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, start_new_session=True,
        stdout=subprocess.PIPE if capture else None, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        stop_group(proc.pid)
        proc.wait()
        raise
    stop_group(proc.pid)
    if proc.returncode != 0:
        fail("run failed with exit code %d" % proc.returncode)
    if capture:
        sys.stdout.write(out)
        return out.strip().splitlines()[-1]
    return None


if __name__ == "__main__":
    main()
