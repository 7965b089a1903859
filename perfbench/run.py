#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/main.exe from source with dune and
runs one workload of it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads: corner-sweep, synth-signoff, image-chain, serve-mixed (see
BENCHMARK.json).  Run from the repository root.  Everything the run writes
(dune's build tree aside) goes to a private directory under .perfbench_run/
that is removed when the run ends; the repository's own library caches are
never read or written.  The last line of standard output is the JSON result;
with --trace 0 this script adds the process's peak RSS to it.  --self-test
runs the determinism self-test: the same seed must generate identical
inputs, another seed other ones, and the exact effort counts must repeat
across two passes of one seed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_DIR = ".perfbench_run"
# A run must end within 180 s; the child is killed a little before that.
CHILD_TIMEOUT_S = 170


def build(env):
    """Builds the benchmark executable; returns False when that fails (as in
    a directory holding nothing but the benchmark itself)."""
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def run_child(argv, env):
    """Runs the executable; returns (exit status, stdout lines, peak RSS MB)."""
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    timer.start()
    try:
        out = child.stdout.read().decode("utf-8", "replace")
        child.stdout.close()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if child.returncode is None:
            child.kill()
            child.wait()
    return child.returncode, out.splitlines(), usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    os.chdir(ROOT)
    scratch = os.path.join(RUN_DIR, str(os.getpid()))
    os.makedirs(os.path.join(scratch, "tmp"), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled",
               TMPDIR=os.path.abspath(os.path.join(scratch, "tmp")),
               XDG_CACHE_HOME=os.path.abspath(os.path.join(scratch, "tmp")))
    try:
        if not build(env):
            return 1
        if args.self_test:
            argv = [EXE, "self-test", "--scratch", scratch]
        else:
            argv = [EXE, "run", "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", args.trace, "--scratch", scratch]
        code, lines, peak_rss_mb = run_child(argv, env)
        if code != 0 or args.self_test:
            print("\n".join(lines), file=sys.stderr if code else sys.stdout)
            return code
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("\n".join(lines), file=sys.stderr)
            print("perfbench: no result line", file=sys.stderr)
            return 1
        if args.trace == "0":
            result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        print("\n".join(lines[:-1]))
        if args.trace == "0":
            print("  peak_rss_mb %.1f MB" % peak_rss_mb)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
