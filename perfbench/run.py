#!/usr/bin/env python3
"""Entry point of the secflow benchmark.

Builds the benchmark from source, runs one workload in a child process
(so its peak memory is the workload's own), and prints the child's
information line followed by its result line, which is always the last
line of standard output. Run it from the repository root:

    python3 perfbench/run.py --workload fig6 --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the root).
Scratch files (sockets, cache spill) live in .bench_work/ and are
removed when the run ends. Exits non-zero without a result line when the
build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig6", "campaign", "serve", "scale")
# A run measures for --seconds plus set-up, a self-check operation and,
# when traced, a calibration pass; this bounds all of it.
RUN_TIMEOUT_S = 170


def build(env):
    """Builds the benchmark binary; returns its path or None."""
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        return None
    return os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release", "perfbench")


def run(exe, args, work):
    """Runs one workload in its own process group; returns its stdout
    lines, or None on failure or timeout."""
    cmd = [exe, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    child = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return None
    finally:
        # The serve workload's daemons share the group; none may outlive
        # the run.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"perfbench: run failed with code {child.returncode}", file=sys.stderr)
        return None
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, same self-checks")
    args = p.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    exe = build(env)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    scratch = os.path.join(ROOT, ".bench_work")
    work = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        lines = run(exe, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    if lines is None:
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
