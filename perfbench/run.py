#!/usr/bin/env python3
"""Build the write-path benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Builds `perfbench/` (a Cargo package of its own, depending on the
repository's crates by path) into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs it. The harness writes its human-readable report
to stderr and to `.bench_out/`, and prints the result object as the last
line of stdout (`--workload all` runs every workload in turn, one result
line each). See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve-cold", "stream-fills", "rewrite-vcc256")
# The harness must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def llc_bytes():
    """Size of the highest cache level of CPU 0 in bytes (0 if unknown)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, 0)
    try:
        for index in os.listdir(base):
            try:
                with open(os.path.join(base, index, "level")) as f:
                    level = int(f.read())
                with open(os.path.join(base, index, "size")) as f:
                    size = f.read().strip()
            except (OSError, ValueError):
                continue
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
            digits = size.rstrip("KMG")
            if digits.isdigit():
                best = max(best, (level, int(digits) * scale))
    except OSError:
        pass
    return best[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not os.path.isdir(os.path.join(root, "crates")):
        print("perfbench: the repository's crates/ directory is missing; "
              "the benchmark builds the program from source", file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env, stdout=sys.stderr, cwd=root,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    sys.stdout.flush()
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        harness = [
            os.path.join(target, "release", "perfbench"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--commit", git_commit(root),
            "--llc-bytes", str(llc_bytes()),
        ]
        try:
            run = subprocess.run(harness, env=env, cwd=root, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
        status = status or run.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
