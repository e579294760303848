"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload engine-poisson --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  The workload runs in a child process of
its own (``bench.py``), so its peak RSS is its own, with the hash seed
and BLAS thread count fixed from ``perfbench/spec.json`` and ``src`` on
the import path.  Human-readable lines come first; the last line of
standard output is the JSON result.  Without ``src/repro`` next to this
directory the script exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run must end within 180 s; the child gets a little less.
CHILD_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_spec() -> dict:
    return json.loads((HERE / "spec.json").read_text())


def child_env(spec: dict) -> dict:
    """The environment every workload process runs under."""
    env = dict(os.environ)
    threads = str(spec["process"]["blas_threads"])
    env.update(PYTHONHASHSEED=str(spec["process"]["hash_seed"]),
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONPATH=str(ROOT / "src"))
    return env


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2

    command = [sys.executable, str(HERE / "bench.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", str(ROOT)]
    try:
        child = subprocess.run(command, env=child_env(spec), cwd=ROOT,
                               stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within "
              f"{CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(child.stdout)
        print(f"error: {args.workload} exited with {child.returncode}",
              file=sys.stderr)
        return child.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("\n".join(lines))
        print(f"error: {args.workload} printed no result", file=sys.stderr)
        return 1
    print(child.stdout, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
