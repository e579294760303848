"""One workload in its own process: the measurement behind ``run.py``.

``run.py`` starts this script with a fixed hash seed, BLAS pinned to one
thread and ``src`` on the path; run it through ``run.py``.

Untraced run (``--trace 0``): repeat *passes* until ``--seconds`` are
spent.  A pass builds the model and the runtime (timed as set-up), runs
the workload's inputs through it (timed as the run), and checks the
outputs.  The first pass is a warm-up: checked, but its run time is not
used.  Host metrics are medians over the other passes (at least
``min_passes``); ``setup_s`` is the median over at least
``setup_repeats`` set-ups.  Every pass uses the same inputs, so the
virtual-clock metrics must repeat exactly from pass to pass; a
difference is an error.

Traced run (``--trace 1``): after the warm-up, alternate an untraced
and a traced pass until ``--seconds`` are spent.  The traced pass wraps
the instances it built (see ``tracer.py``); per-layer metrics are
medians over traced passes, and ``trace.overhead`` is the median traced
run time over the median untraced one.  The spans of the last traced
pass are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())

from tracer import Tracer  # noqa: E402
from workloads import LAYER_METRICS, WORKLOADS  # noqa: E402


def _pass(workload, tracer: Tracer | None = None) -> dict:
    """Set up, run and check once; returns timings and the check."""
    gc.collect()
    inputs = workload.make_inputs()
    start = time.perf_counter()
    if tracer is None:
        runtime = workload.build_runtime(workload.build_model())
    else:
        with tracer.span("setup.model"):
            model = workload.build_model()
        with tracer.span("setup.runtime"):
            runtime = workload.build_runtime(model)
        workload.instrument(tracer, runtime)
    built = time.perf_counter()
    result = workload.run(runtime, inputs)
    done = time.perf_counter()
    attempted, failed, problems = workload.check(result, inputs)
    out = {"setup_s": built - start, "run_s": done - built,
           "tokens": workload.tokens(result), "attempted": attempted,
           "failed": failed, "problems": problems,
           "quality": workload.quality(result, inputs)}
    if tracer is not None:
        layers = workload.layer_metrics(tracer, runtime, result, inputs)
        layers["setup.model_s"] = tracer.total("setup.model", "busy_s")
        layers["setup.runtime_s"] = tracer.total("setup.runtime", "busy_s")
        for name, (value, _, _) in out["quality"].items():
            layers[f"serving.{name}"] = value
        layers["trace.wall_s"] = tracer.root_ns() / 1e9
        problems += tracer.check()
        tracer.restore()
        unknown = set(layers) - set(LAYER_METRICS)
        if unknown:
            raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
        out["layers"] = layers
    return out


def measure(workload, seconds: float) -> dict:
    """The untraced run: end-to-end metrics."""
    proc = SPEC["process"]
    deadline = time.perf_counter() + seconds
    passes = [_pass(workload)]
    while True:
        start = time.perf_counter()
        passes.append(_pass(workload))
        spent = time.perf_counter() - start
        if len(passes) > proc["min_passes"] \
                and time.perf_counter() + spent > deadline:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < proc["setup_repeats"]:
        gc.collect()
        start = time.perf_counter()
        runtime = workload.build_runtime(workload.build_model())
        setups.append(time.perf_counter() - start)
        del runtime
    timed = passes[1:]
    problems = []
    if any(p["quality"] != passes[0]["quality"] for p in passes):
        problems.append("virtual-clock metrics differ between passes of "
                        "the same inputs")
    wall = statistics.median(p["tokens"] / p["run_s"] for p in timed)
    notes = dict(passes[0]["quality"])
    # Per-workload throughput names, printed beside wall_tok_per_s.
    if workload.kind == "serving":
        notes["sim_req_per_s"] = (
            statistics.median(p["attempted"] / p["run_s"] for p in timed),
            "req/s", "host, median over passes")
    else:
        notes["train_tok_per_s"] = (wall, "tok/s", "= wall_tok_per_s")
    return {"passes": passes, "problems": problems, "notes": notes,
            "metrics": {
                "wall_tok_per_s": (wall, "tok/s"),
                # ru_maxrss is in KiB on Linux.
                "peak_rss_mb": (resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "setup_s": (statistics.median(setups), "s"),
            }}


def traced(workload, seconds: float, out_path: Path) -> dict:
    """The traced run: per-layer metrics and the tracer's own overhead."""
    deadline = time.perf_counter() + seconds
    passes = [_pass(workload)]
    plain, layered = [], []
    while not layered or time.perf_counter() < deadline:
        plain.append(_pass(workload))
        tracer = Tracer()
        layered.append(_pass(workload, tracer))
    tracer.save(out_path)
    overhead = statistics.median(p["run_s"] for p in layered) \
        / statistics.median(p["run_s"] for p in plain)
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if name == "trace.overhead":
            value = overhead
        else:
            value = statistics.median(float(p["layers"].get(name, 0.0))
                                      for p in layered)
        metrics[name] = (value, unit)
    notes = {"models.decode.gflops": (
        metrics["models.decode.gflops"][0], "GFLOP/s",
        "FLOPs computed from tensor shapes, not hardware counters")}
    return {"passes": passes + plain + layered, "problems": [],
            "notes": notes, "metrics": metrics}


def host_metadata(root: Path) -> dict:
    """Where a result was measured: CPU, toolchain, BLAS, seeds, commit."""
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "commit": _git_commit(root),
    }


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` (None outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](SPEC["workloads"][args.workload],
                                        args.seed)
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        report = traced(workload, args.seconds, out_dir /
                        f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        report = measure(workload, args.seconds)
    passes = report["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = report["problems"] + [msg for p in passes
                                     for msg in p["problems"]]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} (first is a warm-up)")
    print("host " + json.dumps(host_metadata(args.root), sort_keys=True))
    for name, (value, unit, note) in report["notes"].items():
        print(f"  {name:<32} {value:>12.6g} {unit:<9} ({note})")
    print(f"  {'error_rate':<32} {failed / attempted:>12.6g} {'fraction':<9} "
          f"({failed} of {attempted} failed)")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:<32} {value:>12.6g} {unit}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
