"""Regenerate the stored references in ``perfbench/refs/``.

    python3 perfbench/make_refs.py

Run from the repository root, after a change that is *meant* to change
outputs (a new model initialisation, a new workload parameter in
``spec.json``).  It writes:

* ``engine-poisson.json`` and ``engine-sessions.json``: the request
  corpus of each engine workload, drawn once with the corpus seed in
  ``spec.json``, with every request's greedy output from
  ``GPTModel.generate(use_cache=True)``, the repo's sequential path;
* ``train-small.json``: the per-step training loss for each data-order
  seed the workload can use.

Takes about a minute and a half on one core.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, child_env, load_spec  # noqa: E402


def _engine_corpus(name: str, spec: dict) -> list[dict]:
    from repro.models import GPTModel, preset
    from repro.serving import (SessionWorkloadConfig, WorkloadConfig,
                               synthesize_sessions, synthesize_workload)
    config = preset(spec["model"]["preset"])
    corpus = dict(spec["corpus"])
    generator = corpus.pop("generator")
    ranges = {k: tuple(v) for k, v in corpus.items() if k.endswith("_range")}
    corpus.update(ranges)
    if generator.endswith("synthesize_sessions"):
        requests = synthesize_sessions(SessionWorkloadConfig(**corpus), config)
    else:
        requests = synthesize_workload(WorkloadConfig(**corpus), config)
    model = GPTModel(config, seed=spec["model"]["seed"])
    starts: dict[int, float] = {}
    turns: dict[int, int] = {}
    rows = []
    for req in requests:
        out = model.generate(req.prompt, req.max_new_tokens, use_cache=True)
        row = {"prompt": req.prompt.tolist(),
               "max_new_tokens": req.max_new_tokens,
               "output": out[req.prompt_len:].tolist()}
        if req.session_id is not None:
            sid = req.session_id
            starts.setdefault(sid, req.arrival_time)
            row.update(session=sid, turn=turns.get(sid, 0),
                       offset_s=req.arrival_time - starts[sid])
            turns[sid] = row["turn"] + 1
        rows.append(row)
    print(f"{name}: {len(rows)} reference outputs", file=sys.stderr)
    return rows


def _train_losses(spec: dict) -> list[list[float]]:
    from workloads import TrainSmall
    losses = []
    for seed in range(spec["reference_seeds"]):
        workload = TrainSmall(spec, seed)
        trainer = workload.build_runtime(workload.build_model())
        losses.append(trainer.train().train_loss)
        print(f"train-small: seed {seed} final loss {losses[-1][-1]!r}",
              file=sys.stderr)
    return losses


def main() -> int:
    spec = load_spec()
    env = child_env(spec)
    if any(os.environ.get(k) != env[k] for k in
           ("PYTHONHASHSEED", "OPENBLAS_NUM_THREADS", "PYTHONPATH")):
        # Same interpreter settings as a benchmark run, set before numpy
        # is imported.
        os.execve(sys.executable, [sys.executable, __file__], env)
    refs = HERE / "refs"
    refs.mkdir(exist_ok=True)
    workloads = spec["workloads"]
    for name in ("engine-poisson", "engine-sessions"):
        data = {"about": f"{name} corpus and greedy reference outputs "
                         f"(perfbench/make_refs.py)",
                "requests": _engine_corpus(name, workloads[name])}
        (refs / f"{name}.json").write_text(json.dumps(data) + "\n")
    data = {"about": "train-small per-step losses, one list per data-order "
                     "seed (perfbench/make_refs.py)",
            "losses": _train_losses(workloads["train-small"])}
    (refs / "train-small.json").write_text(json.dumps(data) + "\n")
    print(f"wrote references under {refs.relative_to(ROOT)}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
