"""The benchmark's four workloads, driven only through public APIs.

Each workload separates four things:

* inputs, made once per run from ``--seed`` and never timed;
* set-up (model, then engine / simulator / trainer), timed as ``setup_s``;
* the run itself (``ServingEngine.run``, ``ClusterSimulator.run`` or
  ``Trainer.train``), timed for the host throughput;
* the check of the outputs against stored references.

``instrument`` installs the traced run's wrappers on the instances one
pass built, and ``layer_metrics`` turns the tracer's aggregates into the
per-layer metrics.  Every workload reports every per-layer metric; a
layer the workload does not run reads 0.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.models import GPTModel, preset
from repro.serving import (ClusterConfig, ClusterSimulator, ReplicaLayout,
                           Request, RoutingConfig, ServingConfig,
                           ServingEngine, SpecDecodeConfig, WorkloadConfig,
                           synthesize_workload)

REFS = Path(__file__).resolve().parent / "refs"

#: Relative tolerance on a training loss against its stored reference.
#: Float64 losses from the same code differ only by BLAS rounding between
#: CPU kernels, orders of magnitude below this; any change to the maths
#: moves them far above it.
LOSS_RTOL = 1e-9

#: Per-layer metrics and their units, in report order.
LAYER_METRICS = {
    "models.prefill.calls": "count",
    "models.prefill.busy_s": "s",
    "models.prefill.tokens": "count",
    "models.decode.calls": "count",
    "models.decode.busy_s": "s",
    "models.decode.rows_mean": "count",
    "models.decode.gflops": "GFLOP/s",
    "models.verify.calls": "count",
    "models.verify.busy_s": "s",
    "models.attn.self_s": "s",
    "models.mlp.self_s": "s",
    "models.norm.self_s": "s",
    "models.embed_head.self_s": "s",
    "spec.propose.busy_s": "s",
    "spec.acceptance_rate": "fraction",
    "spec.tokens_per_verify": "count",
    "packed_kv.capacity_mb": "MB",
    "packed_kv.used_mb": "MB",
    "scheduler.admit.calls": "count",
    "scheduler.admit.busy_s": "s",
    "scheduler.queue_wait_p95_ms": "ms",
    "scheduler.batch_rows_mean": "count",
    "scheduler.preemptions": "count",
    "kv_pool.allocate.calls": "count",
    "kv_pool.allocate.busy_s": "s",
    "kv_pool.free.busy_s": "s",
    "kv_pool.blocks_reserved": "count",
    "kv_pool.peak_utilization": "fraction",
    "prefix_cache.match.busy_s": "s",
    "prefix_cache.insert.busy_s": "s",
    "prefix_cache.evict.busy_s": "s",
    "prefix_cache.copy_into.busy_s": "s",
    "prefix_cache.evicted_blocks": "count",
    "prefix_cache.token_hit_rate": "fraction",
    "engine.loop.self_s": "s",
    "engine.steps": "count",
    "cost.busy_s": "s",
    "cluster.router.self_s": "s",
    "cluster.replica_step.calls": "count",
    "cluster.replica_step.self_s": "s",
    "cluster.enqueue.busy_s": "s",
    "cluster.steps_per_req": "count",
    "train.data.busy_s": "s",
    "train.forward.busy_s": "s",
    "train.backward.busy_s": "s",
    "train.optimizer.busy_s": "s",
    "setup.model_s": "s",
    "setup.runtime_s": "s",
    "serving.ttft_p50_ms": "ms",
    "serving.ttft_p95_ms": "ms",
    "serving.tpot_p50_ms": "ms",
    "serving.tpot_p95_ms": "ms",
    "serving.sim_tok_per_s": "tok/s",
    "serving.slo_attainment": "fraction",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}

_COST_METHODS = ("prefill_time", "decode_step_time", "verify_step_time",
                 "chunked_prefill_time", "restore_time")


def percentile(values, q: float) -> tuple[float, int, int]:
    """``(value, samples, samples strictly above it)`` of a percentile."""
    arr = np.asarray(values, dtype=np.float64)
    value = float(np.percentile(arr, q))
    return value, int(arr.size), int((arr > value).sum())


def _load(name: str) -> dict:
    with open(REFS / f"{name}.json") as fh:
        return json.load(fh)


def _make_requests(rows) -> list[Request]:
    """Fresh ``Request`` objects (the engine mutates the ones it runs)."""
    return [Request(request_id=i, prompt=np.asarray(prompt, dtype=np.int64),
                    max_new_tokens=max_new, arrival_time=arrival)
            for i, (prompt, max_new, arrival) in enumerate(rows)]


# ----------------------------------------------------------------------
# Instrumentation shared by the engine workloads and the trainer
# ----------------------------------------------------------------------
def _decode_flops(config):
    """FLOPs of one batched decode step, from the model's GEMM shapes."""
    h, f, v = config.hidden_size, config.ffn_hidden_size, config.vocab_size
    matrices = 3 if config.arch == "llama" else 2
    per_row = 2 * (config.num_layers * (h * config.qkv_out_dim + h * h
                                        + matrices * h * f) + h * v)
    per_ctx = 4 * config.num_layers * h   # scores + attention-over-values

    def flops(rows: int, context_tokens: int) -> float:
        return float(rows * per_row + per_ctx * context_tokens)
    return flops


def instrument_model(tracer, model) -> None:
    """Spans on the model's entry points and its Fig 10 submodules."""
    flops = _decode_flops(model.config)

    def decode_work(last_tokens, pool, slots):
        rows = len(slots)
        tracer.add("models.decode.rows", rows)
        return flops(rows, int(pool.lengths_of(0, slots).sum()) + rows)

    tracer.wrap(model, "_forward_cached", "models.prefill",
                work=lambda ids, caches: np.atleast_2d(ids).shape[1])
    tracer.wrap(model, "decode_step_batched", "models.decode",
                work=decode_work)
    tracer.wrap(model, "verify_step_batched", "models.verify",
                work=lambda blocks, pool, slots: len(slots))
    tracer.wrap(model, "forward", "models.forward")
    tracer.wrap(model.embed, "forward", "models.embed")
    tracer.wrap(model.final_norm, "forward", "models.norm")
    for layer in model.layers:
        for attr in ("forward", "forward_cached", "forward_decode_batched",
                     "forward_verify_batched"):
            tracer.wrap(layer.attn, attr, "models.attn")
        tracer.wrap(layer.mlp, "forward", "models.mlp")
        tracer.wrap(layer.norm1, "forward", "models.norm")
        tracer.wrap(layer.norm2, "forward", "models.norm")


def model_metrics(tracer) -> dict[str, float]:
    t = tracer.total
    decode_busy = t("models.decode", "busy_s")
    decode_calls = t("models.decode", "calls")
    return {
        "models.prefill.calls": t("models.prefill", "calls"),
        "models.prefill.busy_s": t("models.prefill", "busy_s"),
        "models.prefill.tokens": t("models.prefill", "work"),
        "models.decode.calls": decode_calls,
        "models.decode.busy_s": decode_busy,
        "models.decode.rows_mean": (t("models.decode.rows", "work")
                                    / decode_calls if decode_calls else 0.0),
        "models.decode.gflops": (t("models.decode", "work") / decode_busy
                                 / 1e9 if decode_busy else 0.0),
        "models.verify.calls": t("models.verify", "calls"),
        "models.verify.busy_s": t("models.verify", "busy_s"),
        "models.attn.self_s": t("models.attn", "self_s"),
        "models.mlp.self_s": t("models.mlp", "self_s"),
        "models.norm.self_s": t("models.norm", "self_s"),
        # Embedding lookup, residual adds and the tied head GEMM: what the
        # model's entry points do outside attention, MLP and norms.
        "models.embed_head.self_s": sum(
            t(name, "self_s") for name in (
                "models.embed", "models.prefill", "models.decode",
                "models.verify", "models.forward")),
    }


def serving_quality(records, submitted: int, slo: dict) -> dict:
    """Virtual-clock serving metrics from per-request records.

    Returns ``name -> (value, unit, note)``.  Percentiles note their
    sample count and the samples beyond them.  SLO attainment divides by
    *submitted* requests, so a request that failed, was shed or timed out
    counts as a miss.
    """
    ttft = [r.ttft * 1e3 for r in records]
    tpot = [r.tpot * 1e3 for r in records if r.output_len > 1]
    span = max(r.finish for r in records) - min(r.arrival for r in records)
    within = sum(1 for r in records
                 if r.ttft * 1e3 <= slo["ttft_ms"]
                 and r.tpot * 1e3 <= slo["tpot_ms"])
    out = {}
    for name, values in (("ttft", ttft), ("tpot", tpot)):
        for q in (50, 95):
            value, n, beyond = percentile(values, q)
            out[f"{name}_p{q}_ms"] = (value, "ms", f"n={n}, {beyond} beyond")
    out["sim_tok_per_s"] = (sum(r.output_len for r in records) / span,
                            "tok/s", "first arrival to last finish")
    out["slo_attainment"] = (within / submitted, "fraction",
                             f"TTFT <= {slo['ttft_ms']:g} ms and TPOT <= "
                             f"{slo['tpot_ms']:g} ms, of {submitted} "
                             f"submitted")
    return out


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class _EngineWorkload:
    """A ``ServingEngine`` on a stored corpus with seeded arrivals."""

    kind = "serving"

    def __init__(self, spec: dict, seed: int):
        self.spec = spec
        self.slo = spec["slo"]
        self.model_config = preset(spec["model"]["preset"])
        self.corpus = _load(self.name)["requests"]
        self.rows, self.expected = self._schedule(seed)

    def serving_config(self) -> ServingConfig:
        kwargs = dict(self.spec["serving"])
        if "spec_decode" in kwargs:
            kwargs["spec_decode"] = SpecDecodeConfig(**kwargs["spec_decode"])
        return ServingConfig(**kwargs)

    def build_model(self):
        return GPTModel(self.model_config, seed=self.spec["model"]["seed"])

    def build_runtime(self, model):
        return ServingEngine(model, self.serving_config())

    def make_inputs(self):
        return _make_requests(self.rows)

    def run(self, engine, requests):
        return engine.run(requests)

    def tokens(self, result) -> int:
        return sum(len(out) for out in result.outputs.values())

    def check(self, result, requests) -> tuple[int, int, list[str]]:
        problems = []
        submitted = len(requests)
        accounted = len(result.records) + len(result.shed_records) \
            + len(result.timeout_records)
        if accounted != submitted:
            problems.append(f"{accounted} requests accounted for, "
                            f"{submitted} submitted")
        failed = 0
        for req in requests:
            got = result.outputs.get(req.request_id)
            if got is None or got.tolist() != self.expected[req.request_id]:
                failed += 1
        return submitted, failed, problems

    def quality(self, result, requests) -> dict:
        return serving_quality(result.records, len(requests), self.slo)

    def instrument(self, tracer, engine) -> None:
        tracer.wrap(engine, "run", "engine.run")
        instrument_model(tracer, engine.model)
        tracer.wrap(engine.scheduler, "admit", "scheduler.admit")
        tracer.wrap(engine.pool, "allocate", "kv_pool.allocate")
        tracer.wrap(engine.pool, "free", "kv_pool.free")
        for method in _COST_METHODS:
            tracer.wrap(engine.cost, method, f"cost.{method}")
        if engine.prefix_cache is not None:
            for method in ("match", "insert", "evict", "copy_into"):
                tracer.wrap(engine.prefix_cache, method,
                            f"prefix_cache.{method}")
        if engine.proposer is not None:
            tracer.wrap(engine.proposer, "propose", "spec.propose")
        # Peak KV in use, sampled where it peaks: a slot only grows until
        # it is released.
        packed = engine.packed
        self.peak_kv_bytes = 0

        def sample(slot) -> int:
            self.peak_kv_bytes = max(self.peak_kv_bytes, packed.memory_bytes(
                packed.dtype.itemsize))
            return 0
        tracer.wrap(packed, "release", "packed_kv.release", work=sample)

    def layer_metrics(self, tracer, engine, result, requests) -> dict:
        t = tracer.total
        metrics = model_metrics(tracer)
        m = result.metrics
        verify_rows = t("models.verify", "work")
        packed = engine.packed
        cache = engine.prefix_cache
        metrics.update({
            "spec.propose.busy_s": t("spec.propose", "busy_s"),
            "spec.acceptance_rate": m.acceptance_rate,
            "spec.tokens_per_verify": (1.0 + m.draft_accepted / verify_rows
                                       if verify_rows else 0.0),
            "packed_kv.capacity_mb": packed.capacity_bytes(
                packed.dtype.itemsize) / 1e6,
            "packed_kv.used_mb": self.peak_kv_bytes / 1e6,
            "engine.loop.self_s": t("engine.run", "self_s"),
            "engine.steps": t("models.decode", "calls")
            + t("models.verify", "calls"),
            "cost.busy_s": sum(t(f"cost.{m_}", "self_s")
                               for m_ in _COST_METHODS),
            "prefix_cache.evicted_blocks": (cache.stats.evicted_blocks
                                            if cache else 0),
            **{f"prefix_cache.{method}.busy_s": t(f"prefix_cache.{method}",
                                                  "busy_s")
               for method in ("match", "insert", "evict", "copy_into")},
            "prefix_cache.token_hit_rate": (cache.stats.token_hit_rate
                                            if cache else 0.0),
        })
        metrics.update(_scheduler_metrics(tracer, result.records, m,
                                          [engine.pool]))
        return metrics


def _scheduler_metrics(tracer, records, metrics, pools) -> dict:
    t = tracer.total
    wait, _, _ = percentile([(r.admit - r.arrival) * 1e3 for r in records],
                            95)
    return {
        "scheduler.admit.calls": t("scheduler.admit", "calls"),
        "scheduler.admit.busy_s": t("scheduler.admit", "busy_s"),
        "scheduler.queue_wait_p95_ms": wait,
        "scheduler.batch_rows_mean": metrics.mean_batch_size,
        "scheduler.preemptions": metrics.preemptions,
        "kv_pool.allocate.calls": t("kv_pool.allocate", "calls"),
        "kv_pool.allocate.busy_s": t("kv_pool.allocate", "busy_s"),
        "kv_pool.free.busy_s": t("kv_pool.free", "busy_s"),
        "kv_pool.blocks_reserved": sum(p.num_blocks for p in pools),
        "kv_pool.peak_utilization": max(p.peak_utilization for p in pools),
    }


class EnginePoisson(_EngineWorkload):
    """Unshared random prompts, Poisson arrivals, default engine."""

    name = "engine-poisson"

    def _schedule(self, seed: int):
        rng = np.random.default_rng(seed)
        rate = self.spec["traffic"]["arrival_rate_per_s"]
        order = rng.permutation(len(self.corpus))
        arrivals = np.cumsum(rng.exponential(1.0 / rate, len(order)))
        picked = [self.corpus[i] for i in order]
        rows = [(c["prompt"], c["max_new_tokens"], float(t))
                for c, t in zip(picked, arrivals)]
        return rows, [c["output"] for c in picked]


class EngineSessions(_EngineWorkload):
    """Multi-turn sessions over shared system prompts, seeded starts."""

    name = "engine-sessions"

    def _schedule(self, seed: int):
        rng = np.random.default_rng(seed)
        rate = self.spec["traffic"]["session_rate_per_s"]
        sessions = sorted({c["session"] for c in self.corpus})
        order = rng.permutation(len(sessions))
        gaps = np.cumsum(rng.exponential(1.0 / rate, len(sessions)))
        start = {sessions[i]: float(t) for i, t in zip(order, gaps)}
        timed = sorted(((start[c["session"]] + c["offset_s"], c["session"],
                         c["turn"], c) for c in self.corpus),
                       key=lambda e: e[:3])
        rows = [(c["prompt"], c["max_new_tokens"], t)
                for t, _, _, c in timed]
        return rows, [c["output"] for _, _, _, c in timed]


class ClusterFleet:
    """128 timing-level replicas behind a least-outstanding router."""

    name = "cluster-fleet"
    kind = "serving"

    def __init__(self, spec: dict, seed: int):
        self.spec = spec
        self.slo = spec["slo"]
        traffic = spec["traffic"]
        requests = synthesize_workload(WorkloadConfig(
            num_requests=traffic["num_requests"],
            arrival_rate=traffic["arrival_rate_per_s"],
            prompt_len_range=tuple(traffic["prompt_len_range"]),
            output_len_range=tuple(traffic["output_len_range"]),
            prompt_skew=traffic["prompt_skew"],
            heavy_multiplier=traffic["heavy_multiplier"],
            seed=seed), preset(spec["model"]["preset"]))
        self.rows = [(r.prompt, r.max_new_tokens, r.arrival_time)
                     for r in requests]

    def build_model(self):
        # Timing-level replicas need only the configuration, no weights.
        return preset(self.spec["model"]["preset"])

    def build_runtime(self, model_config):
        cluster = self.spec["cluster"]
        return ClusterSimulator(model_config, ClusterConfig(
            num_nodes=cluster["num_nodes"],
            layout=ReplicaLayout.from_label(cluster["layout"]),
            routing=RoutingConfig(policy=cluster["routing"])))

    def make_inputs(self):
        return _make_requests(self.rows)

    def run(self, sim, requests):
        return sim.run(requests)

    def tokens(self, result) -> int:
        return sum(r.output_len for r in result.records)

    def check(self, result, requests) -> tuple[int, int, list[str]]:
        problems = []
        submitted = len(requests)
        accounted = len(result.records) + len(result.failed_records) \
            + len(result.shed_records) + len(result.timeout_records)
        if accounted != submitted or result.submitted != submitted:
            problems.append(f"{accounted} requests accounted for, "
                            f"{submitted} submitted")
        budget = {r.request_id: r.max_new_tokens for r in requests}
        completed = sum(1 for r in result.records
                        if r.output_len == budget[r.request_id])
        return submitted, submitted - completed, problems

    def quality(self, result, requests) -> dict:
        return serving_quality(result.records, len(requests), self.slo)

    def instrument(self, tracer, sim) -> None:
        tracer.wrap(sim, "run", "cluster.run")
        for replica in sim.replicas:
            tracer.wrap(replica, "step", "cluster.replica_step")
            tracer.wrap(replica, "enqueue", "cluster.enqueue")
            tracer.wrap(replica.scheduler, "admit", "scheduler.admit")
            tracer.wrap(replica.pool, "allocate", "kv_pool.allocate")
            tracer.wrap(replica.pool, "free", "kv_pool.free")
            # Every replica holds the same cost model: wrapped once.
            for method in _COST_METHODS:
                tracer.wrap(replica.cost, method, f"cost.{method}")

    def layer_metrics(self, tracer, sim, result, requests) -> dict:
        t = tracer.total
        metrics = {
            "cost.busy_s": sum(t(f"cost.{m}", "self_s")
                               for m in _COST_METHODS),
            "cluster.router.self_s": t("cluster.run", "self_s"),
            "cluster.replica_step.calls": t("cluster.replica_step",
                                            "calls"),
            "cluster.replica_step.self_s": t("cluster.replica_step",
                                             "self_s"),
            "cluster.enqueue.busy_s": t("cluster.enqueue", "busy_s"),
            "cluster.steps_per_req": t("cluster.replica_step", "calls")
            / len(requests),
        }
        metrics.update(_scheduler_metrics(
            tracer, result.records, result.metrics,
            [r.pool for r in sim.replicas]))
        return metrics


class TrainSmall:
    """Adam on small-llama over a packed BPE dataset."""

    name = "train-small"
    kind = "training"

    def __init__(self, spec: dict, seed: int):
        from repro.data.corpus import AbstractGenerator
        from repro.data.dataset import PackedDataset
        from repro.tokenizers import BPETokenizer
        self.spec = spec
        self.model_config = preset(spec["model"]["preset"])
        data = spec["data"]
        texts = [d.text for d in AbstractGenerator(data["corpus_seed"]).sample(
            data["abstracts"], materials_fraction=data["materials_fraction"])]
        tokenizer = BPETokenizer().train(texts, data["vocab_size"])
        self.dataset = PackedDataset.from_texts(
            texts, tokenizer, seq_len=data["seq_len"],
            seed=data["split_seed"])
        self.trainer_seed = seed % spec["reference_seeds"]

    @cached_property
    def expected(self) -> list[float]:
        return _load(self.name)["losses"][self.trainer_seed]

    def trainer_config(self):
        from repro.training.trainer import TrainerConfig
        tc = self.spec["trainer"]
        return TrainerConfig(optimizer=tc["optimizer"],
                             batch_size=tc["batch_size"],
                             max_steps=tc["steps_per_pass"],
                             eval_every=tc["eval_every"],
                             seed=self.trainer_seed)

    def build_model(self):
        return GPTModel(self.model_config, seed=self.spec["model"]["seed"])

    def build_runtime(self, model):
        from repro.training.trainer import Trainer
        return Trainer(model, self.dataset, self.trainer_config())

    def make_inputs(self):
        return None

    def run(self, trainer, _inputs):
        return trainer.train()

    def tokens(self, history) -> int:
        tc = self.spec["trainer"]
        return len(history.train_loss) * tc["batch_size"] \
            * self.spec["data"]["seq_len"]

    def check(self, history, _inputs) -> tuple[int, int, list[str]]:
        problems = []
        losses = history.train_loss
        if len(losses) != len(self.expected):
            problems.append(f"{len(losses)} steps ran, "
                            f"{len(self.expected)} expected")
        failed = sum(1 for got, want in zip(losses, self.expected)
                     if not math.isfinite(got)
                     or abs(got - want) > LOSS_RTOL * abs(want))
        failed += max(0, len(self.expected) - len(losses))
        return len(self.expected), failed, problems

    def quality(self, history, _inputs) -> dict:
        return {}

    def instrument(self, tracer, trainer) -> None:
        tracer.wrap(trainer, "train", "train.run")
        instrument_model(tracer, trainer.model)
        tracer.wrap(trainer.optimizer, "step", "train.optimizer")
        tracer.wrap(trainer.optimizer, "zero_grad", "train.optimizer")
        tracer.wrap_generator(trainer.dataset, "batches", "train.data")
        tracer.wrap(trainer.dataset, "sample_batch", "train.data")

    def layer_metrics(self, tracer, trainer, history, _inputs) -> dict:
        t = tracer.total
        metrics = model_metrics(tracer)
        metrics.update({
            "train.data.busy_s": t("train.data", "busy_s"),
            "train.forward.busy_s": t("models.forward", "busy_s"),
            # The rest of Trainer.train: loss, autograd backward, gradient
            # clipping and precision casts.
            "train.backward.busy_s": t("train.run", "self_s"),
            "train.optimizer.busy_s": t("train.optimizer", "busy_s"),
        })
        return metrics


WORKLOADS = {cls.name: cls for cls in (EnginePoisson, EngineSessions,
                                       ClusterFleet, TrainSmall)}
