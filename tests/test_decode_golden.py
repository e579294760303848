"""Golden numerics for the inference forwards.

Greedy tokens and logits of every inference entry point are compared
against ``tests/data/decode_golden.npz``: sequential cached decode,
chunked prefill, ragged and uniform batched decode, a batch of one and
speculative verify, over neox/llama x MHA/GQA x full/partial rotary.
The batched-vs-sequential parity tests compare the inference kernel
with itself; this file pins the kernel to fixed numbers.  Tokens must
match exactly.  Logits are compared at ``rtol=1e-12`` rather than
bitwise, because BLAS builds on other hosts may round differently.

The stored file is regenerated only when a numerical change is
intended::

    PYTHONPATH=src python tests/test_decode_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from repro.models import GPTModel, KVCache, ModelConfig, PackedKVPool

GOLDEN = Path(__file__).parent / "data" / "decode_golden.npz"

CONFIGS = {
    f"{arch}-kv{kv or 4}-rot{pct}": ModelConfig(
        arch=arch, hidden_size=64, num_layers=2, num_heads=4,
        num_kv_heads=kv, vocab_size=32, max_seq_len=64, rotary_pct=pct)
    for arch in ("neox", "llama") for kv in (None, 2) for pct in (1.0, 0.5)}


def _prompts(config, lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, config.vocab_size, size=n) for n in lengths]


def sequential(model):
    """Prefill into per-layer ``KVCache``s, then three greedy steps."""
    prompt = _prompts(model.config, (11,))[0]
    caches = [KVCache() for _ in model.layers]
    rows = [model._forward_cached(prompt[None], caches).data[0, -1]]
    for _ in range(3):
        step = np.array([[rows[-1].argmax()]], dtype=np.int64)
        rows.append(model._forward_cached(step, caches).data[0, -1])
    return np.stack(rows)


def chunked(model):
    """Unaligned prefill chunks; the first and last row of each chunk."""
    prompt = _prompts(model.config, (30,), seed=1)[0]
    caches = [KVCache() for _ in model.layers]
    rows = []
    for lo, hi in ((0, 7), (7, 23), (23, 30)):
        logits = model._forward_cached(prompt[None, lo:hi], caches).data[0]
        rows += [logits[0], logits[-1]]
    return np.stack(rows)


def _prefill_pool(model, prompts):
    # Small blocks make the pool grow between decode steps.
    pool = PackedKVPool.for_model(model.config, num_slots=len(prompts),
                                  block_tokens=4)
    slots, rows = [], []
    for prompt in prompts:
        slot = pool.acquire()
        logits = model._forward_cached(prompt[None], pool.slot_caches(slot))
        slots.append(slot)
        rows.append(logits.data[0, -1])
    return pool, slots, np.stack(rows)


def batched(lengths, steps):
    """Pool prefill, then ``steps`` greedy ``decode_step_batched`` calls."""
    def run(model):
        pool, slots, last = _prefill_pool(
            model, _prompts(model.config, lengths, seed=2))
        out = [last]
        for _ in range(steps):
            last = model.decode_step_batched(last.argmax(axis=-1), pool,
                                             slots)
            out.append(last)
        return np.stack(out)
    return run


def verify(model):
    """One 4-position verify over ragged offsets (two rows share one)."""
    pool, slots, _ = _prefill_pool(
        model, _prompts(model.config, (5, 9, 9, 13), seed=3))
    blocks = np.random.default_rng(4).integers(
        0, model.config.vocab_size, size=(len(slots), 4))
    return model.verify_step_batched(blocks, pool, slots)


FORWARDS = {
    "sequential": sequential,
    "chunked": chunked,
    "ragged": batched((5, 9, 13, 9), 3),
    "uniform": batched((8, 8, 8), 2),
    "batch1": batched((10,), 3),
    "verify": verify,
}


def snapshot(config_name: str, forward: str) -> np.ndarray:
    model = GPTModel(CONFIGS[config_name], seed=0)
    return np.asarray(FORWARDS[forward](model), dtype=np.float64)


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.mark.parametrize("forward", sorted(FORWARDS))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_matches_golden(golden, config_name, forward):
    key = f"{config_name}/{forward}"
    logits = snapshot(config_name, forward)
    expected = golden[key]
    assert logits.shape == expected.shape
    np.testing.assert_array_equal(logits.argmax(axis=-1),
                                  expected.argmax(axis=-1))
    np.testing.assert_allclose(logits, expected, rtol=1e-12, atol=1e-14)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {f"{c}/{f}": snapshot(c, f)
            for c in sorted(CONFIGS) for f in sorted(FORWARDS)}
    np.savez_compressed(GOLDEN, **data)
    print(f"{len(data)} arrays, {sum(a.size for a in data.values())} "
          f"logits -> {GOLDEN}")
