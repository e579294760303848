"""Guarantees of the single inference attention kernel.

Decode, chunked prefill and speculative verify all run
``CausalSelfAttention._infer``, whatever the config's flash setting, so
a flash config's batched forwards are bit-identical to its sequential
cached forward (flash attention serves only the evaluation ``forward``).
The packed pool's vectorized multi-position append and its zero-copy
single-slot gather are checked here too.
"""

import numpy as np
import pytest

from repro.models import GPTModel, KVCache, ModelConfig, PackedKVPool


def flash_config(arch, kv_heads):
    return ModelConfig(arch=arch, hidden_size=64, num_layers=2,
                       num_heads=4, num_kv_heads=kv_heads, vocab_size=128,
                       max_seq_len=64, flash_attention=1)


def _prefill(model, prompts):
    pool = PackedKVPool.for_model(model.config, num_slots=len(prompts),
                                  block_tokens=8)
    slots, last = [], []
    for prompt in prompts:
        slot = pool.acquire()
        logits = model._forward_cached(prompt[None], pool.slot_caches(slot))
        slots.append(slot)
        last.append(int(logits.data[0, -1].argmax()))
    return pool, slots, last


@pytest.mark.parametrize("arch", ["neox", "llama"])
@pytest.mark.parametrize("kv_heads", [None, 2])
class TestFlashConfigBitwise:
    def test_decode_matches_sequential(self, arch, kv_heads):
        model = GPTModel(flash_config(arch, kv_heads), seed=0)
        rng = np.random.default_rng(0)
        prompts = [rng.integers(0, 128, size=n) for n in (5, 9, 13, 9)]
        pool, slots, last = _prefill(model, prompts)
        caches = []
        for prompt in prompts:
            caches.append([KVCache() for _ in model.layers])
            model._forward_cached(prompt[None], caches[-1])
        tokens = np.array(last, dtype=np.int64)
        for _ in range(3):
            batched = model.decode_step_batched(tokens, pool, slots)
            for i, token in enumerate(tokens):
                ref = model._forward_cached(np.array([[token]]), caches[i])
                np.testing.assert_array_equal(batched[i], ref.data[0, -1])
            tokens = batched.argmax(axis=-1)

    def test_verify_matches_sequential_chunk(self, arch, kv_heads):
        model = GPTModel(flash_config(arch, kv_heads), seed=0)
        rng = np.random.default_rng(1)
        prompts = [rng.integers(0, 128, size=n) for n in (6, 11, 11)]
        blocks = rng.integers(0, 128, size=(len(prompts), 4))
        pool, slots, _ = _prefill(model, prompts)
        batched = model.verify_step_batched(blocks, pool, slots)
        for i, prompt in enumerate(prompts):
            caches = [KVCache() for _ in model.layers]
            model._forward_cached(prompt[None], caches)
            ref = model._forward_cached(blocks[i][None], caches)
            np.testing.assert_array_equal(batched[i], ref.data[0])


class TestPoolBatchedAppend:
    def test_multi_position_append_matches_per_slot_append(self):
        rng = np.random.default_rng(2)
        pools = [PackedKVPool(num_layers=2, num_kv_heads=2, head_dim=4,
                              num_slots=4, max_len=64, block_tokens=4)
                 for _ in range(2)]
        for pool in pools:
            for _ in range(4):
                pool.acquire()
        slots = np.array([3, 0, 2])
        # Ragged starting lengths, so every row writes at its own offset.
        for slot, n in zip(slots, (2, 7, 5)):
            k = rng.normal(size=(1, 2, n, 4))
            for pool in pools:
                pool.append(1, int(slot), k, -k)
        k_new = rng.normal(size=(3, 2, 3, 4))
        v_new = rng.normal(size=(3, 2, 3, 4))
        lengths = pools[0].append_batched(1, slots, k_new, v_new)
        for row, slot in enumerate(slots):
            pools[1].append(1, int(slot), k_new[row:row + 1],
                            v_new[row:row + 1])
        np.testing.assert_array_equal(lengths, [5, 10, 8])
        np.testing.assert_array_equal(pools[0].lengths_of(1, slots),
                                      pools[1].lengths_of(1, slots))
        np.testing.assert_array_equal(pools[0].k[1], pools[1].k[1])
        np.testing.assert_array_equal(pools[0].v[1], pools[1].v[1])
        # The other layer is untouched.
        assert not pools[0].k[0].any()

    def test_single_slot_gather_is_a_view(self):
        pool = PackedKVPool(num_layers=1, num_kv_heads=2, head_dim=4,
                            num_slots=3, max_len=16)
        slots = [pool.acquire() for _ in range(3)]
        k = np.ones((1, 2, 5, 4))
        for slot in slots:
            pool.append(0, slot, k, k)
        one, _ = pool.gather(0, [slots[1]], 5, reuse=True)
        assert np.shares_memory(one, pool.k[0])
        two, _ = pool.gather(0, slots[:2], 5, reuse=True)
        assert not np.shares_memory(two, pool.k[0])
        np.testing.assert_array_equal(one[0], two[1])
