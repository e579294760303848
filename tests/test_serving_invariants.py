"""Invariants of the serving core's bookkeeping: the counting paged KV
pool against a reference model of per-owner leases, its memory bound,
and identity semantics of ``Request`` in scheduler queues."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.models import preset
from repro.serving import (ClusterConfig, ClusterSimulator,
                           ContinuousBatchScheduler, KVPoolConfig,
                           PagedKVPool, Request)

TINY = preset("tiny-llama")

#: Lease owners: request ids (>= 0) and prefix-cache blocks (< 0).
OWNERS = st.integers(min_value=-3, max_value=4)


class PagedKVPoolMachine(RuleBasedStateMachine):
    """Drive ``PagedKVPool`` beside a dict of per-owner block counts."""

    @initialize(block_size=st.integers(1, 8), num_blocks=st.integers(1, 24))
    def build(self, block_size, num_blocks):
        self.pool = PagedKVPool(TINY, KVPoolConfig(block_size=block_size,
                                                   num_blocks=num_blocks))
        self.leases: dict[int, int] = {}
        self.tokens: dict[int, int] = {}
        self.failures = 0
        self.peak = 0

    def _need(self, tokens: int) -> int:
        return -(-tokens // self.pool.block_size)

    @rule(owner=OWNERS, tokens=st.integers(1, 120))
    def allocate(self, owner, tokens):
        held = self.leases.get(owner, 0)
        fits = self._need(tokens) - held <= self.pool.num_blocks \
            - sum(self.leases.values())
        assert self.pool.can_allocate(owner, tokens) == fits
        assert self.pool.allocate(owner, tokens) == fits
        if not fits:
            # All or nothing: the existing lease is untouched.
            self.failures += 1
            return
        self.leases[owner] = max(held, self._need(tokens))
        self.tokens[owner] = max(self.tokens.get(owner, 0), tokens)

    @rule(owner=OWNERS)
    def free(self, owner):
        assert self.pool.free(owner) == self.leases.pop(owner, 0)
        self.tokens.pop(owner, None)

    @invariant()
    def counts_match_the_model(self):
        pool = self.pool
        used = sum(self.leases.values())
        assert pool.blocks_used == used
        assert pool.blocks_free == pool.num_blocks - used
        assert pool.blocks_free >= 0
        assert pool.alloc_failures == self.failures
        for owner in range(-3, 5):
            assert pool.tokens_of(owner) == self.tokens.get(owner, 0)

    @invariant()
    def peak_is_monotone(self):
        assert self.pool.peak_blocks_used >= self.peak
        assert self.pool.peak_blocks_used >= self.pool.blocks_used
        self.peak = self.pool.peak_blocks_used

    @invariant()
    def fragmentation_is_exact(self):
        slots = sum(self.leases.values()) * self.pool.block_size
        want = 1.0 - sum(self.tokens.values()) / slots if slots else 0.0
        assert self.pool.fragmentation() == pytest.approx(want)


TestPagedKVPoolMachine = PagedKVPoolMachine.TestCase
TestPagedKVPoolMachine.settings = settings(max_examples=60,
                                           stateful_step_count=40,
                                           deadline=None)


class TestPoolMemory:
    def test_hbm_sized_cluster_builds_in_under_a_megabyte(self):
        # 32 replicas, each pool the free HBM of a 64 GB GCD: millions
        # of blocks apiece, which must cost counts, not per-block state.
        ClusterSimulator(TINY, ClusterConfig())  # warm lazy imports
        tracemalloc.start()
        try:
            sim = ClusterSimulator(TINY, ClusterConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sim.replicas[0].pool.num_blocks > 10**6
        assert peak < 2**20

    def test_hbm_sized_pool_leases_and_frees(self):
        pool = PagedKVPool(TINY, KVPoolConfig())
        assert pool.allocate(7, pool.capacity_tokens())
        assert pool.blocks_free == 0
        assert not pool.allocate(8, 1)
        assert pool.free(7) == pool.num_blocks
        assert pool.blocks_used == 0
        assert pool.peak_utilization == 1.0


class TestRequestIdentity:
    @staticmethod
    def _twins():
        """Two distinct requests that agree on every field."""
        return [Request(request_id=3, prompt=np.arange(1, 6),
                        max_new_tokens=4) for _ in range(2)]

    def test_membership_is_identity(self):
        a, b = self._twins()
        # Field-wise equality compared the prompt arrays here and raised
        # "truth value of an array ... is ambiguous".
        assert b not in [a]
        assert a in [a]
        assert a != b and a == a

    def test_remove_takes_the_same_object(self):
        a, b = self._twins()
        queue = [a, b]
        queue.remove(b)
        assert len(queue) == 1 and queue[0] is a

    def test_scheduler_queues_track_objects(self):
        a, b = self._twins()
        pool = PagedKVPool(TINY, KVPoolConfig(block_size=4, num_blocks=8))
        sched = ContinuousBatchScheduler(pool)
        sched.submit(a)
        sched.submit(b)
        sched.admit(now=0.0)
        assert len(sched.running) == 2
        sched.preempt(b)
        assert sched.running == [a] and sched.running[0] is a
        assert sched.waiting[0] is b
