"""Packed, slot-based KV storage for batched decoding.

The serving engine's original per-request :class:`~repro.models.attention.KVCache`
kept one pair of ``(1, kv_heads, len, head_dim)`` arrays per request per
layer, rebuilt on every appended token.  :class:`PackedKVPool` replaces
that with *one* contiguous ``(slots, kv_heads, capacity, head_dim)`` K
and V buffer per layer: every in-flight request leases a slot, lengths
are tracked per (layer, slot), and capacity grows geometrically in
block-granular steps shared by all slots — so appending a token is an
in-place write, and a whole decode batch can be gathered into stacked
arrays for a single forward call.

Two access paths cover the two execution styles:

per-slot (:class:`PackedSlotCache`)
    An adapter with the exact ``length``/``append`` protocol of
    ``KVCache``, so ``GPTModel._forward_cached`` (whole or chunked
    prefill) writes straight into the pool.

batched (:meth:`PackedKVPool.append_batched` / :meth:`PackedKVPool.gather`)
    A vectorized append of ``span`` new positions for N slots at once,
    and gathers of the slots that share a context length into stacked
    arrays.  ``CausalSelfAttention``'s inference kernel uses both for
    decode (``span == 1``) and speculative verify.

Buffers are zero-initialized (and zero-grown), and truncation re-zeroes
the discarded tail, so a padded :meth:`PackedKVPool.gather` never
exposes stale or non-finite values beyond a row's length.

Slot leases are *refcounted*: :meth:`PackedKVPool.acquire` hands out a
slot at refcount 1, :meth:`PackedKVPool.retain` adds a reference, and
:meth:`PackedKVPool.release` drops one — the slot only returns to the
free list (and its lengths reset) when the count reaches zero.  This is
what lets the prefix cache share a cached block with any number of
concurrent readers without a copy: a shared slot cannot be recycled out
from under a live reference.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PackedKVPool", "PackedSlotCache"]


class PackedKVPool:
    """Preallocated block-granular K/V storage shared by N decode slots.

    Parameters
    ----------
    num_layers, num_kv_heads, head_dim:
        Cache geometry (GQA-compact: ``num_kv_heads`` may be smaller
        than the model's query head count).
    num_slots:
        Concurrent requests the pool can hold — the serving engine sizes
        this to its ``max_batch_size``.
    max_len:
        Hard per-slot capacity bound (the model's ``max_seq_len``).
    block_tokens:
        Granularity of capacity growth; capacity is always a multiple of
        this (except when clipped to ``max_len``).
    """

    def __init__(self, num_layers: int, num_kv_heads: int, head_dim: int,
                 num_slots: int, max_len: int, block_tokens: int = 16,
                 dtype=np.float64):
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1: {num_layers}")
        if num_kv_heads < 1:
            raise ValueError(f"num_kv_heads must be >= 1: {num_kv_heads}")
        if head_dim < 1:
            raise ValueError(f"head_dim must be >= 1: {head_dim}")
        if num_slots < 1:
            raise ValueError(f"num_slots must be >= 1: {num_slots}")
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1: {max_len}")
        if block_tokens < 1:
            raise ValueError(f"block_tokens must be >= 1: {block_tokens}")
        self.num_layers = num_layers
        self.num_kv_heads = num_kv_heads
        self.head_dim = head_dim
        self.num_slots = num_slots
        self.max_len = max_len
        self.block_tokens = block_tokens
        self.dtype = np.dtype(dtype)
        self.capacity = min(max_len, block_tokens)
        shape = (num_slots, num_kv_heads, self.capacity, head_dim)
        self.k = [np.zeros(shape, dtype=self.dtype)
                  for _ in range(num_layers)]
        self.v = [np.zeros(shape, dtype=self.dtype)
                  for _ in range(num_layers)]
        self._lengths = np.zeros((num_layers, num_slots), dtype=np.int64)
        self._free = list(range(num_slots - 1, -1, -1))
        self._refs = [0] * num_slots
        self.grow_count = 0
        # Reusable gather scratch (see gather(reuse=True)); grown lazily.
        self._scratch_k: np.ndarray | None = None
        self._scratch_v: np.ndarray | None = None

    @classmethod
    def for_model(cls, config, num_slots: int, block_tokens: int = 16,
                  dtype=np.float64) -> "PackedKVPool":
        """Size a pool from a :class:`~repro.models.config.ModelConfig`."""
        return cls(config.num_layers, config.kv_heads, config.head_dim,
                   num_slots, config.max_seq_len, block_tokens=block_tokens,
                   dtype=dtype)

    # -- slot lifecycle -------------------------------------------------
    @property
    def slots_in_use(self) -> int:
        return self.num_slots - len(self._free)

    def acquire(self) -> int:
        """Lease a free slot at refcount 1; lengths start at zero."""
        if not self._free:
            raise RuntimeError(
                f"all {self.num_slots} KV slots are leased")
        slot = self._free.pop()
        self._refs[slot] = 1
        return slot

    def retain(self, slot: int) -> int:
        """Add a reference to a leased slot; returns the new refcount."""
        self._check_slot(slot)
        if self._refs[slot] < 1:
            raise ValueError(f"slot {slot} is not leased")
        self._refs[slot] += 1
        return self._refs[slot]

    def release(self, slot: int) -> int:
        """Drop one reference; returns the remaining refcount.

        The slot returns to the free list (lengths reset) only when the
        last reference is released — a shared slot is never recycled
        while any holder remains.
        """
        self._check_slot(slot)
        if self._refs[slot] < 1:
            raise ValueError(f"slot {slot} is not leased")
        self._refs[slot] -= 1
        if self._refs[slot] == 0:
            self._lengths[:, slot] = 0
            self._free.append(slot)
        return self._refs[slot]

    def refcount(self, slot: int) -> int:
        """Outstanding references on ``slot`` (0 = free)."""
        self._check_slot(slot)
        return self._refs[slot]

    def truncate(self, slot: int, new_len: int) -> None:
        """Shrink a leased slot to ``new_len`` tokens in every layer.

        This is the rollback primitive for speculative decoding: after a
        verify step appends ``k + 1`` candidate positions, the rejected
        suffix is discarded by shrinking the slot's length.  Truncation
        refuses shared slots (refcount > 1) — under
        :class:`~repro.serving.prefix_cache.RadixPrefixCache` sharing,
        other holders would observe their context shrinking under them —
        and the truncated tail is re-zeroed so the padded-``gather``
        invariant (zeros beyond each row's length) keeps holding.
        """
        self._check_slot(slot)
        if self._refs[slot] < 1:
            raise ValueError(f"slot {slot} is not leased")
        if self._refs[slot] > 1:
            raise ValueError(
                f"cannot truncate slot {slot}: shared by "
                f"{self._refs[slot]} holders")
        shortest = int(self._lengths[:, slot].min())
        if not 0 <= new_len <= shortest:
            raise ValueError(
                f"new_len {new_len} outside [0, {shortest}] for slot {slot}")
        for layer in range(self.num_layers):
            old = int(self._lengths[layer, slot])
            if old > new_len:
                self.k[layer][slot, :, new_len:old] = 0.0
                self.v[layer][slot, :, new_len:old] = 0.0
        self._lengths[:, slot] = new_len

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            raise IndexError(
                f"slot {slot} out of range [0, {self.num_slots})")

    # -- length bookkeeping ---------------------------------------------
    def length(self, layer: int, slot: int) -> int:
        return int(self._lengths[layer, slot])

    def lengths_of(self, layer: int, slots) -> np.ndarray:
        """Current lengths of ``slots`` in ``layer`` (copy)."""
        return self._lengths[layer, np.asarray(slots, dtype=np.int64)].copy()

    # -- growth ---------------------------------------------------------
    def _ensure_capacity(self, need: int) -> None:
        """Geometrically grow every layer's buffers to hold ``need``."""
        if need <= self.capacity:
            return
        if need > self.max_len:
            raise ValueError(
                f"context of {need} tokens exceeds max_len {self.max_len}")
        new_cap = max(need, 2 * self.capacity)
        new_cap = -(-new_cap // self.block_tokens) * self.block_tokens
        new_cap = min(new_cap, self.max_len)
        shape = (self.num_slots, self.num_kv_heads, new_cap, self.head_dim)
        for layer in range(self.num_layers):
            k = np.zeros(shape, dtype=self.dtype)
            k[:, :, :self.capacity] = self.k[layer]
            v = np.zeros(shape, dtype=self.dtype)
            v[:, :, :self.capacity] = self.v[layer]
            self.k[layer], self.v[layer] = k, v
        self.capacity = new_cap
        self.grow_count += 1

    # -- writes ----------------------------------------------------------
    def append(self, layer: int, slot: int, k_new: np.ndarray,
               v_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append positions to one slot; returns full-context views.

        ``k_new``/``v_new`` have shape ``(1, kv_heads, seq, head_dim)``
        — the same protocol as ``KVCache.append``, so the sequential
        cached forward writes into the pool unchanged.
        """
        seq = k_new.shape[2]
        offset = int(self._lengths[layer, slot])
        need = offset + seq
        self._ensure_capacity(need)
        self.k[layer][slot, :, offset:need] = k_new[0]
        self.v[layer][slot, :, offset:need] = v_new[0]
        self._lengths[layer, slot] = need
        return (self.k[layer][slot:slot + 1, :, :need],
                self.v[layer][slot:slot + 1, :, :need])

    def append_batched(self, layer: int, slots, k_new: np.ndarray,
                       v_new: np.ndarray) -> np.ndarray:
        """Append ``span`` new positions to each slot; returns new lengths.

        ``k_new``/``v_new`` have shape ``(batch, kv_heads, span,
        head_dim)`` with rows ordered like ``slots`` (distinct slots, at
        any mix of current lengths).  One scatter writes every row.
        """
        index = np.asarray(slots, dtype=np.int64)
        span = k_new.shape[2]
        offsets = self._lengths[layer, index]
        self._ensure_capacity(int(offsets.max()) + span)
        # (batch, span) positions; the indexed view is (batch, span,
        # kv_heads, head_dim).
        cols = offsets[:, None] + np.arange(span)
        self.k[layer][index[:, None], :, cols] = k_new.transpose(0, 2, 1, 3)
        self.v[layer][index[:, None], :, cols] = v_new.transpose(0, 2, 1, 3)
        self._lengths[layer, index] = offsets + span
        return offsets + span

    # -- reads -----------------------------------------------------------
    def gather(self, layer: int, slots, length: int, reuse: bool = False
               ) -> tuple[np.ndarray, np.ndarray]:
        """Stack ``slots``' K/V prefixes into contiguous arrays.

        Returns ``(batch, kv_heads, length, head_dim)`` arrays.  Rows
        whose slot holds fewer than ``length`` tokens are zero beyond
        their length (buffers are zero-initialized).

        With ``reuse=True`` the rows are copied into a pool-owned
        scratch buffer that is grown geometrically and reused across
        steps, and the returned arrays are views into it.  Decode-hot
        callers use this to avoid a fresh ``(batch, kv_heads, length,
        head_dim)`` allocation per layer per step; the views are only
        valid until the next ``reuse=True`` gather or pool write.  A
        single slot needs no copy at all: it comes back as a view of the
        pool's own buffers.
        """
        index = np.asarray(slots, dtype=np.int64)
        if reuse and index.size == 1:
            slot = int(index[0])
            return (self.k[layer][slot:slot + 1, :, :length],
                    self.v[layer][slot:slot + 1, :, :length])
        if not reuse:
            # Single advanced-index copy (fancy index combined with the
            # basic length slice), not a full-capacity copy followed by
            # a second slice copy.
            return (self.k[layer][index, :, :length],
                    self.v[layer][index, :, :length])
        batch = index.size
        if (self._scratch_k is None or self._scratch_k.shape[0] < batch
                or self._scratch_k.shape[2] < length):
            rows = max(batch, (0 if self._scratch_k is None
                               else self._scratch_k.shape[0]))
            cap = max(length, (0 if self._scratch_k is None
                               else 2 * self._scratch_k.shape[2]))
            cap = min(-(-cap // self.block_tokens) * self.block_tokens,
                      self.max_len)
            shape = (rows, self.num_kv_heads, cap, self.head_dim)
            self._scratch_k = np.empty(shape, dtype=self.dtype)
            self._scratch_v = np.empty(shape, dtype=self.dtype)
        out_k = self._scratch_k[:batch, :, :length]
        out_v = self._scratch_v[:batch, :, :length]
        for row, slot in enumerate(index):
            out_k[row] = self.k[layer][slot, :, :length]
            out_v[row] = self.v[layer][slot, :, :length]
        return out_k, out_v

    def export_span(self, slot: int, start: int, end: int
                    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Copy token positions ``[start, end)`` of one slot, per layer.

        Returns ``(k_parts, v_parts)``: lists of ``num_layers`` arrays of
        shape ``(kv_heads, end - start, head_dim)``.  The span must lie
        within the slot's current length in every layer — this is how
        the prefix cache captures a finished prefill's blocks.
        """
        self._check_slot(slot)
        if not 0 <= start < end:
            raise ValueError(f"invalid span [{start}, {end})")
        shortest = int(self._lengths[:, slot].min())
        if end > shortest:
            raise ValueError(
                f"span [{start}, {end}) exceeds slot {slot} length "
                f"{shortest}")
        k_parts = [self.k[layer][slot, :, start:end].copy()
                   for layer in range(self.num_layers)]
        v_parts = [self.v[layer][slot, :, start:end].copy()
                   for layer in range(self.num_layers)]
        return k_parts, v_parts

    def import_span(self, slot: int, start: int, k_parts, v_parts) -> None:
        """Write per-layer K/V segments at token offset ``start``.

        The inverse of :meth:`export_span`: seeds a slot with cached
        prefix KV so the forward pass only has to encode the suffix.
        Writes must be contiguous (``start`` <= current length), and the
        slot's lengths advance to cover the written span.
        """
        self._check_slot(slot)
        if start < 0:
            raise ValueError(f"start must be >= 0: {start}")
        seg = int(k_parts[0].shape[1])
        if seg < 1:
            raise ValueError("span must be non-empty")
        need = start + seg
        if int(self._lengths[:, slot].min()) < start:
            raise ValueError(
                f"non-contiguous import at offset {start} into slot "
                f"{slot} (length {int(self._lengths[:, slot].min())})")
        self._ensure_capacity(need)
        for layer in range(self.num_layers):
            self.k[layer][slot, :, start:need] = k_parts[layer]
            self.v[layer][slot, :, start:need] = v_parts[layer]
            if self._lengths[layer, slot] < need:
                self._lengths[layer, slot] = need

    def slot_caches(self, slot: int) -> list["PackedSlotCache"]:
        """Per-layer cache adapters for the sequential forward path."""
        self._check_slot(slot)
        return [PackedSlotCache(self, layer, slot)
                for layer in range(self.num_layers)]

    # -- accounting ------------------------------------------------------
    def memory_bytes(self, dtype_bytes: int = 2) -> int:
        """Logical (used) bytes across all layers and slots."""
        per_token = 2 * self.num_kv_heads * self.head_dim * dtype_bytes
        return int(self._lengths.sum()) * per_token

    def capacity_bytes(self, dtype_bytes: int = 2) -> int:
        """Allocated bytes across all layers and slots."""
        per_token = 2 * self.num_kv_heads * self.head_dim * dtype_bytes
        return self.num_layers * self.num_slots * self.capacity * per_token


class PackedSlotCache:
    """``KVCache``-shaped view of one (layer, slot) in a pool.

    Exposes exactly the ``length`` / ``append`` protocol that
    ``CausalSelfAttention.forward_cached`` consumes, so prefill (whole
    or chunked) runs through the sequential entry point while its keys
    and values land directly in the packed pool.
    """

    def __init__(self, pool: PackedKVPool, layer: int, slot: int):
        self.pool = pool
        self.layer = layer
        self.slot = slot

    @property
    def length(self) -> int:
        return self.pool.length(self.layer, self.slot)

    def append(self, k_new: np.ndarray, v_new: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        return self.pool.append(self.layer, self.slot, k_new, v_new)

    def memory_bytes(self, dtype_bytes: int = 2) -> int:
        """Logical bytes of this slot's cache in this layer."""
        return 2 * self.pool.num_kv_heads * self.pool.head_dim \
            * self.length * dtype_bytes
