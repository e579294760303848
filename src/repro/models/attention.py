"""Multi-head causal self-attention with rotary position embeddings.

The attention layer is *identical* between GPT-NeoX and LLaMA (the paper's
Fig 2 stresses this), so a single implementation serves both stacks.

Training and evaluation (:meth:`CausalSelfAttention.forward`) run on
autograd Tensors along one of two paths:

``standard``
    Materializes the full (seq, seq) score matrix — O(n^2) memory.

``flash``
    A tiled, online-softmax evaluation in the style of FlashAttention
    v1/v2: queries are processed in blocks against key/value tiles with a
    running (max, sum) rescaling, so the full score matrix never exists.
    Numerically this matches the standard path to ~1e-10; its purpose here
    is (a) to be the genuine algorithm, and (b) to drive the memory model
    in :mod:`repro.frontier.memory` (Fig 5).

The flash path is forward-only (evaluation); training falls back to the
standard autodiff path, mirroring early ROCm flash-attention support
maturity described in the paper.

Inference runs one exact kernel on raw arrays,
:meth:`CausalSelfAttention._infer`, whatever the config's flash setting.
Prefill, chunked prefill, decode and speculative verify are the same
operation: each batch row is ``span`` new positions after a cached
prefix of ``offsets[i]`` tokens.  The entry points differ only in where
the cached keys and values live: :meth:`~CausalSelfAttention.forward_cached`
takes one request's per-layer cache, and
:meth:`~CausalSelfAttention.forward_verify_batched` (alias
``forward_decode_batched``) takes slots of a packed KV pool.
"""

from __future__ import annotations

import numpy as np

from .layers import Linear, Module
from .tensor import Tensor

__all__ = ["RotaryEmbedding", "CausalSelfAttention", "KVCache",
           "flash_attention_forward"]


class RotaryEmbedding:
    """Rotary position embedding (RoPE, Su et al. 2021).

    Precomputes cos/sin tables for a maximum sequence length; both NeoX and
    LLaMA variants in the paper use rotary embeddings instead of GPT-3's
    absolute learned positions.
    """

    def __init__(self, head_dim: int, max_seq_len: int, base: float = 10000.0,
                 rotary_pct: float = 1.0):
        if head_dim % 2 != 0:
            raise ValueError(f"rotary head_dim must be even: {head_dim}")
        self.head_dim = head_dim
        self.rotary_dim = int(head_dim * rotary_pct) // 2 * 2
        inv_freq = 1.0 / (base ** (np.arange(0, self.rotary_dim, 2) / self.rotary_dim))
        t = np.arange(max_seq_len)
        freqs = np.outer(t, inv_freq)  # (seq, rotary_dim/2)
        emb = np.concatenate([freqs, freqs], axis=-1)
        self.cos = np.cos(emb)  # (seq, rotary_dim)
        self.sin = np.sin(emb)

    @staticmethod
    def _rotate_half(x: Tensor) -> Tensor:
        half = x.shape[-1] // 2
        x1 = x[..., :half]
        x2 = x[..., half:]
        return Tensor.concatenate([-x2, x1], axis=-1)

    def apply(self, x: Tensor, seq_len: int) -> Tensor:
        """Rotate the leading ``rotary_dim`` channels of ``x``.

        ``x`` has shape (batch, heads, seq, head_dim) at positions
        ``0 .. seq_len - 1``; the autograd path of training and
        evaluation.  Inference rotates raw arrays with :meth:`rotate`.
        """
        if seq_len > self.cos.shape[0]:
            raise ValueError(
                f"positions up to {seq_len} exceed rotary table "
                f"({self.cos.shape[0]})")
        rd = self.rotary_dim
        cos = Tensor(self.cos[:seq_len])
        sin = Tensor(self.sin[:seq_len])
        if rd == x.shape[-1]:
            return x * cos + self._rotate_half(x) * sin
        x_rot = x[..., :rd]
        x_pass = x[..., rd:]
        rotated = x_rot * cos + self._rotate_half(x_rot) * sin
        return Tensor.concatenate([rotated, x_pass], axis=-1)

    def rotate(self, x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Rotate raw arrays at per-row absolute positions (inference).

        ``x`` has shape (batch, heads, span, head_dim); row ``i`` covers
        positions ``offsets[i] .. offsets[i] + span - 1``.  The op
        sequence is :meth:`apply`'s, and rotation is elementwise, so each
        row is bit-identical to rotating it alone at its own offset.
        """
        positions = (np.asarray(offsets, dtype=np.int64)[:, None]
                     + np.arange(x.shape[2]))
        top = int(positions.max()) + 1
        if top > self.cos.shape[0]:
            raise ValueError(
                f"positions up to {top} exceed rotary table "
                f"({self.cos.shape[0]})")
        rd = self.rotary_dim
        cos = self.cos[positions][:, None]  # (batch, 1, span, rd)
        sin = self.sin[positions][:, None]
        half = rd // 2

        def rotate_half(t: np.ndarray) -> np.ndarray:
            return np.concatenate([-t[..., half:], t[..., :half]], axis=-1)

        if rd == x.shape[-1]:
            return x * cos + rotate_half(x) * sin
        x_rot, x_pass = x[..., :rd], x[..., rd:]
        return np.concatenate(
            [x_rot * cos + rotate_half(x_rot) * sin, x_pass], axis=-1)


def flash_attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                            block_size: int = 64, causal: bool = True,
                            ) -> np.ndarray:
    """Tiled online-softmax attention (FlashAttention-style), forward only.

    Parameters
    ----------
    q, k, v:
        Arrays of shape (batch, heads, seq, head_dim).
    block_size:
        Tile edge for both the query and key/value loops.  On real hardware
        this is chosen to fit SRAM/LDS; here it only affects the working-set
        size, never the result.

    Returns
    -------
    np.ndarray with the same shape as ``q``.

    Notes
    -----
    Implements the rescaling recurrence of Dao et al. 2022: per query block
    a running row-max ``m`` and normalizer ``l`` are maintained, and the
    accumulated output is rescaled whenever a new tile raises the max.
    Peak temporary memory is O(block^2) per (batch, head) instead of
    O(seq^2).
    """
    b, h, n, d = q.shape
    scale = 1.0 / np.sqrt(d)
    out = np.zeros_like(q)
    m = np.full((b, h, n, 1), -np.inf)
    l = np.zeros((b, h, n, 1))

    for j0 in range(0, n, block_size):
        j1 = min(j0 + block_size, n)
        k_tile = k[:, :, j0:j1]
        v_tile = v[:, :, j0:j1]
        # Query rows that can see any of this key tile.
        i_start = j0 if causal else 0
        for i0 in range(i_start, n, block_size):
            i1 = min(i0 + block_size, n)
            q_tile = q[:, :, i0:i1]
            scores = (q_tile @ np.swapaxes(k_tile, -1, -2)) * scale
            if causal:
                qi = np.arange(i0, i1)[:, None]
                kj = np.arange(j0, j1)[None, :]
                scores = np.where(kj > qi, -np.inf, scores)
            tile_max = scores.max(axis=-1, keepdims=True)
            m_old = m[:, :, i0:i1]
            m_new = np.maximum(m_old, tile_max)
            # exp(-inf - -inf) would be nan for fully-masked rows; those
            # rows have tile_max == -inf and contribute nothing.
            safe_m = np.where(np.isinf(m_new), 0.0, m_new)
            p = np.exp(np.where(np.isinf(scores) & (scores < 0), -np.inf,
                                scores) - safe_m)
            p = np.where(np.isinf(scores) & (scores < 0), 0.0, p)
            alpha = np.where(np.isinf(m_old), 0.0, np.exp(m_old - safe_m))
            l[:, :, i0:i1] = alpha * l[:, :, i0:i1] + p.sum(axis=-1, keepdims=True)
            out[:, :, i0:i1] = alpha * out[:, :, i0:i1] + p @ v_tile
            m[:, :, i0:i1] = m_new

    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(l > 0, out / l, 0.0)
    return out


class CausalSelfAttention(Module):
    """Rotary multi-head causal self-attention (shared NeoX/LLaMA layer)."""

    def __init__(self, hidden_size: int, num_heads: int, max_seq_len: int,
                 bias: bool = True, rotary_pct: float = 1.0,
                 flash: int = 0, num_kv_heads: int | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if hidden_size % num_heads != 0:
            raise ValueError("hidden_size must divide evenly into heads")
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.num_heads = num_heads
        self.head_dim = hidden_size // num_heads
        # Grouped-query attention (LLaMA-2): fewer K/V heads, each shared
        # by num_heads / num_kv_heads query heads.
        self.num_kv_heads = num_kv_heads if num_kv_heads is not None \
            else num_heads
        if self.num_kv_heads < 1 or num_heads % self.num_kv_heads:
            raise ValueError(
                f"num_kv_heads ({self.num_kv_heads}) must divide "
                f"num_heads ({num_heads})")
        self.flash = flash
        kv_dim = self.num_kv_heads * self.head_dim
        self.qkv = Linear(hidden_size, hidden_size + 2 * kv_dim, bias=bias,
                          rng=rng)
        self.out_proj = Linear(hidden_size, hidden_size, bias=bias, rng=rng)
        self.rotary = RotaryEmbedding(self.head_dim, max_seq_len,
                                      rotary_pct=rotary_pct)

    def _split_heads(self, x: Tensor, seq: int, batch: int, heads: int
                     ) -> Tensor:
        return (x.reshape(batch, seq, heads, self.head_dim)
                 .transpose(0, 2, 1, 3))

    def _expand_kv(self, x):
        """Repeat K/V heads to match the query head count (GQA).

        Takes Tensors (training) or raw arrays (inference); query head
        ``j`` reads K/V head ``j % num_kv_heads`` either way.
        """
        groups = self.num_heads // self.num_kv_heads
        if groups == 1:
            return x
        if isinstance(x, Tensor):
            return Tensor.concatenate([x] * groups, axis=1)
        return np.concatenate([x] * groups, axis=1)

    def forward(self, x: Tensor) -> Tensor:
        batch, seq, _ = x.shape
        h = self.hidden_size
        kv_dim = self.num_kv_heads * self.head_dim
        qkv = self.qkv(x)
        q = self._split_heads(qkv[..., :h], seq, batch, self.num_heads)
        k = self._split_heads(qkv[..., h:h + kv_dim], seq, batch,
                              self.num_kv_heads)
        v = self._split_heads(qkv[..., h + kv_dim:], seq, batch,
                              self.num_kv_heads)

        q = self.rotary.apply(q, seq)
        k = self.rotary.apply(k, seq)
        k = self._expand_kv(k)
        v = self._expand_kv(v)

        if self.flash and not self.training:
            ctx = Tensor(flash_attention_forward(q.data, k.data, v.data))
        else:
            scale = 1.0 / np.sqrt(self.head_dim)
            scores = (q @ k.swapaxes(-1, -2)) * scale
            mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
            scores = scores.masked_fill(mask, -1e30)
            probs = scores.softmax(axis=-1)
            ctx = probs @ v

        merged = ctx.transpose(0, 2, 1, 3).reshape(batch, seq, self.hidden_size)
        return self.out_proj(merged)

    def forward_cached(self, x: Tensor, cache: "KVCache") -> Tensor:
        """Attend ``x``'s new positions over one request's KV cache.

        ``cache`` is a :class:`KVCache` or a pool slot's
        :class:`~repro.models.packed_kv.PackedSlotCache`; the new
        positions are appended to it.  With GQA the cache stores the
        compact K/V heads (the whole point of LLaMA-2's tweak: a
        ``num_heads / num_kv_heads``-fold smaller inference cache).
        """
        offsets = np.full(x.shape[0], cache.length, dtype=np.int64)

        def write(k_new: np.ndarray, v_new: np.ndarray):
            # Every row shares the cache's offset: one group, all rows.
            k_all, v_all = cache.append(k_new, v_new)
            return lambda rows, total: (k_all, v_all)
        return self._infer(x, offsets, write)

    def forward_verify_batched(self, x: Tensor, pool, slots, layer: int
                               ) -> Tensor:
        """Attend ``span`` new positions per slot over a packed KV pool.

        ``x`` has shape (batch, span, hidden); row ``i`` continues the
        request leasing ``slots[i]`` in ``pool`` (a
        :class:`~repro.models.packed_kv.PackedKVPool`), whose ``layer``
        context already holds that request's previous positions.  All
        ``span`` positions are appended; speculative verify rolls a
        rejected suffix back with ``pool.truncate``.  Decode is the
        ``span == 1`` case.
        """
        index = np.asarray(slots, dtype=np.int64)
        offsets = pool.lengths_of(layer, index)

        def write(k_new: np.ndarray, v_new: np.ndarray):
            pool.append_batched(layer, index, k_new, v_new)
            return lambda rows, total: pool.gather(layer, index[rows], total,
                                                   reuse=True)
        return self._infer(x, offsets, write)

    forward_decode_batched = forward_verify_batched

    def _infer(self, x: Tensor, offsets: np.ndarray, write) -> Tensor:
        """The inference attention kernel, on raw arrays.

        Row ``i`` of ``x`` (batch, span, hidden) holds ``span`` new
        positions after a cached prefix of ``offsets[i]`` tokens.
        ``write(k_new, v_new)`` stores the rotated new keys and values
        and returns ``context(rows, total)``, which yields the first
        ``total`` cached positions of ``rows`` as
        (rows, kv_heads, total, head_dim) arrays.

        Rows are grouped by offset, and each group runs one stacked,
        unpadded attention call.  Per-slice matmuls and elementwise ops
        make every row bit-identical to running it alone; padding short
        rows would not be, since BLAS rounding depends on the reduction
        length.  A one-position span is the newest position and sees its
        whole context, so the causal mask applies only when ``span > 1``.
        """
        batch, span, _ = x.shape
        h, d = self.hidden_size, self.head_dim
        kv_dim = self.num_kv_heads * d
        qkv = self.qkv(x).data

        def split(t: np.ndarray, heads: int) -> np.ndarray:
            return t.reshape(batch, span, heads, d).transpose(0, 2, 1, 3)

        # Q and K heads are adjacent in the fused projection: one rotation.
        qk = self.rotary.rotate(
            split(qkv[..., :h + kv_dim], self.num_heads + self.num_kv_heads),
            offsets)
        q = qk[:, :self.num_heads]
        context = write(qk[:, self.num_heads:],
                        split(qkv[..., h + kv_dim:], self.num_kv_heads))

        ctx = np.empty_like(q)
        scale = 1.0 / np.sqrt(d)
        groups = np.unique(offsets)
        for n in groups:
            rows = (np.nonzero(offsets == n)[0] if groups.size > 1
                    else slice(None))
            total = int(n) + span
            k, v = context(rows, total)
            scores = (q[rows] @ np.swapaxes(self._expand_kv(k), -1, -2)) \
                * scale
            if span > 1:
                qi = np.arange(int(n), total)[:, None]
                scores = np.where(np.arange(total) > qi, -1e30, scores)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            ctx[rows] = (e / e.sum(axis=-1, keepdims=True)) \
                @ self._expand_kv(v)
        merged = (Tensor(ctx).transpose(0, 2, 1, 3)
                  .reshape(batch, span, self.hidden_size))
        return self.out_proj(merged)


class KVCache:
    """Per-layer key/value cache for incremental decoding.

    Storage grows geometrically (amortized O(1) per appended token) rather
    than reallocating via ``np.concatenate`` every call, which made long
    generations O(n²) in copied bytes.  ``memory_bytes`` reports *logical*
    (used) bytes; the allocated footprint is ``capacity_bytes``.
    """

    def __init__(self) -> None:
        self.k: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._length = 0

    @property
    def length(self) -> int:
        return self._length

    @property
    def capacity(self) -> int:
        return 0 if self.k is None else self.k.shape[2]

    def append(self, k_new: np.ndarray, v_new: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Append new positions; returns views of the full (k, v) prefix."""
        seq = k_new.shape[2]
        need = self._length + seq
        if self.k is None:
            self.k = np.ascontiguousarray(k_new)
            self.v = np.ascontiguousarray(v_new)
        else:
            if need > self.capacity:
                new_cap = max(need, 2 * self.capacity)
                b, heads, _, d = self.k.shape
                k = np.zeros((b, heads, new_cap, d), dtype=self.k.dtype)
                k[:, :, :self._length] = self.k[:, :, :self._length]
                v = np.zeros((b, heads, new_cap, d), dtype=self.v.dtype)
                v[:, :, :self._length] = self.v[:, :, :self._length]
                self.k, self.v = k, v
            self.k[:, :, self._length:need] = k_new
            self.v[:, :, self._length:need] = v_new
        self._length = need
        return self.k[:, :, :need], self.v[:, :, :need]

    def truncate(self, new_len: int) -> None:
        """Shrink the cache to ``new_len`` positions (rollback primitive).

        Replaces ad-hoc ``_length`` writes: the discarded tail is
        re-zeroed so capacity beyond the logical length never exposes
        stale values, matching the pool-side
        :meth:`~repro.models.packed_kv.PackedKVPool.truncate` contract.
        """
        if not 0 <= new_len <= self._length:
            raise ValueError(
                f"new_len {new_len} outside [0, {self._length}]")
        if self.k is not None and new_len < self._length:
            self.k[:, :, new_len:self._length] = 0.0
            self.v[:, :, new_len:self._length] = 0.0
        self._length = new_len

    def memory_bytes(self, dtype_bytes: int = 2) -> int:
        """Logical cache footprint — GQA's inference saving is visible here."""
        if self.k is None:
            return 0
        b, heads, _, d = self.k.shape
        return dtype_bytes * 2 * b * heads * self._length * d

    def capacity_bytes(self, dtype_bytes: int = 2) -> int:
        """Allocated footprint (>= :meth:`memory_bytes` after growth)."""
        if self.k is None:
            return 0
        return dtype_bytes * (self.k.size + self.v.size)
