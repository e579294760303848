"""The GPT-NeoX and LLaMA transformer layers and full causal LM.

Layer structure (paper Fig 2):

GPT-NeoX (parallel residual, as in the released GPT-NeoX-20B)::

    x = x + Attn(LN1(x)) + MLP(LN2(x))

LLaMA (sequential pre-norm)::

    x = x + Attn(RMSNorm1(x))
    x = x + MLP(RMSNorm2(x))

Both end with a final norm and a tied output head (logits = h @ E^T).
"""

from __future__ import annotations

import numpy as np

from .attention import CausalSelfAttention, KVCache
from .config import ModelConfig
from .layers import Dropout, Embedding, LayerNorm, Module, RMSNorm
from .mlp import build_mlp
from .tensor import Tensor, no_grad

__all__ = ["TransformerLayer", "GPTModel", "cross_entropy"]


class TransformerLayer(Module):
    """One transformer block of either family."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        h = config.hidden_size
        self.arch = config.arch
        norm_cls = RMSNorm if config.arch == "llama" else LayerNorm
        self.norm1 = norm_cls(h)
        self.norm2 = norm_cls(h)
        self.attn = CausalSelfAttention(
            h, config.num_heads, config.max_seq_len,
            bias=config.arch == "neox", rotary_pct=config.rotary_pct,
            flash=config.flash_attention, num_kv_heads=config.num_kv_heads,
            rng=rng)
        self.mlp = build_mlp(config.arch, h, config.ffn_hidden_size, rng=rng)
        self.dropout = Dropout(config.dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        if self.arch == "neox":
            # Parallel residual: attention and MLP read the same input.
            return x + self.dropout(self.attn(self.norm1(x))) \
                     + self.dropout(self.mlp(self.norm2(x)))
        x = x + self.dropout(self.attn(self.norm1(x)))
        x = x + self.dropout(self.mlp(self.norm2(x)))
        return x

    def forward_infer(self, x: Tensor, attend) -> Tensor:
        """Inference forward (no dropout) around a given attention call.

        ``attend`` maps the normed input to the attention output; the
        model's entry points pass their own KV-cache or pool call.  Norms,
        MLP and residual adds are row-local, so stacking requests keeps
        each row bit-identical to running it alone.
        """
        if self.arch == "neox":
            return x + attend(self.norm1(x)) + self.mlp(self.norm2(x))
        x = x + attend(self.norm1(x))
        return x + self.mlp(self.norm2(x))


class GPTModel(Module):
    """A causal language model in either the NeoX or LLaMA family.

    Parameters
    ----------
    config:
        Architecture description; see :class:`repro.models.config.ModelConfig`.
    seed:
        Seed for deterministic initialization (each layer gets an
        independent stream).

    Examples
    --------
    >>> from repro.models import GPTModel, preset
    >>> model = GPTModel(preset("tiny-llama"), seed=0)
    >>> logits = model(np.zeros((1, 8), dtype=int))
    >>> logits.shape
    (1, 8, 512)
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        super().__init__()
        self.config = config
        root = np.random.default_rng(seed)
        self.embed = Embedding(config.vocab_size, config.hidden_size,
                               rng=np.random.default_rng(root.integers(2**31)))
        self.layers = [
            TransformerLayer(config, rng=np.random.default_rng(root.integers(2**31)))
            for _ in range(config.num_layers)
        ]
        norm_cls = RMSNorm if config.arch == "llama" else LayerNorm
        self.final_norm = norm_cls(config.hidden_size)

    def forward(self, token_ids: np.ndarray) -> Tensor:
        """Return logits of shape (batch, seq, vocab)."""
        ids = np.atleast_2d(np.asarray(token_ids))
        if ids.shape[1] > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {ids.shape[1]} exceeds max_seq_len "
                f"{self.config.max_seq_len}")
        x = self.embed(ids)
        for layer in self.layers:
            x = layer(x)
        x = self.final_norm(x)
        # Tied output head: project back through the embedding matrix.
        return x @ self.embed.weight.swapaxes(0, 1)

    # ------------------------------------------------------------------
    # Inference helpers
    # ------------------------------------------------------------------
    def loglikelihood(self, context: np.ndarray, continuation: np.ndarray
                      ) -> tuple[float, bool]:
        """Log P(continuation | context) and whether it is the greedy choice.

        This is the primitive the evaluation harness (lm-eval style) is
        built on.
        """
        context = np.asarray(context, dtype=np.int64).ravel()
        continuation = np.asarray(continuation, dtype=np.int64).ravel()
        if continuation.size == 0:
            raise ValueError("continuation must be non-empty")
        tokens = np.concatenate([context, continuation])
        if tokens.size > self.config.max_seq_len:
            tokens = tokens[-self.config.max_seq_len:]
        with no_grad():
            logits = self.forward(tokens[None, :-1]).data[0]
        logprobs = logits - _logsumexp(logits)
        n = continuation.size
        targets = tokens[-n:]
        rows = np.arange(logits.shape[0] - n, logits.shape[0])
        ll = float(logprobs[rows, targets].sum())
        greedy = bool((logits[rows].argmax(axis=-1) == targets).all())
        return ll, greedy

    def embed_sequence(self, token_ids: np.ndarray, pooling: str = "mean"
                       ) -> np.ndarray:
        """Final-layer hidden state pooled over positions.

        Used by the scientific downstream task (Fig 3): the embedding of a
        material formula's token sequence.
        """
        ids = np.atleast_2d(np.asarray(token_ids))
        with no_grad():
            x = self.embed(ids)
            for layer in self.layers:
                x = layer(x)
            hidden = self.final_norm(x).data[0]
        if pooling == "mean":
            return hidden.mean(axis=0)
        if pooling == "last":
            return hidden[-1]
        raise ValueError(f"unknown pooling {pooling!r}")

    def generate(self, prompt: np.ndarray, max_new_tokens: int = 16,
                 temperature: float = 0.0,
                 rng: np.random.Generator | None = None,
                 use_cache: bool = False, top_k: int = 0,
                 top_p: float = 1.0,
                 eos_id: int | None = None) -> np.ndarray:
        """Autoregressive decoding.

        ``temperature == 0`` decodes greedily; otherwise samples, with
        optional ``top_k`` truncation and ``top_p`` (nucleus) filtering.
        With ``use_cache=True`` decoding runs incrementally over per-layer
        KV caches — O(n) work per new token instead of re-encoding the
        whole prefix — and produces exactly the same tokens.  If
        ``eos_id`` is given, decoding stops early once that token is
        produced (it is included in the output), so outputs may be
        shorter than ``max_new_tokens`` — the per-request stop condition
        the serving engine relies on.
        """
        if top_k < 0:
            raise ValueError("top_k must be >= 0")
        if not 0.0 < top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        rng = rng or np.random.default_rng(0)
        tokens = list(np.asarray(prompt, dtype=np.int64).ravel())
        if not tokens:
            raise ValueError("prompt must be non-empty")
        budget = self.config.max_seq_len
        if use_cache and len(tokens) + max_new_tokens <= budget:
            caches = [KVCache() for _ in self.layers]
            next_input = np.array(tokens, dtype=np.int64)
            for _ in range(max_new_tokens):
                logits = self._forward_cached(next_input[None], caches)
                nxt = self._pick(logits.data[0, -1], temperature, rng,
                                 top_k, top_p)
                tokens.append(nxt)
                if eos_id is not None and nxt == eos_id:
                    break
                next_input = np.array([nxt], dtype=np.int64)
            return np.array(tokens, dtype=np.int64)
        for _ in range(max_new_tokens):
            window = np.array(tokens[-budget:])
            with no_grad():
                logits = self.forward(window[None]).data[0, -1]
            nxt = self._pick(logits, temperature, rng, top_k, top_p)
            tokens.append(nxt)
            if eos_id is not None and nxt == eos_id:
                break
        return np.array(tokens, dtype=np.int64)

    @staticmethod
    def _pick(logits: np.ndarray, temperature: float,
              rng: np.random.Generator, top_k: int = 0,
              top_p: float = 1.0) -> int:
        """Greedy / temperature / top-k / nucleus sampling."""
        if temperature <= 0.0:
            return int(logits.argmax())
        scaled = (logits - logits.max()) / temperature
        p = np.exp(scaled)
        p /= p.sum()
        if top_k > 0:
            cutoff = np.sort(p)[-min(top_k, p.size)]
            p = np.where(p >= cutoff, p, 0.0)
        if top_p < 1.0:
            order = np.argsort(p)[::-1]
            cum = np.cumsum(p[order])
            keep_n = int(np.searchsorted(cum, top_p) + 1)
            mask = np.zeros_like(p)
            mask[order[:keep_n]] = 1.0
            p = p * mask
        p /= p.sum()
        return int(rng.choice(len(p), p=p))

    def _infer(self, tokens: np.ndarray, attend) -> Tensor:
        """Embed, run every layer around ``attend``, norm and project.

        ``attend(index, attn, x)`` runs layer ``index``'s attention
        module ``attn`` on its normed input ``x``.  Returns (batch, seq,
        vocab) logits.  The model's three inference entry points differ
        only in the attention call they pass.
        """
        with no_grad():
            x = self.embed(np.atleast_2d(tokens))
            for index, layer in enumerate(self.layers):
                x = layer.forward_infer(
                    x, lambda h: attend(index, layer.attn, h))
            x = self.final_norm(x)
            return x @ self.embed.weight.swapaxes(0, 1)

    def _forward_cached(self, token_ids: np.ndarray,
                        caches: list[KVCache]) -> Tensor:
        """One incremental step over per-layer KV caches."""
        return self._infer(token_ids, lambda index, attn, h:
                           attn.forward_cached(h, caches[index]))

    def decode_step_batched(self, last_tokens: np.ndarray, pool, slots
                            ) -> np.ndarray:
        """Advance N requests one token in a single stacked forward.

        ``last_tokens[i]`` is the newest token of the request leasing
        ``slots[i]`` in ``pool`` (a
        :class:`~repro.models.packed_kv.PackedKVPool` whose per-slot
        contexts were filled by prefill through the same pool).  Returns
        next-token logits of shape (batch, vocab), row ``i`` bit-equal
        to ``_forward_cached(last_tokens[i][None], caches_i)`` on every
        config.
        """
        tokens = np.asarray(last_tokens, dtype=np.int64).reshape(-1, 1)
        logits = self._infer(tokens, lambda index, attn, h:
                             attn.forward_decode_batched(h, pool, slots,
                                                         index))
        return logits.data[:, -1, :]

    def verify_step_batched(self, blocks: np.ndarray, pool, slots
                            ) -> np.ndarray:
        """Advance N requests ``span`` positions in a single stacked forward.

        The speculative-decoding verification step: ``blocks[i]`` holds
        the newest accepted token of the request leasing ``slots[i]``
        followed by its drafted candidates (shape ``(batch, span)``).
        All ``span`` positions are appended to each slot — the caller
        rolls rejected suffixes back with ``pool.truncate``.  Returns
        logits of shape (batch, span, vocab): row ``i``, position ``j``
        is the next-token distribution after ``blocks[i, :j + 1]``,
        bit-equal to the sequential cached forward on every config.
        """
        tokens = np.asarray(blocks, dtype=np.int64)
        if tokens.ndim != 2:
            raise ValueError(f"blocks must be 2-D: {tokens.shape}")
        return self._infer(tokens, lambda index, attn, h:
                           attn.forward_verify_batched(h, pool, slots,
                                                       index)).data


def _logsumexp(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token-level cross-entropy of (batch, seq, vocab) logits."""
    targets = np.asarray(targets, dtype=np.int64)
    b, s, v = logits.shape
    logp = logits.log_softmax(axis=-1)
    flat = logp.reshape(b * s, v)
    picked = flat[np.arange(b * s), targets.reshape(-1)]
    return -picked.mean()
