"""NumPy transformer implementations of the GPT-NeoX and LLaMA families."""

from .attention import (CausalSelfAttention, KVCache, RotaryEmbedding,
                        flash_attention_forward)
from .checkpoint import (CheckpointCorruptError, load_checkpoint,
                         load_tokenizer, save_checkpoint, save_tokenizer)
from .config import ModelConfig, PRESETS, TABLE_II, preset
from .flops import (GEMMShape, LayerAccounting, layer_accounting,
                    model_flops_per_token, model_training_flops)
from .layers import (Dropout, Embedding, LayerNorm, Linear, Module, Parameter,
                     RMSNorm)
from .mlp import GeluMLP, SwiGLUMLP, build_mlp
from .packed_kv import PackedKVPool, PackedSlotCache
from .speculative import (DRAFT_SOURCES, ModelDraft, NGramDraft,
                          SamplingParams, accept_tokens, draft_model_config,
                          request_rng, sample_token, spec_decode_step,
                          warp_probs)
from .tensor import Tensor, no_grad
from .transformer import GPTModel, TransformerLayer, cross_entropy

__all__ = [
    "CausalSelfAttention", "KVCache", "RotaryEmbedding",
    "flash_attention_forward",
    "PackedKVPool", "PackedSlotCache",
    "ModelConfig", "PRESETS", "TABLE_II", "preset",
    "CheckpointCorruptError", "load_checkpoint", "load_tokenizer",
    "save_checkpoint", "save_tokenizer",
    "GEMMShape", "LayerAccounting", "layer_accounting",
    "model_flops_per_token", "model_training_flops",
    "Dropout", "Embedding", "LayerNorm", "Linear", "Module", "Parameter",
    "RMSNorm", "GeluMLP", "SwiGLUMLP", "build_mlp",
    "Tensor", "no_grad", "GPTModel", "TransformerLayer", "cross_entropy",
    # Speculative decoding and per-request sampling.
    "DRAFT_SOURCES", "ModelDraft", "NGramDraft", "SamplingParams",
    "accept_tokens", "draft_model_config", "request_rng", "sample_token",
    "spec_decode_step", "warp_probs",
]
