"""Published architecture configurations for the paper's transformer zoo.

Hyperparameters follow each model's released config (HuggingFace model
cards); parameter counts land within a few percent of the published sizes,
which is what the memory experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class DecoderConfig:
    """Architecture hyperparameters of a decoder-only LM."""

    name: str
    vocab_size: int
    dim: int
    num_layers: int
    num_heads: int
    ffn_dim: int
    max_positions: int = 2048
    num_kv_heads: Optional[int] = None
    activation: str = "gelu"
    norm: str = "layernorm"  # "layernorm" | "rmsnorm"
    positional: str = "learned"  # "learned" | "rope"
    tie_embeddings: bool = True
    dropout: float = 0.1
    #: SwiGLU-style MLPs have gate+up projections (Llama/Qwen); "plain" has
    #: a single up projection (GPT-2).
    mlp: str = "plain"  # "plain" | "gated"

    def __post_init__(self) -> None:
        if self.norm not in ("layernorm", "rmsnorm"):
            raise ValueError(f"unknown norm {self.norm!r}")
        if self.positional not in ("learned", "rope"):
            raise ValueError(f"unknown positional {self.positional!r}")
        if self.mlp not in ("plain", "gated"):
            raise ValueError(f"unknown mlp {self.mlp!r}")


@dataclass(frozen=True)
class T5Config:
    """Architecture hyperparameters of a T5 model."""

    name: str
    vocab_size: int
    dim: int
    num_layers: int  # per stack (encoder and decoder each)
    num_heads: int
    ffn_dim: int
    dropout: float = 0.1


DISTILGPT2 = DecoderConfig(
    name="distilgpt2",
    vocab_size=50257,
    dim=768,
    num_layers=6,
    num_heads=12,
    ffn_dim=3072,
    max_positions=1024,
)

GPT2 = DecoderConfig(
    name="gpt2",
    vocab_size=50257,
    dim=768,
    num_layers=12,
    num_heads=12,
    ffn_dim=3072,
    max_positions=1024,
)

GPT_NEO_125M = DecoderConfig(
    name="gpt-neo-125M",
    vocab_size=50257,
    dim=768,
    num_layers=12,
    num_heads=12,
    ffn_dim=3072,
    max_positions=2048,
)

OPT_125M = DecoderConfig(
    name="opt-125m",
    vocab_size=50272,
    dim=768,
    num_layers=12,
    num_heads=12,
    ffn_dim=3072,
    max_positions=2048,
    activation="relu",
)

OPT_350M = DecoderConfig(
    name="opt-350m",
    vocab_size=50272,
    dim=1024,
    num_layers=24,
    num_heads=16,
    ffn_dim=4096,
    max_positions=2048,
    activation="relu",
)

CEREBRAS_GPT_111M = DecoderConfig(
    name="Cerebras-GPT-111M",
    vocab_size=50257,
    dim=768,
    num_layers=10,
    num_heads=12,
    ffn_dim=3072,
    max_positions=2048,
)

PYTHIA_1B = DecoderConfig(
    name="pythia-1b",
    vocab_size=50304,
    dim=2048,
    num_layers=16,
    num_heads=8,
    ffn_dim=8192,
    max_positions=2048,
    positional="rope",
    tie_embeddings=False,
    dropout=0.0,
)

QWEN3_0_6B = DecoderConfig(
    name="Qwen3-0.6B",
    vocab_size=151936,
    dim=1024,
    num_layers=28,
    num_heads=16,
    num_kv_heads=8,
    ffn_dim=3072,
    max_positions=4096,
    activation="silu",
    norm="rmsnorm",
    positional="rope",
    mlp="gated",
    dropout=0.0,
)

LLAMA_3_2_3B = DecoderConfig(
    name="Llama-3.2-3B-Instruct",
    vocab_size=128256,
    dim=3072,
    num_layers=28,
    num_heads=24,
    num_kv_heads=8,
    ffn_dim=8192,
    max_positions=4096,
    activation="silu",
    norm="rmsnorm",
    positional="rope",
    mlp="gated",
    dropout=0.0,
)

DEEPSEEK_R1_DISTILL_QWEN_1_5B = DecoderConfig(
    name="DeepSeek-R1-Distill-Qwen-1.5B",
    vocab_size=151936,
    dim=1536,
    num_layers=28,
    num_heads=12,
    num_kv_heads=2,
    ffn_dim=8960,
    max_positions=4096,
    activation="silu",
    norm="rmsnorm",
    positional="rope",
    mlp="gated",
    dropout=0.0,
)

QWEN3_4B = DecoderConfig(
    name="Qwen3-4B",
    vocab_size=151936,
    dim=2560,
    num_layers=36,
    num_heads=32,
    num_kv_heads=8,
    ffn_dim=9728,
    max_positions=4096,
    activation="silu",
    norm="rmsnorm",
    positional="rope",
    mlp="gated",
    dropout=0.0,
)

T5_SMALL = T5Config(
    name="t5-small",
    vocab_size=32128,
    dim=512,
    num_layers=6,
    num_heads=8,
    ffn_dim=2048,
)

T5_BASE = T5Config(
    name="t5-base",
    vocab_size=32128,
    dim=768,
    num_layers=12,
    num_heads=12,
    ffn_dim=3072,
)
