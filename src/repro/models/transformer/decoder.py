"""Decoder-only language models (GPT-2 family, OPT, Pythia, Qwen, Llama…).

One parametric architecture covers every decoder-only model in the paper's
Table 2: the models differ in layer count, width, head configuration
(including grouped-query attention), feed-forward size, positional scheme
(learned vs. rotary), normalization (LayerNorm vs. RMSNorm), and whether
the LM head ties the embedding matrix.
"""

from __future__ import annotations

from ...framework.dtypes import DType
from ...framework.layers import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    MultiHeadSelfAttention,
    PositionalEmbedding,
    RMSNorm,
    make_activation,
)
from ...framework.module import Module
from ...framework.plan import PlanContext
from ...framework.tensor import TensorMeta
from .configs import DecoderConfig  # defined with the published configs, exported here too


def _make_norm(config: DecoderConfig, name: str) -> Module:
    if config.norm == "rmsnorm":
        return RMSNorm(config.dim, name=name)
    return LayerNorm(config.dim, name=name)


class _MLP(Module):
    """Transformer feed-forward: plain (fc-act-fc) or gated (SwiGLU)."""

    def __init__(self, config: DecoderConfig, name: str = "mlp"):
        super().__init__(name=name)
        bias = config.norm == "layernorm"  # modern RMSNorm models drop biases
        self.gated = config.mlp == "gated"
        self.fc_up = self.register_child(
            Linear(config.dim, config.ffn_dim, bias=bias, name="up")
        )
        self.fc_gate = None
        if self.gated:
            self.fc_gate = self.register_child(
                Linear(config.dim, config.ffn_dim, bias=bias, name="gate")
            )
        self.act = self.register_child(
            make_activation(config.activation, name="act")
        )
        self.fc_down = self.register_child(
            Linear(config.ffn_dim, config.dim, bias=bias, name="down")
        )

    def plan(self, ctx: PlanContext) -> None:
        if self.gated and self.fc_gate is not None:
            entry_id = ctx.current_id
            entry_meta = ctx.current_meta
            self.fc_gate(ctx)
            self.act(ctx)
            gate_id = ctx.current_id
            ctx.set_current(entry_id, entry_meta)
            self.fc_up(ctx)
            up_id = ctx.current_id
            up_meta = ctx.current_meta
            ctx.add(
                "aten::mul",
                output=up_meta,
                inputs=(gate_id, up_id),
                saves_input=True,
                flops=up_meta.numel,
            )
        else:
            self.fc_up(ctx)
            self.act(ctx)
        self.fc_down(ctx)


class DecoderBlock(Module):
    """Pre-norm transformer block: norm-attn-residual, norm-mlp-residual."""

    def __init__(self, config: DecoderConfig, index: int):
        super().__init__(name=f"block{index}")
        self.norm1 = self.register_child(_make_norm(config, "norm1"))
        self.attn = self.register_child(
            MultiHeadSelfAttention(
                config.dim,
                config.num_heads,
                num_kv_heads=config.num_kv_heads,
                dropout=config.dropout,
                bias=config.norm == "layernorm",
                name="attn",
            )
        )
        self.norm2 = self.register_child(_make_norm(config, "norm2"))
        self.mlp = self.register_child(_MLP(config))
        self.dropout = (
            self.register_child(Dropout(config.dropout, name="resid_dropout"))
            if config.dropout > 0
            else None
        )

    def plan(self, ctx: PlanContext) -> None:
        entry_id = ctx.current_id
        entry_meta = ctx.current_meta
        self.norm1(ctx)
        self.attn(ctx)
        if self.dropout is not None:
            self.dropout(ctx)
        attn_id = ctx.current_id
        ctx.add(
            "aten::add",
            output=entry_meta,
            inputs=(entry_id, attn_id),
            flops=entry_meta.numel,
        )
        mid_id = ctx.current_id
        mid_meta = ctx.current_meta
        self.norm2(ctx)
        self.mlp(ctx)
        mlp_id = ctx.current_id
        ctx.add(
            "aten::add",
            output=mid_meta,
            inputs=(mid_id, mlp_id),
            flops=mid_meta.numel,
        )


class LMHead(Module):
    """Projection to vocabulary logits; tied heads reuse the embedding."""

    def __init__(self, dim: int, vocab_size: int, tied: bool):
        super().__init__(name="lm_head")
        self.dim = dim
        self.vocab_size = vocab_size
        self.tied = tied
        if not tied:
            self.weight = self.register_param(
                "weight", TensorMeta((vocab_size, dim))
            )

    def plan(self, ctx: PlanContext) -> None:
        x = ctx.current_meta
        batch, seq, _ = x.shape
        ctx.add(
            "aten::mm",
            output=TensorMeta((batch, seq, self.vocab_size)),
            saves_input=True,
            param_bytes=0 if self.tied else self.own_param_bytes(),
            flops=2 * batch * seq * self.dim * self.vocab_size,
        )


class DecoderLM(Module):
    """Complete decoder-only LM producing (B, T, vocab) logits."""

    def __init__(self, config: DecoderConfig):
        super().__init__(name=config.name)
        self.config = config
        self.embed = self.register_child(
            Embedding(config.vocab_size, config.dim, name="embed_tokens")
        )
        self.pos_embed = None
        if config.positional == "learned":
            self.pos_embed = self.register_child(
                PositionalEmbedding(
                    config.max_positions, config.dim, name="embed_positions"
                )
            )
        self.embed_dropout = (
            self.register_child(Dropout(config.dropout, name="embed_dropout"))
            if config.dropout > 0
            else None
        )
        self.blocks = [
            self.register_child(DecoderBlock(config, index))
            for index in range(config.num_layers)
        ]
        self.final_norm = self.register_child(_make_norm(config, "final_norm"))
        self.head = self.register_child(
            LMHead(config.dim, config.vocab_size, tied=config.tie_embeddings)
        )

    def input_meta(self, batch_size: int, seq_len: int = 128) -> TensorMeta:
        seq_len = min(seq_len, self.config.max_positions)
        return TensorMeta((batch_size, seq_len), dtype=DType.int64)

    def plan(self, ctx: PlanContext) -> None:
        self.embed(ctx)
        if self.pos_embed is not None:
            self.pos_embed(ctx)
        if self.embed_dropout is not None:
            self.embed_dropout(ctx)
        for block in self.blocks:
            block(ctx)
        self.final_norm(ctx)
        self.head(ctx)
