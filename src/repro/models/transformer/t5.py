"""T5 encoder-decoder models (Raffel et al., 2020).

The decoder cross-attention consumes the encoder output through an explicit
DAG edge, so the encoder's final hidden state stays alive across the whole
decoder — the characteristic seq2seq memory pattern.
"""

from __future__ import annotations

from ...framework.dtypes import DType
from ...framework.layers import (
    Dropout,
    Embedding,
    Linear,
    MultiHeadSelfAttention,
    RMSNorm,
    make_activation,
)
from ...framework.module import Module
from ...framework.plan import PlanContext
from ...framework.tensor import TensorMeta
from .configs import T5Config  # defined with the published configs, exported here too


class _T5FFN(Module):
    def __init__(self, config: T5Config):
        super().__init__(name="ffn")
        self.norm = self.register_child(RMSNorm(config.dim, name="norm"))
        self.wi = self.register_child(
            Linear(config.dim, config.ffn_dim, bias=False, name="wi")
        )
        self.act = self.register_child(make_activation("relu", name="act"))
        self.wo = self.register_child(
            Linear(config.ffn_dim, config.dim, bias=False, name="wo")
        )

    def plan(self, ctx: PlanContext) -> None:
        entry_id = ctx.current_id
        entry_meta = ctx.current_meta
        self.norm(ctx)
        self.wi(ctx)
        self.act(ctx)
        self.wo(ctx)
        body_id = ctx.current_id
        ctx.add(
            "aten::add",
            output=entry_meta,
            inputs=(entry_id, body_id),
            flops=entry_meta.numel,
        )


class _T5AttentionBlock(Module):
    """Pre-norm (self- or cross-) attention with residual."""

    def __init__(self, config: T5Config, name: str):
        super().__init__(name=name)
        self.norm = self.register_child(RMSNorm(config.dim, name="norm"))
        self.attn = self.register_child(
            MultiHeadSelfAttention(
                config.dim,
                config.num_heads,
                dropout=config.dropout,
                bias=False,
                name="attn",
            )
        )

    def plan(self, ctx: PlanContext, kv_source_op: int | None = None) -> None:
        entry_id = ctx.current_id
        entry_meta = ctx.current_meta
        self.norm(ctx)
        with ctx.module(self.attn.name):
            self.attn.plan(ctx, kv_source_op=kv_source_op)
        body_id = ctx.current_id
        ctx.add(
            "aten::add",
            output=entry_meta,
            inputs=(entry_id, body_id),
            flops=entry_meta.numel,
        )


class T5Model(Module):
    """Encoder-decoder T5 producing (B, T, vocab) logits (tied head)."""

    def __init__(self, config: T5Config):
        super().__init__(name=config.name)
        self.config = config
        self.shared_embed = self.register_child(
            Embedding(config.vocab_size, config.dim, name="shared")
        )
        self.encoder_blocks: list[tuple[_T5AttentionBlock, _T5FFN]] = []
        for index in range(config.num_layers):
            attn = self.register_child(
                _T5AttentionBlock(config, name=f"enc{index}.self_attn")
            )
            ffn = self.register_child(_T5FFN(config))
            ffn.name = f"enc{index}.ffn"
            self.encoder_blocks.append((attn, ffn))
        self.decoder_blocks: list[
            tuple[_T5AttentionBlock, _T5AttentionBlock, _T5FFN]
        ] = []
        for index in range(config.num_layers):
            self_attn = self.register_child(
                _T5AttentionBlock(config, name=f"dec{index}.self_attn")
            )
            cross_attn = self.register_child(
                _T5AttentionBlock(config, name=f"dec{index}.cross_attn")
            )
            ffn = self.register_child(_T5FFN(config))
            ffn.name = f"dec{index}.ffn"
            self.decoder_blocks.append((self_attn, cross_attn, ffn))
        self.final_norm = self.register_child(RMSNorm(config.dim, name="final_norm"))
        self.dropout = (
            self.register_child(Dropout(config.dropout, name="dropout"))
            if config.dropout > 0
            else None
        )

    def input_meta(self, batch_size: int, seq_len: int = 128) -> TensorMeta:
        return TensorMeta((batch_size, seq_len), dtype=DType.int64)

    def plan(self, ctx: PlanContext) -> None:
        config = self.config
        # --- encoder over the source sequence -------------------------
        self.shared_embed(ctx)
        if self.dropout is not None:
            self.dropout(ctx)
        for attn, ffn in self.encoder_blocks:
            attn(ctx)
            ffn(ctx)
        encoder_out_id = ctx.current_id
        encoder_out_meta = ctx.current_meta
        # --- decoder over the target sequence -------------------------
        batch, seq, _ = encoder_out_meta.shape
        # Decoder input ids piggyback on the same batch fetch; embedding
        # lookup starts a fresh chain from the encoder output position.
        ctx.set_current(
            PlanContextInputProxy.INPUT_OP_ID,
            TensorMeta((batch, seq), dtype=DType.int64),
        )
        self.shared_embed(ctx)
        for self_attn, cross_attn, ffn in self.decoder_blocks:
            self_attn(ctx)
            with ctx.module(cross_attn.name):
                cross_attn.plan(ctx, kv_source_op=encoder_out_id)
            ffn(ctx)
        self.final_norm(ctx)
        # Tied LM head: no extra parameters, logits allocated
        ctx.add(
            "aten::mm",
            output=TensorMeta((batch, seq, config.vocab_size)),
            saves_input=True,
            flops=2 * batch * seq * config.dim * config.vocab_size,
        )


class PlanContextInputProxy:
    """Alias for the batch-input pseudo op id (avoids importing PlanContext
    just for the constant)."""

    INPUT_OP_ID = 0
