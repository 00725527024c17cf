"""Model assembly: embedding, ordered block stack, final norm, unembedding.

ModelSpec owns the parameters. Blocks execute strictly in list order; the
per-block trainable mask is what the optimizer and freezing logic consult.
Parameter walking yields (path, array) pairs with stable dotted names used
by gradients, optimizer state, checkpoints and accounting alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import (
    BatchNorm,
    HeadwiseBank,
    LinearMemoryBank,
    MemoryBlockParams,
    PkmBank,
    memory_block_forward,
)
from .memory import ValueCache, build_value_cache
from .numerics import assert_finite, gaussian, ones
from .transformer import (
    AttentionParams,
    FfnParams,
    TransformerBlockParams,
    rms_norm_fwd,
    transformer_block_forward,
)


@dataclass
class ModelSpec:
    vocab: int
    d: int
    heads: int
    d_ff: int
    base_depth: int  # depth of the original stack before any insertion
    embed: np.ndarray  # [vocab, d]
    unembed: np.ndarray  # [d, vocab]
    final_gain: np.ndarray  # [d]
    blocks: list = field(default_factory=list)
    trainable: list = field(default_factory=list)  # per-block bool mask

    def __post_init__(self):
        if len(self.blocks) != len(self.trainable):
            raise ValueError("trainable mask length must match block count")


def init_attention(d: int, heads: int, rng, with_projection: bool = True,
                   rope_base: float = 10000.0) -> AttentionParams:
    std = 1.0 / np.sqrt(d)
    return AttentionParams(
        w_q=gaussian(rng, (d, d), std),
        w_k=gaussian(rng, (d, d), std),
        w_v=gaussian(rng, (d, d), std),
        w_o=gaussian(rng, (d, d), std) if with_projection else None,
        heads=heads,
        rope_base=rope_base,
    )


def init_transformer_block(d: int, heads: int, d_ff: int, rng) -> TransformerBlockParams:
    return TransformerBlockParams(
        attn=init_attention(d, heads, rng),
        ffn=FfnParams(
            w_gate=gaussian(rng, (d, d_ff), 1.0 / np.sqrt(d)),
            w_up=gaussian(rng, (d, d_ff), 1.0 / np.sqrt(d)),
            w_down=gaussian(rng, (d_ff, d), 1.0 / np.sqrt(d_ff)),
        ),
        attn_gain=ones(d),
        ffn_gain=ones(d),
    )


def init_base_model(vocab: int, d: int, heads: int, d_ff: int, depth: int,
                    rng) -> ModelSpec:
    if d % heads != 0:
        raise ValueError(f"d={d} not divisible by heads={heads}")
    blocks = [init_transformer_block(d, heads, d_ff, rng) for _ in range(depth)]
    return ModelSpec(
        vocab=vocab, d=d, heads=heads, d_ff=d_ff, base_depth=depth,
        embed=gaussian(rng, (vocab, d), 1.0 / np.sqrt(d)),
        unembed=gaussian(rng, (d, vocab), 1.0 / np.sqrt(d)),
        final_gain=ones(d),
        blocks=blocks,
        trainable=[True] * depth,
    )


def model_forward(tokens: np.ndarray, model: ModelSpec, training: bool = False,
                  value_caches: dict[int, ValueCache] | None = None,
                  collect: bool = False):
    """Run token sequences through the stack; returns (logits, caches).

    tokens: one sequence [s] or B equal-length sequences [B, s]. Every
    per-token op (norms, projections, FFN, retrieval, unembedding) runs once
    over the B*s token rows; only causal attention and query batchnorm group
    the rows by sequence. logits: [s, V] or [B, s, V].

    caches is None unless collect=True; its activations are row-major over
    the B*s rows (memory idx/w [B*s, H, k], so [s, H, k] for one sequence).
    value_caches maps block index to a pre-built value cache for headwise
    memory blocks (inference only).
    """
    tokens = np.asarray(tokens)
    if tokens.ndim not in (1, 2) or tokens.size == 0:
        raise ValueError(f"expected tokens [s] or [B, s] with s, B >= 1, "
                         f"got shape {tokens.shape}")
    if np.any(tokens < 0) or np.any(tokens >= model.vocab):
        raise ValueError("token id out of vocab range")
    seq_len = tokens.shape[-1]
    flat = tokens.reshape(-1)
    x = model.embed[flat]  # [B*s, d]
    block_caches = []
    for i, block in enumerate(model.blocks):
        if isinstance(block, TransformerBlockParams):
            x, cache = transformer_block_forward(x, block, seq_len=seq_len)
        elif isinstance(block, MemoryBlockParams):
            vc = value_caches.get(i) if value_caches else None
            x, cache = memory_block_forward(x, block, training=training, value_cache=vc,
                                            seq_len=seq_len)
        else:
            raise TypeError(f"unknown block type {type(block).__name__}")
        if collect:
            block_caches.append(cache)
    xf, final_cache = rms_norm_fwd(x, model.final_gain)
    logits = xf @ model.unembed
    assert_finite(logits, "logits")
    logits = logits.reshape(tokens.shape + (model.vocab,))
    if not collect:
        return logits, None
    caches = {"tokens": flat, "blocks": block_caches, "final": final_cache, "xf": xf}
    return logits, caches


def build_value_caches(model: ModelSpec) -> dict[int, ValueCache]:
    """Pre-transform value tables of every headwise memory block for inference."""
    caches = {}
    for i, block in enumerate(model.blocks):
        if isinstance(block, MemoryBlockParams) and isinstance(block.bank, HeadwiseBank):
            caches[i] = build_value_cache(block.bank.values)
    return caches


# ---------------------------------------------------------------------------
# parameter walking

def _attn_params(prefix: str, p: AttentionParams):
    yield f"{prefix}.w_q", p.w_q
    yield f"{prefix}.w_k", p.w_k
    yield f"{prefix}.w_v", p.w_v
    if p.w_o is not None:
        yield f"{prefix}.w_o", p.w_o


def _block_params(prefix: str, block):
    if isinstance(block, TransformerBlockParams):
        yield from _attn_params(f"{prefix}.attn", block.attn)
        yield f"{prefix}.attn_gain", block.attn_gain
        yield f"{prefix}.ffn.w_gate", block.ffn.w_gate
        yield f"{prefix}.ffn.w_up", block.ffn.w_up
        yield f"{prefix}.ffn.w_down", block.ffn.w_down
        yield f"{prefix}.ffn_gain", block.ffn_gain
        return
    yield from _attn_params(f"{prefix}.attn", block.attn)
    yield f"{prefix}.norm_gain", block.norm_gain
    bank = block.bank
    if isinstance(bank, LinearMemoryBank):
        yield f"{prefix}.bank.w_q", bank.w_q
        yield f"{prefix}.bank.keys", bank.keys
        yield f"{prefix}.bank.values", bank.values
    elif isinstance(bank, PkmBank):
        yield f"{prefix}.bank.w_q", bank.w_q
        yield f"{prefix}.bank.pk.k_row", bank.pk.k_row
        yield f"{prefix}.bank.pk.k_col", bank.pk.k_col
        yield f"{prefix}.bank.values", bank.values
    elif isinstance(bank, HeadwiseBank):
        yield f"{prefix}.bank.pk.k_row", bank.pk.k_row
        yield f"{prefix}.bank.pk.k_col", bank.pk.k_col
        yield f"{prefix}.bank.values.v_base", bank.values.v_base
        yield f"{prefix}.bank.values.w_heads", bank.values.w_heads
    else:
        raise TypeError(f"unknown bank type {type(bank).__name__}")
    if block.query_bn is not None:
        yield f"{prefix}.query_bn.gamma", block.query_bn.gamma
        yield f"{prefix}.query_bn.beta", block.query_bn.beta
    if block.query_ln_gain is not None:
        yield f"{prefix}.query_ln_gain", block.query_ln_gain


def named_params(model: ModelSpec):
    """Learnable parameters as (dotted path, array), in a stable order."""
    yield "embed", model.embed
    yield "unembed", model.unembed
    yield "final_gain", model.final_gain
    for i, block in enumerate(model.blocks):
        yield from _block_params(f"blocks.{i}", block)


def named_buffers(model: ModelSpec):
    """Non-learnable state that checkpoints must still carry (BN statistics)."""
    for i, block in enumerate(model.blocks):
        if isinstance(block, MemoryBlockParams) and block.query_bn is not None:
            yield f"blocks.{i}.query_bn.running_mean", block.query_bn.running_mean
            yield f"blocks.{i}.query_bn.running_var", block.query_bn.running_var


def param_count_total(model: ModelSpec) -> int:
    return sum(int(arr.size) for _, arr in named_params(model))


def block_param_paths(model: ModelSpec, index: int) -> list[str]:
    return [path for path, _ in _block_params(f"blocks.{index}", model.blocks[index])]


def trainable_paths(model: ModelSpec, mode: str = "cpt") -> set[str]:
    """Parameter paths the optimizer may touch.

    cpt: only blocks whose mask entry is True (embedding, unembedding and the
    final gain stay frozen with the base). sft: everything.
    """
    if mode not in ("cpt", "sft"):
        raise ValueError(f"unknown training mode {mode!r}")
    paths = set()
    if mode == "sft":
        paths.update(("embed", "unembed", "final_gain"))
    for i, block in enumerate(model.blocks):
        if mode == "sft" or model.trainable[i]:
            paths.update(path for path, _ in _block_params(f"blocks.{i}", block))
    return paths
