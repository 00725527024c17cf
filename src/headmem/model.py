"""Model assembly: embedding, ordered block stack, final norm, unembedding.

ModelSpec owns the parameters. Blocks execute strictly in list order; the
per-block trainable mask is what the optimizer and freezing logic consult.
Parameter walking yields (path, array) pairs with stable dotted names used
by gradients, optimizer state, checkpoints and accounting alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .layers import MemoryBlockParams, memory_block_forward
from .memory import build_value_cache
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
    embed: np.ndarray  # [vocab, d]
    unembed: np.ndarray  # [d, vocab]
    final_gain: np.ndarray  # [d]
    blocks: list = field(default_factory=list)
    trainable: list = field(default_factory=list)  # per-block bool mask

    def __post_init__(self):
        if len(self.blocks) != len(self.trainable):
            raise ValueError("trainable mask length must match block count")


def init_attention(d: int, heads: int, rng, with_projection: bool = True) -> AttentionParams:
    std = 1.0 / np.sqrt(d)
    return AttentionParams(
        w_q=gaussian(rng, (d, d), std),
        w_k=gaussian(rng, (d, d), std),
        w_v=gaussian(rng, (d, d), std),
        w_o=gaussian(rng, (d, d), std) if with_projection else None,
        heads=heads,
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
        vocab=vocab, d=d, heads=heads, d_ff=d_ff,
        embed=gaussian(rng, (vocab, d), 1.0 / np.sqrt(d)),
        unembed=gaussian(rng, (d, vocab), 1.0 / np.sqrt(d)),
        final_gain=ones(d),
        blocks=blocks,
        trainable=[True] * depth,
    )


def model_forward(tokens: np.ndarray, model: ModelSpec, training: bool = False,
                  value_caches: dict[int, np.ndarray] | None = None,
                  collect: bool = False, collect_from: int = 0):
    """Run token sequences through the stack; returns (logits, caches).

    tokens: one sequence [s] or B equal-length sequences [B, s]. Every
    per-token op (norms, projections, FFN, retrieval, unembedding) runs once
    over the B*s token rows; only causal attention groups the rows by
    sequence. logits: [s, V] or [B, s, V]. Logit t of a sequence depends on
    its tokens 0..t alone.

    caches is None unless collect=True. Its per-token activations are
    row-major over the B*s rows (memory idx/w [B*s, H, k]); attention
    activations are [B, H, s, ...], with B = 1 for one sequence. Without
    collect no block keeps a cache, so the forward holds one block's
    activations at a time; the arithmetic, and so every bit, is the same.
    With collect, blocks below collect_from run as without it and leave
    None in caches["blocks"]: training.loss_and_grads passes the lowest
    block its backward visits (gradients.first_visited_block).
    value_caches maps block index to the [H, N, d_h] value cache of a
    headwise memory block (build_value_caches). training changes no
    arithmetic, so every forward computes one function; it only refuses
    value_caches, an inference path, and stays a parameter because the
    benchmark in perfbench/ passes it.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim not in (1, 2) or tokens.size == 0:
        raise ValueError(f"expected tokens [s] or [B, s] with s, B >= 1, "
                         f"got shape {tokens.shape}")
    if not np.issubdtype(tokens.dtype, np.integer):
        raise ValueError(f"token ids must be integers, got dtype {tokens.dtype}")
    if np.any(tokens < 0) or np.any(tokens >= model.vocab):
        raise ValueError("token id out of vocab range")
    if training and value_caches:
        raise ValueError("value cache is an inference path, not usable in training")
    seq_len = tokens.shape[-1]
    flat = tokens.reshape(-1)
    x = model.embed[flat]  # [B*s, d]
    block_caches = []
    for i, block in enumerate(model.blocks):
        keep = collect and i >= collect_from
        if isinstance(block, TransformerBlockParams):
            x, cache = transformer_block_forward(x, block, seq_len=seq_len,
                                                 collect=keep)
        elif isinstance(block, MemoryBlockParams):
            vc = value_caches.get(i) if value_caches else None
            x, cache = memory_block_forward(x, block, value_cache=vc, seq_len=seq_len,
                                            collect=keep)
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


def build_value_caches(model: ModelSpec) -> dict[int, np.ndarray]:
    """{block index: [H, N, d_h] pre-transformed value table} of every
    headwise memory block, for inference."""
    caches = {}
    for i, block in enumerate(model.blocks):
        if isinstance(block, MemoryBlockParams) and block.kind.kind == "headwise":
            caches[i] = build_value_cache(block.bank.values)
    return caches


# ---------------------------------------------------------------------------
# parameter walking

def tensor_slots(node, prefix: str = ""):
    """(dotted path, owner, field name) of every array under a model or block.

    The one place that knows tensor paths: dataclass fields recurse in
    declaration order, list items by index (blocks.3), and None or
    non-array fields yield nothing. Gradients, optimizer state, checkpoints
    and gradcheck all name tensors by these paths, in this order.
    """
    for f in fields(node):
        value = getattr(node, f.name)
        path = f"{prefix}.{f.name}" if prefix else f.name
        if isinstance(value, np.ndarray):
            yield path, node, f.name
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if is_dataclass(item):
                    yield from tensor_slots(item, f"{path}.{i}")
        elif is_dataclass(value):
            yield from tensor_slots(value, path)


def named_params(node, prefix: str = ""):
    """Parameters of a model, or of one block with paths under prefix, as
    (dotted path, array) in walk order: the checkpoint payload and optimizer
    state order."""
    for path, owner, name in tensor_slots(node, prefix):
        yield path, getattr(owner, name)


def param_count_total(model: ModelSpec) -> int:
    return sum(int(arr.size) for _, arr in named_params(model))


def block_param_paths(model: ModelSpec, index: int) -> list[str]:
    return [path for path, _ in named_params(model.blocks[index], f"blocks.{index}")]


def trainable_paths(model: ModelSpec, mode: str = "cpt") -> set[str]:
    """Parameter paths the optimizer may touch.

    cpt: only blocks whose mask entry is True (embedding, unembedding and the
    final gain stay frozen with the base). sft: everything.
    """
    if mode not in ("cpt", "sft"):
        raise ValueError(f"unknown training mode {mode!r}")
    if mode == "sft":
        return {path for path, _ in named_params(model)}
    return {path for i, on in enumerate(model.trainable) if on
            for path in block_param_paths(model, i)}
