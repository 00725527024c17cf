"""Depth up-scaling: where inserted blocks go and how they are initialized.

Placement policies name positions in the EXPANDED stack (base depth L plus K
inserted blocks, indices 0..L+K-1):

  top_heavy     one insert before each of the last K base blocks
  bottom_heavy  one insert before each of the first K base blocks
  distributed   inserts spread evenly, anchored before every ceil(L/K)-th block
  llama_pro     duplicated-block convention: the insert FOLLOWS its source,
                with sources spread evenly

For the reference shapes (L=16, K=8) and (L=32, K=16) these reproduce the
known index sets exactly; other shapes use the even-spacing generalization
documented on policy_indices (anchor_t = floor((t+1) * L / K) - 1), which is
this library's own extension.

Two builders share the policies. build_dus inserts parameter copies of
adjacent base blocks (optionally zero-initialized so each copy starts as an
identity map). build_memory_dus inserts memory blocks whose attention is
copied from the subsequent base block (the preceding one for a llama_pro
tail insert, which has none) and whose value tables start at zero, so the
expanded model's function is exactly the base model's at init.

Both take a plain transformer stack exactly as deep as the policy's base
depth, and raise ValueError otherwise. Every copy, the copy of the base
included, is a copy.deepcopy, and the average walks model.named_params:
no code here lists a block's tensors.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .layers import MemoryBlockParams, MemoryLayerKind, init_bank
from .memory import MemoryConfig
from .model import ModelSpec, named_params
from .numerics import make_rng, ones
from .transformer import TransformerBlockParams

POLICY_NAMES = ("top_heavy", "distributed", "bottom_heavy", "llama_pro")
INIT_SOURCES = ("preceding", "subsequent", "average_adjacent")
INSERT_KINDS = ("transformer_copy", "memory_block")


@dataclass(frozen=True)
class PlacementPolicy:
    name: str
    base_depth: int  # L
    inserted: int  # K

    def __post_init__(self):
        if self.name not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.name!r}, expected {POLICY_NAMES}")
        if self.base_depth < 1:
            raise ValueError("base depth must be >= 1")
        if not 0 <= self.inserted <= self.base_depth:
            raise ValueError(
                f"inserted count {self.inserted} must lie in [0, {self.base_depth}]")


def _even_anchors(depth: int, count: int) -> list[int]:
    # floor((t+1) * L / K) - 1: evenly spaced base indices, last one = L - 1
    return [(t + 1) * depth // count - 1 for t in range(count)]


def policy_indices(policy: PlacementPolicy) -> list[int]:
    """Expanded-stack positions of the K inserted blocks, strictly increasing.

    top_heavy/bottom_heavy insert before each of the last/first K base
    blocks; distributed inserts before evenly spaced anchors; llama_pro
    inserts after evenly spaced sources. Positions account for earlier
    inserts (insert t shifts by t).
    """
    depth, count = policy.base_depth, policy.inserted
    if count == 0:
        return []
    if policy.name == "top_heavy":
        positions = [depth - count + 2 * t for t in range(count)]
    elif policy.name == "bottom_heavy":
        positions = [2 * t for t in range(count)]
    elif policy.name == "distributed":
        positions = [a + t for t, a in enumerate(_even_anchors(depth, count))]
    else:  # llama_pro
        positions = [a + t + 1 for t, a in enumerate(_even_anchors(depth, count))]
    assert len(positions) == count
    assert all(0 <= p < depth + count for p in positions)
    assert all(b > a for a, b in zip(positions, positions[1:]))
    return positions


def neighbor_base_indices(policy: PlacementPolicy) -> list[tuple[int | None, int | None]]:
    """(preceding, subsequent) base-block index for each insert, None at the edges."""
    depth = policy.base_depth
    out = []
    for t, p in enumerate(policy_indices(policy)):
        sub = p - t  # base blocks seen before position p
        pre = sub - 1
        out.append((pre if pre >= 0 else None, sub if sub < depth else None))
    return out


@dataclass
class UpscalePlan:
    policy: PlacementPolicy
    insert_kind: str  # transformer_copy | memory_block
    init_source: str = "subsequent"  # preceding | subsequent | average_adjacent
    memory_kind: MemoryLayerKind | None = None
    memory_cfg: MemoryConfig | None = None
    zero_init_copies: bool = False  # transformer_copy only
    seed: int = 0  # bank initialization stream

    def __post_init__(self):
        if self.insert_kind not in INSERT_KINDS:
            raise ValueError(f"unknown insert kind {self.insert_kind!r}")
        if self.init_source not in INIT_SOURCES:
            raise ValueError(f"unknown init source {self.init_source!r}")
        if self.insert_kind == "memory_block":
            if self.memory_kind is None or self.memory_cfg is None:
                raise ValueError("memory_block plans need memory_kind and memory_cfg")
            if self.init_source != "subsequent":
                raise ValueError("memory blocks copy the subsequent block's attention")
            if self.zero_init_copies:
                raise ValueError("zero_init_copies applies to transformer_copy inserts only")


# ---------------------------------------------------------------------------
# parameter copies: copy.deepcopy and model.named_params reach every tensor,
# so a field added to a block is copied or averaged without a change here

def zero_init_dus_copy(block: TransformerBlockParams) -> TransformerBlockParams:
    """Zeroes W_o and W_down of a fresh copy in place and returns it: both
    sublayers then add exactly zero, so the copied block computes the
    identity map."""
    block.attn.w_o[...] = 0.0
    block.ffn.w_down[...] = 0.0
    return block


def _check_base(base: ModelSpec, plan: UpscalePlan, insert_kind: str) -> None:
    # prologue of both builders: the plan's kind, and a plain transformer
    # stack exactly as deep as the policy's base depth
    if plan.insert_kind != insert_kind:
        raise ValueError(f"expected a {insert_kind} plan, got {plan.insert_kind}")
    if any(not isinstance(b, TransformerBlockParams) for b in base.blocks):
        raise ValueError("base model must be a plain transformer stack")
    if plan.policy.base_depth != len(base.blocks):
        raise ValueError(f"policy base depth {plan.policy.base_depth} does not match "
                         f"the base stack's {len(base.blocks)} blocks")


def _assemble(base: ModelSpec, positions: list[int], inserted: list) -> ModelSpec:
    # a copy of the whole base, frozen; inserting in ascending order puts
    # each new block at its final expanded-stack position
    out = copy.deepcopy(base)
    out.trainable = [False] * len(out.blocks)
    for q, block in zip(positions, inserted):
        out.blocks.insert(q, block)
        out.trainable.insert(q, True)
    return out


def build_dus(base: ModelSpec, plan: UpscalePlan) -> ModelSpec:
    """Expand by inserting transformer-block copies; only copies trainable."""
    _check_base(base, plan, "transformer_copy")
    inserted = []
    for (pre, sub) in neighbor_base_indices(plan.policy):
        if plan.init_source == "preceding":
            if pre is None:
                raise ValueError("insert at stack start has no preceding block to copy")
            blk = copy.deepcopy(base.blocks[pre])
        elif plan.init_source == "subsequent":
            if sub is None:
                raise ValueError("insert at stack end has no subsequent block to copy")
            blk = copy.deepcopy(base.blocks[sub])
        else:
            if pre is None or sub is None:
                raise ValueError("average_adjacent needs both neighbors")
            blk = copy.deepcopy(base.blocks[pre])
            for (_, u), (_, v) in zip(named_params(blk), named_params(base.blocks[sub])):
                u += v
                u /= 2
        if plan.zero_init_copies:
            zero_init_dus_copy(blk)
        inserted.append(blk)
    return _assemble(base, policy_indices(plan.policy), inserted)


def init_memory_block(source: TransformerBlockParams, kind: MemoryLayerKind,
                      cfg: MemoryConfig, rng) -> MemoryBlockParams:
    """A fresh memory block of kind in the place of source. It sees the same
    normalized context as source's attention: gain and attention weights
    are copied together. A headwise block reads the raw head outputs, so
    it drops the output projection and has no query norm gain. The bank
    comes from init_bank."""
    headwise = kind.kind == "headwise"
    attn = copy.deepcopy(source.attn)
    if headwise:
        attn.w_o = None
    return MemoryBlockParams(
        kind=kind, cfg=cfg, attn=attn, norm_gain=source.attn_gain.copy(),
        bank=init_bank(kind.kind, cfg, rng),
        query_ln_gain=None if headwise else ones(cfg.d),
    )


def build_memory_dus(base: ModelSpec, plan: UpscalePlan) -> ModelSpec:
    """Expand by inserting memory blocks; the expanded model is the base
    model's exact function at init (zero value tables).

    Each memory block copies the attention of the subsequent base block. A
    llama_pro-placed tail insert has no subsequent block and copies the
    preceding one instead.
    """
    _check_base(base, plan, "memory_block")
    cfg = plan.memory_cfg
    if cfg.d != base.d or cfg.heads != base.heads:
        raise ValueError(
            f"memory config ({cfg.d}, {cfg.heads} heads) does not match the base "
            f"model ({base.d}, {base.heads} heads)")
    rng = make_rng(plan.seed)
    inserted = []
    for (pre, sub) in neighbor_base_indices(plan.policy):
        src = base.blocks[sub] if sub is not None else base.blocks[pre]
        inserted.append(init_memory_block(src, plan.memory_kind, cfg, rng))
    return _assemble(base, policy_indices(plan.policy), inserted)
