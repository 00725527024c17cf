"""Analytic multiply-accumulate counts of one block's forward pass.

The counts cover parameter multiplies (projection and table arithmetic),
which grow linearly with prompt length; the attention-score quadratic term
is identical for the block kinds being compared and is left out. Memory
aggregation is counted on the cached-value inference path, whose one-time
cache build is excluded.
"""

from __future__ import annotations

from .layers import MemoryBlockParams
from .memory import lookup_cost
from .transformer import TransformerBlockParams


def transformer_block_macs(p: TransformerBlockParams, length: int) -> int:
    d = p.attn.w_q.shape[0]
    d_ff = p.ffn.w_gate.shape[1]
    return length * (4 * d * d + 3 * d * d_ff)


def memory_block_macs(p: MemoryBlockParams, length: int) -> int:
    cfg = p.cfg
    d, heads, k, d_h = cfg.d, cfg.heads, cfg.k, cfg.d_h
    macs = 3 * d * d
    if p.kind.kind == "headwise":
        macs += heads * lookup_cost(cfg, "product")
        macs += heads * k * d_h
    else:
        macs += 2 * d * d  # output and query projections
        macs += heads * lookup_cost(cfg, "flat" if p.kind.kind == "linear" else "product")
        macs += heads * k * d     # full-width shared values
    return length * macs
