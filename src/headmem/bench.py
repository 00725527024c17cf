"""Microbenchmarks: selection-kernel timing and per-block prefill accounting.

Wall-clock columns are environment-dependent; the equality and MAC columns
are the reproducible substance. MAC counts cover parameter multiplies
(projection and table arithmetic), which grow linearly with prompt length;
the attention-score quadratic term is identical for the block kinds being
compared and is left out. Memory aggregation is counted on the cached-value
inference path, whose one-time cache build is excluded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .layers import MemoryBlockParams, memory_block_forward
from .memory import fused_cartesian_topk, lookup_cost, two_stage_topk
from .numerics import gaussian, make_rng
from .transformer import TransformerBlockParams, transformer_block_forward

DEFAULT_TOKEN_SWEEP = (1, 4, 16, 64, 256)
DEFAULT_LENGTHS = (16, 32, 64, 128)


@dataclass
class TopkRow:
    n: int
    k: int
    tokens: int
    two_stage_ns: int
    fused_ns: int
    equal: bool


def _best_ns(fn, repeats: int) -> int:
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return min(times)


def bench_topk(n: int, k: int, token_counts=DEFAULT_TOKEN_SWEEP,
               repeats: int = 5, seed: int = 0) -> list[TopkRow]:
    """Times two-stage selection and the fused reference per token count;
    checks that they agree."""
    rng = make_rng(seed)
    rows = []
    for tokens in sorted(token_counts):
        s_row = gaussian(rng, (tokens, n), 1.0)  # the run's precision
        s_col = gaussian(rng, (tokens, n), 1.0)
        a_idx, a_w = two_stage_topk(s_row, s_col, k)
        b_idx, b_w = fused_cartesian_topk(s_row, s_col, k)
        equal = bool(np.array_equal(a_idx, b_idx) and np.array_equal(a_w, b_w))
        rows.append(TopkRow(
            n=n, k=k, tokens=tokens,
            two_stage_ns=_best_ns(lambda: two_stage_topk(s_row, s_col, k), repeats),
            fused_ns=_best_ns(lambda: fused_cartesian_topk(s_row, s_col, k), repeats),
            equal=equal))
    return rows


def topk_csv(rows: list[TopkRow]) -> str:
    out = ["n,k,tokens,two_stage_ns,fused_ns,equal"]
    out += [f"{r.n},{r.k},{r.tokens},{r.two_stage_ns},{r.fused_ns},"
            f"{str(r.equal).lower()}" for r in rows]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# prefill

@dataclass
class PrefillRow:
    length: int
    block_kind: str
    forward_ns: int
    mac_count: int


def transformer_block_macs(p: TransformerBlockParams, length: int) -> int:
    d = p.attn.w_q.shape[0]
    d_ff = p.ffn.w_gate.shape[1]
    return length * (4 * d * d + 3 * d * d_ff)


def memory_block_macs(p: MemoryBlockParams, length: int) -> int:
    cfg = p.cfg
    d, heads, k, d_h = cfg.d, cfg.heads, cfg.k, cfg.d_h
    macs = 3 * d * d
    if p.kind.output_projection:
        macs += d * d
    if p.kind.kind == "headwise":
        macs += heads * lookup_cost(cfg, "product")
        macs += heads * k * d_h
    else:
        macs += d * d  # query projection
        macs += heads * lookup_cost(cfg, "flat" if p.kind.kind == "linear" else "product")
        macs += heads * k * d     # full-width shared values
    return length * macs


def bench_prefill(blocks: dict[str, object], lengths=DEFAULT_LENGTHS,
                  repeats: int = 3, seed: int = 0) -> list[PrefillRow]:
    """blocks: name -> block params (transformer or memory kinds)."""
    rng = make_rng(seed)
    rows = []
    for length in sorted(lengths):
        for name, p in blocks.items():
            x = rng.standard_normal((length, p.attn.w_q.shape[0]))
            x = x.astype(p.attn.w_q.dtype)
            if isinstance(p, TransformerBlockParams):
                fn = lambda: transformer_block_forward(x, p)
                macs = transformer_block_macs(p, length)
            else:
                fn = lambda: memory_block_forward(x, p, training=False)
                macs = memory_block_macs(p, length)
            rows.append(PrefillRow(length=length, block_kind=name,
                                   forward_ns=_best_ns(fn, repeats),
                                   mac_count=macs))
    return rows


def prefill_csv(rows: list[PrefillRow]) -> str:
    out = ["length,block_kind,forward_ns,mac_count"]
    out += [f"{r.length},{r.block_kind},{r.forward_ns},{r.mac_count}"
            for r in rows]
    return "\n".join(out) + "\n"
