"""Memory layers and their residual block packaging.

Three retrieval designs share one block shape (x + memory(attention(norm(x)))):

  linear   flat N-way lookup per head over private key banks, RMS-normalized
           projected queries, one shared full-width value table, head outputs
           summed;
  pkm      product-key selection per head (same query pipeline as linear),
           shared full-width values, head outputs summed;
  headwise product-key selection per head where the raw per-head attention
           outputs are the queries (no projection, no normalization, no
           internal residual), values factorized as a shared d_h-wide table
           plus per-head transforms, head outputs concatenated.

The query pipeline is fixed by the kind. linear and pkm follow the
product-key recipe of Lample et al. 2019: the attention output projection,
the internal residual a = x + attn_out, then projected queries with a
per-token RMS norm (matching the backbone). headwise has none of these.

All three keep their tables in one MemoryBank, made by init_bank; a field
the kind does not use is None. All three read through one function,
retrieve, which scores, selects and pools every head in one call.

Only the causal attention mixes positions; every later step works on one
token row at a time. So position t's read depends on tokens 0..t alone, and
training and inference compute one function. Query normalization is per
token for that reason: the query batchnorm of Lample et al. 2019 takes its
moments over all positions, which lets later tokens into earlier queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .memory import (
    MemoryConfig,
    ProductKeyBank,
    ValueBank,
    aggregate_values,
    aggregate_values_cached,
    head_scores,
    init_product_keys,
    init_value_bank,
    score_subkeys,
    select_topk,
)
from .numerics import gaussian, softmax, topk, zeros
from .transformer import AttentionParams, causal_attention, rms_norm_fwd

MEMORY_KINDS = ("linear", "pkm", "headwise")


@dataclass
class MemoryLayerKind:
    kind: str

    def __post_init__(self):
        if self.kind not in MEMORY_KINDS:
            raise ValueError(f"unknown memory kind {self.kind!r}, expected {MEMORY_KINDS}")

    @staticmethod
    def defaults(kind: str) -> "MemoryLayerKind":
        # the kind fixes the whole pipeline, so this is MemoryLayerKind(kind);
        # it stays for callers that must also run where the kind had toggles
        return MemoryLayerKind(kind)


@dataclass
class MemoryBank:
    """The learnable tables of a memory block; a field its kind does not use
    is None. Field order is the walk order of every tensor path.

      linear    w_q, keys, values [N, d]
      pkm       w_q, pk, values [N, d]
      headwise  pk, values (a ValueBank)
    """

    w_q: np.ndarray | None  # [d, d] query projection, sliced per head downstream
    keys: np.ndarray | None  # [H, N, d_h] private flat keys per head
    pk: ProductKeyBank | None
    values: np.ndarray | ValueBank  # the value table is zero at init


def init_bank(kind: str, cfg: MemoryConfig, rng: np.random.Generator) -> MemoryBank:
    """Fresh tables of a memory block of kind. The keyword arguments are
    evaluated in field order, which fixes the order of the random draws:
    w_q, keys, pk.k_row, pk.k_col, values.w_heads."""
    flat, headwise = kind == "linear", kind == "headwise"
    return MemoryBank(
        w_q=None if headwise else gaussian(rng, (cfg.d, cfg.d), 1.0 / np.sqrt(cfg.d)),
        keys=(gaussian(rng, (cfg.heads, cfg.N, cfg.d_h), 1.0 / np.sqrt(cfg.d_h))
              if flat else None),
        pk=None if flat else init_product_keys(cfg, rng),
        values=init_value_bank(cfg, rng) if headwise else zeros((cfg.N, cfg.d)),
    )


@dataclass
class MemoryBlockParams:
    kind: MemoryLayerKind
    cfg: MemoryConfig
    attn: AttentionParams  # w_o is None in a headwise block
    norm_gain: np.ndarray  # [d]
    bank: MemoryBank
    query_ln_gain: np.ndarray | None = None  # [d]; None in a headwise block


# ---------------------------------------------------------------------------
# retrieval

def retrieve(a: np.ndarray, p: MemoryBlockParams, value_cache: np.ndarray | None = None):
    """The memory read of every kind over token rows a [rows, d]; returns
    (m [rows, d], cache).

    Queries are the per-token RMS norm of a @ w_q (linear, pkm) or a
    itself (headwise). The h-th d_h slice of a query row addresses head h.
    All H heads are scored in one call, flat keys [rows, H, N] or sub-key
    axes [rows, H, n], and selected once. linear and pkm pool the shared
    full-width table and sum over heads; headwise pools its factorized
    values (or gathers from value_cache, the [H, N, d_h] table of
    build_value_cache) and concatenates heads.
    """
    kind, cfg, bank = p.kind.kind, p.cfg, p.bank
    if kind == "headwise":
        q, ln_cache = a, None
    else:
        q, ln_cache = rms_norm_fwd(a @ bank.w_q, p.query_ln_gain)
    qh = q.reshape(a.shape[0], cfg.heads, cfg.d_h)
    if kind == "linear":
        idx, vals = topk(head_scores(qh, bank.keys), cfg.k)
        w = softmax(vals)
    else:
        idx, w = select_topk(*score_subkeys(qh, bank.pk), cfg.k)
    if kind != "headwise":
        m = np.einsum("shk,shkd->sd", w, bank.values[idx])
    elif value_cache is not None:
        m = aggregate_values_cached(idx, w, value_cache)
    else:
        m = aggregate_values(idx, w, bank.values)
    cache = {"a": a, "q": q, "ln": ln_cache, "idx": idx, "w": w}
    return m, cache


# ---------------------------------------------------------------------------
# block packaging

def memory_block_forward(x: np.ndarray, p: MemoryBlockParams,
                         value_cache: np.ndarray | None = None,
                         seq_len: int | None = None, collect: bool = True):
    """Residual memory block: y = x + memory(queries(attention(norm(x)))).

    x: [B*s, d] token rows of B sequences of seq_len (None: one sequence).
    Retrieval runs once over all rows; only attention groups them by
    sequence. The attention sublayer reuses the block's copied attention
    parameters; in a headwise block, which has no output projection and no
    internal residual, its raw concatenated head outputs feed the memory
    directly. Returns (y, cache). Without collect, cache is None and the
    attention's intermediates are freed before the retrieval runs.
    """
    xn, ncache = rms_norm_fwd(x, p.norm_gain)
    ao, acache = causal_attention(xn, p.attn, seq_len=seq_len, collect=collect)
    a = ao if p.kind.kind == "headwise" else x + ao
    del xn, ao  # without collect, no cache holds them through the retrieval
    m, mcache = retrieve(a, p, value_cache)
    y = x + m
    if not collect:
        return y, None
    cache = {"norm": ncache, "attn": acache, "mem": mcache}
    return y, cache
