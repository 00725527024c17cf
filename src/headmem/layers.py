"""Memory layers and their residual block packaging.

Three retrieval designs share one block shape (x + memory(attention(norm(x)))):

  linear   flat N-way lookup per head over private key banks, batch-normalized
           projected queries, one shared full-width value table, head outputs
           summed;
  pkm      product-key selection per head (same query pipeline as linear),
           shared full-width values, head outputs summed;
  headwise product-key selection per head where the raw per-head attention
           outputs are the queries (no projection, no normalization, no
           internal residual), values factorized as a shared d_h-wide table
           plus per-head transforms, head outputs concatenated.

All three keep their tables in one MemoryBank, made by init_bank; a field
the kind does not use is None. All three read through one function,
retrieve, which scores, selects and pools every head in one call. The
toggles on MemoryLayerKind reshape the pipeline for ablations: query
batchnorm, query layernorm (RMS-style, matching the backbone), internal
residual a = x + attn_out, and attention output projection.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
from .numerics import gaussian, ones, softmax, topk, zeros
from .transformer import AttentionParams, causal_attention, rms_norm_fwd

MEMORY_KINDS = ("linear", "pkm", "headwise")


@dataclass
class MemoryLayerKind:
    kind: str
    query_batchnorm: bool = False
    query_layernorm: bool = False
    internal_residual: bool = False
    output_projection: bool = False

    def __post_init__(self):
        if self.kind not in MEMORY_KINDS:
            raise ValueError(f"unknown memory kind {self.kind!r}, expected {MEMORY_KINDS}")

    @staticmethod
    def defaults(kind: str) -> "MemoryLayerKind":
        # linear/pkm follow the conventional memory-block recipe (normalized
        # projected queries inside a full residual sublayer); headwise strips
        # all of that away and reads the raw head outputs directly.
        if kind in ("linear", "pkm"):
            return MemoryLayerKind(kind, query_batchnorm=True, query_layernorm=False,
                                   internal_residual=True, output_projection=True)
        return MemoryLayerKind(kind)


# names of the boolean ablation toggles, in declaration order
MEMORY_TOGGLES = tuple(f.name for f in fields(MemoryLayerKind) if f.name != "kind")


BN_MOMENTUM = 0.1  # query batchnorm: weight of a sequence in the running statistics
BN_EPS = 1e-5  # query batchnorm: variance floor


@dataclass
class BatchNorm:
    """Feature-wise batch normalization with running statistics.

    Training mode standardizes each token sequence with the moments of its
    own rows (biased variance) and folds them into the running buffers; eval
    mode uses the buffers. When several equal-length sequences share one
    call, moments stay per sequence (the backward matches) and the buffers
    are folded once per sequence in batch order, so a batched call matches
    the same sequences run one after another. Moments pooled over the whole
    batch (the PKM convention of Lample et al. 2019) are not used: they would
    make a sequence's output depend on how the trainer groups sequences
    into calls.
    """

    gamma: np.ndarray  # [f]
    beta: np.ndarray  # [f]
    running_mean: np.ndarray  # [f]
    running_var: np.ndarray  # [f]


def init_batchnorm(features: int) -> BatchNorm:
    return BatchNorm(gamma=ones(features), beta=zeros(features),
                     running_mean=zeros(features), running_var=ones(features))


def batchnorm_query(q: np.ndarray, bn: BatchNorm, training: bool,
                    seq_len: int | None = None):
    """Standardize queries [B*s, f] of B sequences of seq_len rows (None: one
    sequence); returns (out, cache for backward)."""
    rows, f = q.shape
    s = rows if seq_len is None else seq_len
    if training:
        qs = q.reshape(rows // s, s, f)
        mean = np.mean(qs, axis=1, keepdims=True)  # [B, 1, f]
        var = np.var(qs, axis=1, keepdims=True)
        for b in range(qs.shape[0]):
            bn.running_mean[...] = ((1.0 - BN_MOMENTUM) * bn.running_mean
                                    + BN_MOMENTUM * mean[b, 0])
            bn.running_var[...] = ((1.0 - BN_MOMENTUM) * bn.running_var
                                   + BN_MOMENTUM * var[b, 0])
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = ((qs - mean) * inv).reshape(rows, f)
    else:
        inv = 1.0 / np.sqrt(bn.running_var + BN_EPS)
        xhat = (q - bn.running_mean) * inv
    out = bn.gamma * xhat + bn.beta
    cache = {"xhat": xhat, "inv": inv, "gamma": bn.gamma, "training": training,
             "seq_len": s}
    return out, cache


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
    attn: AttentionParams  # w_o is None unless kind.output_projection
    norm_gain: np.ndarray  # [d]
    bank: MemoryBank
    query_bn: BatchNorm | None = None
    query_ln_gain: np.ndarray | None = None


# ---------------------------------------------------------------------------
# retrieval

def retrieve(a: np.ndarray, p: MemoryBlockParams, training: bool = False,
             seq_len: int | None = None, value_cache: np.ndarray | None = None):
    """The memory read of every kind over token rows a [rows, d]; returns
    (m [rows, d], cache).

    Queries are a @ w_q (linear, pkm) or a itself (headwise), then the
    optional batchnorm (moments grouped by seq_len) and layernorm. The h-th
    d_h slice of a query row addresses head h. All H heads are scored in one
    call, flat keys [rows, H, N] or sub-key axes [rows, H, n], and selected
    once. linear and pkm pool the shared full-width table and sum over heads;
    headwise pools its factorized values (or gathers from value_cache, the
    [H, N, d_h] table of build_value_cache) and concatenates heads.
    """
    kind, cfg, bank = p.kind.kind, p.cfg, p.bank
    q = a if kind == "headwise" else a @ bank.w_q
    bn_cache = ln_cache = None
    if p.kind.query_batchnorm:
        q, bn_cache = batchnorm_query(q, p.query_bn, training, seq_len)
    if p.kind.query_layernorm:
        q, ln_cache = rms_norm_fwd(q, p.query_ln_gain)
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
    cache = {"a": a, "q": q, "bn": bn_cache, "ln": ln_cache, "idx": idx, "w": w}
    return m, cache


# ---------------------------------------------------------------------------
# block packaging

def memory_block_forward(x: np.ndarray, p: MemoryBlockParams, training: bool = False,
                         value_cache: np.ndarray | None = None,
                         seq_len: int | None = None, collect: bool = True):
    """Residual memory block: y = x + memory(queries(attention(norm(x)))).

    x: [B*s, d] token rows of B sequences of seq_len (None: one sequence).
    Retrieval runs once over all rows; attention and query batchnorm group
    them by sequence. The attention sublayer reuses the block's copied
    attention parameters; with output_projection off its raw concatenated
    head outputs feed the memory directly. Returns (y, cache). Without
    collect, cache is None and the attention's intermediates are freed
    before the retrieval runs.
    """
    if value_cache is not None and training:
        raise ValueError("value cache is an inference path, not usable in training")
    xn, ncache = rms_norm_fwd(x, p.norm_gain)
    ao, acache = causal_attention(xn, p.attn, seq_len=seq_len, collect=collect)
    a = x + ao if p.kind.internal_residual else ao
    del xn, ao  # without collect, no cache holds them through the retrieval
    m, mcache = retrieve(a, p, training, seq_len, value_cache)
    y = x + m
    if not collect:
        return y, None
    cache = {"norm": ncache, "attn": acache, "mem": mcache}
    return y, cache
