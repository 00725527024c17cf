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

The toggles on MemoryLayerKind reshape the pipeline for ablations: query
batchnorm, query layernorm (RMS-style, matching the backbone), internal
residual a = x + attn_out, and attention output projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .memory import (
    MemoryConfig,
    ProductKeyBank,
    RetrievalResult,
    ValueBank,
    ValueCache,
    aggregate_values_cached,
    init_product_keys,
    init_value_bank,
    record_scoring_macs,
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
    momentum: float = 0.1
    eps: float = 1e-5


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
            bn.running_mean[...] = ((1.0 - bn.momentum) * bn.running_mean
                                    + bn.momentum * mean[b, 0])
            bn.running_var[...] = ((1.0 - bn.momentum) * bn.running_var
                                   + bn.momentum * var[b, 0])
        inv = 1.0 / np.sqrt(var + bn.eps)
        xhat = ((qs - mean) * inv).reshape(rows, f)
    else:
        inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
        xhat = (q - bn.running_mean) * inv
    out = bn.gamma * xhat + bn.beta
    cache = {"xhat": xhat, "inv": inv, "gamma": bn.gamma, "training": training,
             "seq_len": s}
    return out, cache


@dataclass
class LinearMemoryBank:
    w_q: np.ndarray  # [d, d] query projection, sliced per head downstream
    keys: np.ndarray  # [H, N, d_h] private flat keys per head
    values: np.ndarray  # [N, d] shared full-width table, zero at init


@dataclass
class PkmBank:
    w_q: np.ndarray  # [d, d]
    pk: ProductKeyBank
    values: np.ndarray  # [N, d] shared full-width table, zero at init


@dataclass
class HeadwiseBank:
    pk: ProductKeyBank
    values: ValueBank


def init_linear_bank(cfg: MemoryConfig, rng: np.random.Generator) -> LinearMemoryBank:
    return LinearMemoryBank(
        w_q=gaussian(rng, (cfg.d, cfg.d), 1.0 / np.sqrt(cfg.d)),
        keys=gaussian(rng, (cfg.heads, cfg.N, cfg.d_h), 1.0 / np.sqrt(cfg.d_h)),
        values=zeros((cfg.N, cfg.d)),
    )


def init_pkm_bank(cfg: MemoryConfig, rng: np.random.Generator) -> PkmBank:
    return PkmBank(
        w_q=gaussian(rng, (cfg.d, cfg.d), 1.0 / np.sqrt(cfg.d)),
        pk=init_product_keys(cfg, rng),
        values=zeros((cfg.N, cfg.d)),
    )


def init_headwise_bank(cfg: MemoryConfig, rng: np.random.Generator) -> HeadwiseBank:
    return HeadwiseBank(pk=init_product_keys(cfg, rng), values=init_value_bank(cfg, rng))


@dataclass
class MemoryBlockParams:
    kind: MemoryLayerKind
    cfg: MemoryConfig
    attn: AttentionParams  # w_o is None unless kind.output_projection
    norm_gain: np.ndarray  # [d]
    bank: LinearMemoryBank | PkmBank | HeadwiseBank
    query_bn: BatchNorm | None = None
    query_ln_gain: np.ndarray | None = None
    route: str = field(default="auto")  # selection route override for experiments


# ---------------------------------------------------------------------------
# layer-level retrieval (queries already formed)

def _select_flat(q_h: np.ndarray, keys_h: np.ndarray, k: int):
    """Flat lookup for one head: scores all N keys, keeps k, softmax weights."""
    scores = q_h @ keys_h.T  # [s, N]
    record_scoring_macs(q_h.shape[0] * keys_h.shape[0] * keys_h.shape[1])
    idx, vals = topk(scores, k)
    return idx, softmax(vals, axis=-1)


def _query_pipeline(a: np.ndarray, w_q: np.ndarray, bn: BatchNorm | None,
                    ln_gain: np.ndarray | None, training: bool, seq_len: int | None):
    q = a @ w_q
    bn_cache = ln_cache = None
    if bn is not None:
        q, bn_cache = batchnorm_query(q, bn, training, seq_len)
    if ln_gain is not None:
        q, ln_cache = rms_norm_fwd(q, ln_gain)
    return q, bn_cache, ln_cache


def linear_memory_forward(a: np.ndarray, bank: LinearMemoryBank, k: int,
                          bn: BatchNorm | None = None,
                          ln_gain: np.ndarray | None = None, training: bool = False,
                          seq_len: int | None = None):
    """Flat per-head lookup over token rows; returns (m [rows, d], cache).

    Head h scores its private keys with the h-th slice of the (optionally
    batch-normalized) projected query, pools k full-width value rows, and the
    head outputs are summed. seq_len only groups rows for batchnorm moments.
    """
    s, d = a.shape
    heads = bank.keys.shape[0]
    d_h = d // heads
    q, bn_cache, ln_cache = _query_pipeline(a, bank.w_q, bn, ln_gain, training, seq_len)
    idx_all, w_all = [], []
    m = np.zeros((s, d), dtype=a.dtype)
    for h in range(heads):
        q_h = q[:, h * d_h:(h + 1) * d_h]
        idx, w = _select_flat(q_h, bank.keys[h], k)
        m += np.einsum("sk,skd->sd", w, bank.values[idx])
        idx_all.append(idx)
        w_all.append(w)
    cache = {"kind": "linear", "a": a, "q": q, "bn": bn_cache, "ln": ln_cache,
             "idx": np.stack(idx_all, axis=1), "w": np.stack(w_all, axis=1)}
    return m, cache


def pkm_memory_forward(a: np.ndarray, bank: PkmBank, k: int,
                       fused_threshold: int = 16, route: str = "auto",
                       bn: BatchNorm | None = None,
                       ln_gain: np.ndarray | None = None, training: bool = False,
                       seq_len: int | None = None):
    """Product-key per-head selection over a shared full-width value table.

    Same query pipeline and output reduction as the linear layer; only the
    scoring changes (two sub-key banks and additive pair scores instead of N
    flat keys). k may exceed n, in which case selection runs on the fused
    grid route.
    """
    s, d = a.shape
    heads = bank.pk.k_row.shape[0]
    d_h = d // heads
    q, bn_cache, ln_cache = _query_pipeline(a, bank.w_q, bn, ln_gain, training, seq_len)
    idx_all, w_all = [], []
    m = np.zeros((s, d), dtype=a.dtype)
    for h in range(heads):
        q_h = q[:, h * d_h:(h + 1) * d_h]
        s_row, s_col = score_subkeys(q_h, bank.pk, h)
        idx, w = select_topk(s_row, s_col, k, fused_threshold, route)
        m += np.einsum("sk,skd->sd", w, bank.values[idx])
        idx_all.append(idx)
        w_all.append(w)
    cache = {"kind": "pkm", "a": a, "q": q, "bn": bn_cache, "ln": ln_cache,
             "idx": np.stack(idx_all, axis=1), "w": np.stack(w_all, axis=1)}
    return m, cache


def headwise_memory_forward(q: np.ndarray, bank: HeadwiseBank, cfg: MemoryConfig,
                            route: str = "auto", value_cache: ValueCache | None = None):
    """Head-sliced product-key retrieval with factorized values.

    q: [s, d] query matrix whose h-th slice addresses head h's banks. Pools
    shared d_h-wide rows per head, applies the head transform (or gathers
    from the pre-transformed cache), concatenates heads. Returns (m, cache).
    """
    s, d = q.shape
    idx_all, w_all = [], []
    for h in range(cfg.heads):
        q_h = q[:, h * cfg.d_h:(h + 1) * cfg.d_h]
        s_row, s_col = score_subkeys(q_h, bank.pk, h)
        idx, w = select_topk(s_row, s_col, cfg.k, cfg.fused_threshold, route)
        idx_all.append(idx)
        w_all.append(w)
    result = RetrievalResult(indices=np.stack(idx_all, axis=1),
                             weights=np.stack(w_all, axis=1))
    if value_cache is not None:
        m = aggregate_values_cached(result, value_cache)
        pooled = None
    else:
        rows = bank.values.v_base[result.indices]  # [s, H, k, d_h]
        pooled = np.einsum("shk,shkd->shd", result.weights, rows)
        m = np.einsum("hij,shj->shi", bank.values.w_heads, pooled).reshape(s, d)
    cache = {"kind": "headwise", "q": q, "idx": result.indices, "w": result.weights,
             "pooled": pooled}
    return m, cache


# ---------------------------------------------------------------------------
# block packaging

def memory_block_forward(x: np.ndarray, p: MemoryBlockParams, training: bool = False,
                         value_cache: ValueCache | None = None,
                         seq_len: int | None = None):
    """Residual memory block: y = x + memory(queries(attention(norm(x)))).

    x: [B*s, d] token rows of B sequences of seq_len (None: one sequence).
    Retrieval runs once over all rows; attention and query batchnorm group
    them by sequence. The attention sublayer reuses the block's copied
    attention parameters; with output_projection off its raw concatenated
    head outputs feed the memory directly. Returns (y, cache).
    """
    if value_cache is not None and training:
        raise ValueError("value cache is an inference path, not usable in training")
    xn, ncache = rms_norm_fwd(x, p.norm_gain)
    ao, acache = causal_attention(xn, p.attn, project_output=p.kind.output_projection,
                                  seq_len=seq_len)
    a = x + ao if p.kind.internal_residual else ao

    kind = p.kind.kind
    if kind == "headwise":
        q_src = a
        bn_cache = ln_cache = None
        if p.kind.query_batchnorm:
            q_src, bn_cache = batchnorm_query(q_src, p.query_bn, training, seq_len)
        if p.kind.query_layernorm:
            q_src, ln_cache = rms_norm_fwd(q_src, p.query_ln_gain)
        m, mcache = headwise_memory_forward(q_src, p.bank, p.cfg, route=p.route,
                                            value_cache=value_cache)
        mcache["bn"] = bn_cache
        mcache["ln"] = ln_cache
    elif kind == "pkm":
        bn = p.query_bn if p.kind.query_batchnorm else None
        lng = p.query_ln_gain if p.kind.query_layernorm else None
        m, mcache = pkm_memory_forward(a, p.bank, p.cfg.k, p.cfg.fused_threshold,
                                       p.route, bn=bn, ln_gain=lng, training=training,
                                       seq_len=seq_len)
    elif kind == "linear":
        bn = p.query_bn if p.kind.query_batchnorm else None
        lng = p.query_ln_gain if p.kind.query_layernorm else None
        m, mcache = linear_memory_forward(a, p.bank, p.cfg.k, bn=bn, ln_gain=lng,
                                          training=training, seq_len=seq_len)
    else:
        raise ValueError(f"unknown memory kind {kind!r}")

    y = x + m
    cache = {"norm": ncache, "attn": acache, "mem": mcache,
             "residual": p.kind.internal_residual}
    return y, cache
