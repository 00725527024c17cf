"""Hand-derived backward passes for every layer in the stack.

No autodiff anywhere: each forward cache carries exactly what its backward
consumes, and model_backward walks the block list in reverse accumulating
parameter gradients into a GradStore keyed by the dotted parameter paths
from model.named_params. Activations are token rows [B*s, ...] of a batch of
equal-length sequences, so every weight gradient sums over the whole batch.

Frozen parameters cost nothing: a weight gradient is formed only when the
GradStore keeps its path, and the reverse walk stops at the lowest block
that has a kept parameter unless the embedding or head probes need more
(first_visited_block). A training call collects caches from that block up
only, since the walk reads no block below it.

Selection is treated as a constant routing decision: gradients flow through
the softmax weights and the value rows of the selected slots only, and
sub-keys receive gradient only through their selected additive scores.
There is no straight-through approximation.

The value-table gradient is one indexed add of every weighted (row, head,
slot) contribution into a zeroed table, so each slot sums its contributions
in (row, head, k) order. The add runs on the flat table, indexed by cell
(slot * width + column), a block of rows at a time: each block's weighted
contributions and cell ids (at most 2^14 of each) go into two buffers that
every block reuses. numpy >= 1.25 has a fast path for 1-D ufunc.at, and
each table element still receives its contributions in the same order, so
the sums are the ones a row-wise indexed add gives, bit for bit. The
embedding gradient uses the same add. The pooling-weight gradient gathers
table[idx] in blocks of at most 2^16 values, so neither backward forms a
[rows, H, k, width] array. The GradStore also carries the unique
value-table slot count and, when asked for, the head-importance probes.
"""

from __future__ import annotations

import math

import numpy as np

from .layers import MemoryBlockParams
from .model import ModelSpec, block_param_paths
from .numerics import chunked_matmul, softmax
from .transformer import (
    AttentionParams,
    TransformerBlockParams,
    apply_rope,
    query_blocks,
    split_heads,
)


class GradStore(dict):
    """Accumulated parameter gradients, optionally restricted to a path set.

    The caller makes the store and every backward adds into it: a training
    step passes one store to all its calls. Backwards ask `wants(path)`
    before forming a gradient, so frozen paths cost no arithmetic; `add`
    still drops paths outside `allowed`, which keeps frozen parameter groups
    at exactly zero accumulated gradient. writes counts the unique
    value-table slots written; probes, when a dict, receives each
    attention's (per-head outputs, their gradients). visit holds
    first_visited_block's (model, block index) for the last model asked.
    """

    def __init__(self, allowed: set[str] | None = None,
                 probes: dict | None = None):
        super().__init__()
        self.allowed = allowed
        self.probes = probes
        self.writes = 0
        self.visit = None

    def wants(self, path: str) -> bool:
        return self.allowed is None or path in self.allowed

    def add(self, path: str, g: np.ndarray) -> None:
        if not self.wants(path):
            return
        if path in self:
            self[path] += g
        else:
            self[path] = g

    def add_matmul(self, path: str, a: np.ndarray, b: np.ndarray) -> None:
        """Add the weight gradient a.T @ b, summed over CHUNK-row pieces and
        formed only when path is kept."""
        if self.wants(path):
            self.add(path, chunked_matmul(a.T, b))


# ---------------------------------------------------------------------------
# scatter kernels

# table values per add: bounds the add's contribution buffer and its cell
# ids (one int64 per added element: 64 KiB for column pairs)
_CELL_BLOCK = 1 << 14
# table values per gather of weight_grad_backward
_GATHER_BLOCK = 1 << 16


def _scatter_rows(rows: np.ndarray, g: np.ndarray, size: int,
                  w: np.ndarray | None = None) -> np.ndarray:
    """A zeroed [size, D] table plus np.add.at(table, rows, w[..., None] * g[:, None]).

    rows [B, K] ints, g [B, D], w [B, K] (None: every weight is one, added
    without a product). When D is even, as d and a memory's d_h always
    are, the add runs on column pairs: the flat table and the contributions
    are viewed as complex numbers, whose sum adds the two parts apart, at
    cells rows * (D // 2) + pair; an odd D adds single columns at cells
    rows * D + column. It goes a block of rows of g at a time: the block's
    contributions and cells go into two buffers of at most _CELL_BLOCK (or
    one row's K * D) values, reused by every block. Each element still sums
    its contributions in (b, k) order, so the result is bitwise the
    row-wise add's.
    """
    rows = rows.astype(np.intp, copy=False)  # narrow ints would wrap in rows * D
    (B, K), D = rows.shape, g.shape[1]
    lanes = 2 - D % 2  # table columns per added element
    unit = np.promote_types(g.dtype, np.complex64) if lanes == 2 else g.dtype
    width = D // lanes
    table = np.zeros(size * D, dtype=g.dtype)
    step = max(1, _CELL_BLOCK // max(K * D, 1))
    cells = np.empty((min(step, B), K, width), dtype=np.intp)
    contrib = None if w is None else np.empty((min(step, B), K, D), dtype=g.dtype)
    g_units = np.ascontiguousarray(g).view(unit) if w is None else None
    cols = np.arange(width)
    for b0 in range(0, B, step):
        b1 = min(b0 + step, B)
        c = np.add(rows[b0:b1, :, None] * width, cols, out=cells[:b1 - b0])
        if w is None:
            v = np.broadcast_to(g_units[b0:b1, None, :], c.shape)
        else:
            v = np.multiply(g[b0:b1, None, :], w[b0:b1, :, None],
                            out=contrib[:b1 - b0]).view(unit)
        np.add.at(table.view(unit), c.reshape(-1), v.reshape(-1))
    return table.reshape(size, D)


def dedup_scatter_backward(g_out: np.ndarray, idx: np.ndarray, w: np.ndarray,
                           table_size: int) -> np.ndarray:
    """Gradient of out[b] = sum_k w[b, k] * table[idx[b, k]] w.r.t. the table.

    g_out [B, D], idx [B, K], w [B, K] -> [table_size, D]. One indexed add
    of the B*K weighted contributions into a zeroed table, run on column
    pairs a block at a time (_scatter_rows): each table element
    sums its contributions in (b, k) order, however often its slot repeats,
    exactly as a row-wise np.add.at would.
    """
    if np.any(idx < 0) or np.any(idx >= table_size):
        raise ValueError(f"slot index out of range for table of {table_size}")
    return _scatter_rows(idx, g_out, table_size, w)


def weight_grad_backward(g_out: np.ndarray, idx: np.ndarray,
                         table: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the pooling weights: grad[b, k] = g_out[b] . table[idx[b, k]].

    g_out [B, D], idx [B, K] -> [B, K]. table[idx] is gathered for a block
    of rows at a time, at most _GATHER_BLOCK values (or one row's K * D);
    each row's products are the unblocked einsum's, bit for bit.
    """
    if np.any(idx < 0) or np.any(idx >= table.shape[0]):
        raise ValueError(f"slot index out of range for table of {table.shape[0]}")
    (B, K), D = idx.shape, table.shape[1]
    out = np.empty((B, K), dtype=np.result_type(g_out, table))
    step = max(1, _GATHER_BLOCK // max(K * D, 1))
    for b0 in range(0, B, step):
        b1 = min(b0 + step, B)
        out[b0:b1] = np.einsum("bd,bkd->bk", g_out[b0:b1], table[idx[b0:b1]])
    return out


# ---------------------------------------------------------------------------
# dense layer backwards

def softmax_backward(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    g = dy - np.sum(dy * y, axis=-1, keepdims=True)
    return np.multiply(g, y, out=g)


def rms_norm_backward(dy: np.ndarray, cache: dict, with_gain: bool = True):
    """(dx, dgain); dgain is None when with_gain is False."""
    x, inv, gain = cache["x"], cache["inv"], cache["gain"]
    d = x.shape[-1]
    gy = dy * gain
    dot = np.sum(gy * x, axis=-1, keepdims=True)
    dx = gy * inv - x * (inv ** 3 / d) * dot
    dgain = np.sum(dy * x * inv, axis=tuple(range(x.ndim - 1))) if with_gain else None
    return dx, dgain


def _norm_backward(dy: np.ndarray, cache: dict, grads: GradStore, path: str) -> np.ndarray:
    dx, dgain = rms_norm_backward(dy, cache, grads.wants(path))
    if dgain is not None:
        grads.add(path, dgain)
    return dx


def lm_loss_backward(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross entropy over every row of logits [rows, V]."""
    s = logits.shape[0]
    d = softmax(logits)
    d[np.arange(s), targets] -= 1.0
    return d / s


def _add_block(acc: np.ndarray, part: np.ndarray, i0: int) -> None:
    """Sum query block [i0, i1)'s part [B, H, i1, d_h] into acc over
    positions [0, i1): positions below i0 already hold earlier blocks'
    sums, positions i0.. are first written here."""
    acc[:, :, :i0] += part[:, :, :i0]
    acc[:, :, i0:part.shape[2]] = part[:, :, i0:]


def attention_backward(dout: np.ndarray, cache: dict, p: AttentionParams,
                       grads: GradStore, prefix: str) -> np.ndarray:
    """Backward of causal_attention; returns the gradient w.r.t. xn.

    Walks the forward's query blocks: dqr sums over CHUNK-key pieces, dkr
    and dv sum over the query blocks in block order, and every weight
    gradient sums over CHUNK-row pieces. When grads.probes is a dict,
    records (per-head outputs, their gradients) there under `prefix`, each
    [B, H, s, d_h] like the cache's ctx, which is what head-importance
    scoring reads.
    """
    xn, s = cache["xn"], cache["seq_len"]
    rows, d = xn.shape
    d_h = d // p.heads
    if p.w_o is None:
        dcat = dout
    else:
        grads.add_matmul(f"{prefix}.w_o", cache["cat"], dout)
        dcat = dout @ p.w_o.T
    dctx = split_heads(dcat, p.heads, s)  # [B, H, s, d_h]
    if grads.probes is not None:
        grads.probes[prefix] = (cache["ctx"], dctx)
    v, qr, kr = cache["v"], cache["qr"], cache["kr"]
    shape = (rows // s, s, p.heads, d_h)  # token rows by head, as the forward's RoPE
    dq, dk, dv = (np.empty(shape, dtype=xn.dtype) for _ in range(3))
    dqr, dkr, dvh = (g.transpose(0, 2, 1, 3) for g in (dq, dk, dv))
    for probs, (i0, i1) in zip(cache["attn"], query_blocks(s)):
        dctx_i = dctx[:, :, i0:i1]
        dscores = softmax_backward(probs, dctx_i @ v[:, :, :i1].swapaxes(-1, -2))
        dscores /= math.sqrt(d_h)
        dqr[:, :, i0:i1] = chunked_matmul(dscores, kr[:, :, :i1])
        _add_block(dkr, dscores.swapaxes(-1, -2) @ qr[:, :, i0:i1], i0)
        _add_block(dvh, probs.swapaxes(-1, -2) @ dctx_i, i0)
    dq = apply_rope(dq, cache["cos"], cache["sin"], inverse=True).reshape(rows, d)
    dk = apply_rope(dk, cache["cos"], cache["sin"], inverse=True).reshape(rows, d)
    dv = dv.reshape(rows, d)
    grads.add_matmul(f"{prefix}.w_q", xn, dq)
    grads.add_matmul(f"{prefix}.w_k", xn, dk)
    grads.add_matmul(f"{prefix}.w_v", xn, dv)
    return dq @ p.w_q.T + dk @ p.w_k.T + dv @ p.w_v.T


def ffn_backward(dy: np.ndarray, cache: dict, p, grads: GradStore,
                 prefix: str) -> np.ndarray:
    z, g, u, sg = cache["z"], cache["g"], cache["u"], cache["sg"]
    if grads.wants(f"{prefix}.w_down"):
        # h = silu(g) * u by the forward's own expression, so the same bits
        grads.add_matmul(f"{prefix}.w_down", g * sg * u, dy)
    dh = dy @ p.w_down.T
    du = dh * (g * sg)
    dg = dh * u * (sg * (1.0 + g * (1.0 - sg)))  # silu'(g)
    grads.add_matmul(f"{prefix}.w_gate", z, dg)
    grads.add_matmul(f"{prefix}.w_up", z, du)
    return dg @ p.w_gate.T + du @ p.w_up.T


def transformer_block_backward(dy: np.ndarray, cache: dict, p: TransformerBlockParams,
                               grads: GradStore, prefix: str) -> np.ndarray:
    dxn2 = ffn_backward(dy, cache["ffn"], p.ffn, grads, f"{prefix}.ffn")
    da = dy + _norm_backward(dxn2, cache["norm2"], grads, f"{prefix}.ffn_gain")
    dxn1 = attention_backward(da, cache["attn"], p.attn, grads, f"{prefix}.attn")
    return da + _norm_backward(dxn1, cache["norm1"], grads, f"{prefix}.attn_gain")


# ---------------------------------------------------------------------------
# memory layer backwards

def _key_backward(dsel: np.ndarray, ids: np.ndarray, width: int, q: np.ndarray,
                  keys: np.ndarray, grads: GradStore, path: str) -> np.ndarray:
    """Backward of scores = head_scores(q, keys) through the selected entries.

    dsel [rows, H, k] are gradients of the scores at ids [rows, H, k] (ids
    may repeat within a row: sub-key axes); q [rows, H, w], keys [H, width,
    w]. One scatter over [rows, H, width] forms the score gradient. Returns
    dq [rows, H, w]; the key gradient is formed only when path is kept.
    """
    rows, heads, _ = ids.shape
    slot = ids + width * np.arange(rows * heads).reshape(rows, heads, 1)
    ds = np.bincount(slot.ravel(), dsel.ravel(), rows * heads * width)
    ds = ds.astype(q.dtype, copy=False).reshape(rows, heads, width).swapaxes(0, 1)
    if grads.wants(path):
        grads.add(path, chunked_matmul(ds.swapaxes(1, 2), q.swapaxes(0, 1)))
    return (ds @ keys).swapaxes(0, 1)


def retrieve_backward(dm: np.ndarray, mcache: dict, p: MemoryBlockParams,
                      grads: GradStore, prefix: str) -> np.ndarray:
    """Backward of layers.retrieve for every kind; returns the gradient
    w.r.t. its input rows a.

    Value pooling, selection weights, key scores and the query pipeline each
    run once over all [rows, H, ...]. linear and pkm bag every (row, head)
    pair with the upstream gradient of its row: dm pairs with idx and w as
    [rows, H * k], in (row, head, k) order, so no row is copied per head.
    headwise first takes it through the per-head transform and bags
    [rows * H, k].
    """
    cfg, bank, kind = p.cfg, p.bank, p.kind.kind
    idx, w = mcache["idx"], mcache["w"]
    rows, heads, k = idx.shape
    if kind == "headwise":
        table, table_path = bank.values.v_base, f"{prefix}.bank.values.v_base"
        dmh = dm.reshape(rows, heads, cfg.d_h)
        w_heads = f"{prefix}.bank.values.w_heads"
        if grads.wants(w_heads):
            pooled = np.einsum("shk,shkd->shd", w, table[idx])
            grads.add(w_heads, np.einsum("shi,shj->hij", dmh, pooled))
        g_out = np.einsum("shi,hij->shj", dmh, bank.values.w_heads)
        g_out = g_out.reshape(rows * heads, cfg.d_h)
    else:
        table, table_path = bank.values, f"{prefix}.bank.values"
        g_out = dm
    idx_f, w_f = idx.reshape(len(g_out), -1), w.reshape(len(g_out), -1)
    if grads.wants(table_path):
        grads.add(table_path, dedup_scatter_backward(g_out, idx_f, w_f, cfg.N))
        # unique slots written; idx is range-checked, so N bins count them exactly
        grads.writes += int(np.count_nonzero(np.bincount(idx.ravel(), minlength=cfg.N)))
    dw = weight_grad_backward(g_out, idx_f, table)
    dsums = softmax_backward(w, dw.reshape(rows, heads, k))
    qh = mcache["q"].reshape(rows, heads, cfg.d_h)
    if kind == "linear":
        dq = _key_backward(dsums, idx, cfg.N, qh, bank.keys, grads, f"{prefix}.bank.keys")
    else:
        n, d_p, pk = cfg.n, cfg.d_p, bank.pk
        dq = np.concatenate([
            _key_backward(dsums, idx // n, n, qh[..., :d_p], pk.k_row, grads,
                          f"{prefix}.bank.pk.k_row"),
            _key_backward(dsums, idx % n, n, qh[..., d_p:], pk.k_col, grads,
                          f"{prefix}.bank.pk.k_col")], axis=-1)
    dq = dq.reshape(rows, cfg.d)
    if kind == "headwise":
        return dq
    dq = _norm_backward(dq, mcache["ln"], grads, f"{prefix}.query_ln_gain")
    grads.add_matmul(f"{prefix}.bank.w_q", mcache["a"], dq)
    return dq @ bank.w_q.T


def memory_block_backward(dy: np.ndarray, cache: dict, p: MemoryBlockParams,
                          grads: GradStore, prefix: str) -> np.ndarray:
    da = retrieve_backward(dy, cache["mem"], p, grads, prefix)
    dxn = attention_backward(da, cache["attn"], p.attn, grads, f"{prefix}.attn")
    dx = dy + _norm_backward(dxn, cache["norm"], grads, f"{prefix}.norm_gain")
    if p.kind.kind != "headwise":
        dx = dx + da  # the internal residual
    return dx


# ---------------------------------------------------------------------------
# whole model

def first_visited_block(model: ModelSpec, grads: GradStore) -> int:
    """Index of the lowest block model_backward visits for grads.

    0 when grads keeps the embedding or collects probes, else the lowest
    block with a kept parameter (len(model.blocks) when there is none).
    The answer is kept in grads.visit, so the parameter walk runs once per
    store and model: a training step's calls, and each call's forward and
    backward, share it.
    """
    if grads.visit is None or grads.visit[0] is not model:
        stop = 0
        if grads.probes is None and not grads.wants("embed"):
            stop = next((i for i in range(len(model.blocks))
                         if any(grads.wants(p) for p in block_param_paths(model, i))),
                        len(model.blocks))
        grads.visit = (model, stop)
    return grads.visit[1]


def model_backward(dlogits: np.ndarray, caches: dict, model: ModelSpec,
                   grads: GradStore) -> GradStore:
    """Reverse pass over the whole stack, adding into grads; returns grads.

    dlogits: [s, V] or [B, s, V], the shape model_forward returned. Only
    the paths grads keeps get a weight gradient, and the walk visits the
    blocks from first_visited_block up: each of them needs its cache, the
    ones below may hold None (model_forward's collect_from), and a missing
    cache raises ValueError before anything is added. Each kept path is
    added at most once per call, and grads.writes grows by the unique
    value-table slots written.
    """
    stop = first_visited_block(model, grads)
    for i in range(stop, len(model.blocks)):
        if caches["blocks"][i] is None:
            raise ValueError(f"block {i} has no cache, but the backward for this "
                             f"gradient store visits blocks {stop} and up")
    dlogits = dlogits.reshape(-1, model.vocab)
    grads.add_matmul("unembed", caches["xf"], dlogits)
    dx = _norm_backward(dlogits @ model.unembed.T, caches["final"], grads, "final_gain")
    for i in reversed(range(stop, len(model.blocks))):
        block = model.blocks[i]
        cache = caches["blocks"][i]
        if isinstance(block, TransformerBlockParams):
            dx = transformer_block_backward(dx, cache, block, grads, f"blocks.{i}")
        else:
            dx = memory_block_backward(dx, cache, block, grads, f"blocks.{i}")
    if grads.wants("embed"):
        grads.add("embed", _scatter_rows(caches["tokens"][:, None], dx, model.vocab))
    return grads
