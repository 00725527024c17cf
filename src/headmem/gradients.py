"""Hand-derived backward passes for every layer in the stack.

No autodiff anywhere: each forward cache carries exactly what its backward
consumes, and model_backward walks the block list in reverse accumulating
parameter gradients into a GradStore keyed by the dotted parameter paths
from model.named_params. Activations are token rows [B*s, ...] of a batch of
equal-length sequences, so every weight gradient sums over the whole batch.

Frozen parameters cost nothing: a weight gradient is formed only when the
GradStore keeps its path, and the reverse walk stops at the lowest block
that has a kept parameter unless the embedding or head probes need more.

Selection is treated as a constant routing decision: gradients flow through
the softmax weights and the value rows of the selected slots only, and
sub-keys receive gradient only through their selected additive scores.
There is no straight-through approximation.

The value-table gradient uses the deduplicated scatter: per-contribution
gradients are pre-aggregated over the unique slot ids touched in the batch,
then written to the full table in one indexed pass. The result is bitwise
identical to the naive one-write-per-contribution scatter because each
slot's contributions accumulate in the same order either way.
"""

from __future__ import annotations

import math

import numpy as np

from .layers import MemoryBlockParams
from .model import ModelSpec, block_param_paths
from .numerics import softmax
from .transformer import (
    AttentionParams,
    TransformerBlockParams,
    apply_rope,
    merge_heads,
    split_heads,
)


class GradStore(dict):
    """Accumulated parameter gradients, optionally restricted to a path set.

    Backwards ask `wants(path)` before forming a gradient, so frozen paths
    cost no arithmetic; `add` still drops paths outside `allowed`, which keeps
    frozen parameter groups at exactly zero accumulated gradient.
    """

    def __init__(self, allowed: set[str] | None = None):
        super().__init__()
        self.allowed = allowed

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
        """Add the weight gradient a.T @ b, formed only when path is kept."""
        if self.wants(path):
            self.add(path, a.T @ b)

    def total_abs(self) -> float:
        return float(sum(np.sum(np.abs(g)) for g in self.values()))


# ---------------------------------------------------------------------------
# scatter kernels

def dedup_scatter_backward(g_out: np.ndarray, idx: np.ndarray, w: np.ndarray,
                           table_size: int, counter: dict | None = None) -> np.ndarray:
    """Gradient of out[b] = sum_k w[b, k] * table[idx[b, k]] w.r.t. the table.

    g_out [B, D], idx [B, K], w [B, K] -> [table_size, D]. Contributions are
    expanded to one row per (b, k), pre-aggregated over the unique ids via an
    indexed add, and written to the table in a single pass over those unique
    rows. counter, when given, tallies 'writes' (unique ids, the global-table
    touches) and 'contributions' (B * K).
    """
    B, K = idx.shape
    D = g_out.shape[-1]
    if np.any(idx < 0) or np.any(idx >= table_size):
        raise ValueError(f"slot index out of range for table of {table_size}")
    g_token = (g_out[:, None, :] * w[:, :, None]).reshape(B * K, D)
    flat = idx.reshape(B * K)
    uniq, inv = np.unique(flat, return_inverse=True)
    g_agg = np.zeros((uniq.size, D), dtype=g_out.dtype)
    np.add.at(g_agg, inv, g_token)
    g_table = np.zeros((table_size, D), dtype=g_out.dtype)
    g_table[uniq] = g_agg
    if counter is not None:
        counter["writes"] = counter.get("writes", 0) + int(uniq.size)
        counter["contributions"] = counter.get("contributions", 0) + B * K
    return g_table


def naive_scatter_backward(g_out: np.ndarray, idx: np.ndarray, w: np.ndarray,
                           table_size: int) -> np.ndarray:
    """Reference scatter: one indexed add per contribution, no dedup."""
    B, K = idx.shape
    g_token = (g_out[:, None, :] * w[:, :, None]).reshape(B * K, -1)
    g_table = np.zeros((table_size, g_out.shape[-1]), dtype=g_out.dtype)
    np.add.at(g_table, idx.reshape(B * K), g_token)
    return g_table


def weight_grad_backward(g_out: np.ndarray, idx: np.ndarray,
                         table: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the pooling weights: grad[b, k] = g_out[b] . table[idx[b, k]]."""
    if np.any(idx < 0) or np.any(idx >= table.shape[0]):
        raise ValueError(f"slot index out of range for table of {table.shape[0]}")
    return np.einsum("bd,bkd->bk", g_out, table[idx])


# ---------------------------------------------------------------------------
# dense layer backwards

def softmax_backward(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    dot = np.sum(dy * y, axis=-1, keepdims=True)
    return y * (dy - dot)


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
    d = softmax(logits, axis=-1)
    d[np.arange(s), targets] -= 1.0
    return d / s


def batchnorm_backward(dy: np.ndarray, cache: dict, with_params: bool = True):
    """(dx, dgamma, dbeta); training-mode moments are per sequence, as in
    the forward. dgamma and dbeta are None when with_params is False."""
    xhat, inv, gamma = cache["xhat"], cache["inv"], cache["gamma"]
    dgamma = np.sum(dy * xhat, axis=0) if with_params else None
    dbeta = np.sum(dy, axis=0) if with_params else None
    if cache["training"]:
        rows, f = dy.shape
        s = cache["seq_len"]
        dxhat = (dy * gamma).reshape(rows // s, s, f)
        xh = xhat.reshape(rows // s, s, f)
        dx = inv * (dxhat - np.mean(dxhat, axis=1, keepdims=True)
                    - xh * np.mean(dxhat * xh, axis=1, keepdims=True))
        dx = dx.reshape(rows, f)
    else:
        dx = dy * gamma * inv
    return dx, dgamma, dbeta


def attention_backward(dout: np.ndarray, cache: dict, p: AttentionParams,
                       grads: GradStore, prefix: str,
                       probe: dict | None = None) -> np.ndarray:
    """Backward of causal_attention; returns the gradient w.r.t. xn.

    probe, when given, records (per-head outputs, their gradients) under
    `prefix`, shaped like the cache's ctx, which is what head-importance
    scoring reads.
    """
    xn = cache["xn"]
    d_h = xn.shape[1] // p.heads
    if cache["project"]:
        grads.add_matmul(f"{prefix}.w_o", cache["cat"], dout)
        dcat = dout @ p.w_o.T
    else:
        dcat = dout
    dctx = split_heads(dcat, p.heads, cache["seq_len"])  # [B, H, s, d_h]
    if probe is not None:
        probe[prefix] = (cache["ctx"], dctx)
    attn, v, qr, kr = cache["attn"], cache["v"], cache["qr"], cache["kr"]
    dattn = dctx @ v.swapaxes(-1, -2)  # [B, H, s, s]
    dv = attn.swapaxes(-1, -2) @ dctx
    dscores = softmax_backward(attn, dattn) / math.sqrt(d_h)
    dqr = dscores @ kr
    dkr = dscores.swapaxes(-1, -2) @ qr
    dq = merge_heads(apply_rope(dqr, cache["cos"], cache["sin"], inverse=True))
    dk = merge_heads(apply_rope(dkr, cache["cos"], cache["sin"], inverse=True))
    dvf = merge_heads(dv)
    grads.add_matmul(f"{prefix}.w_q", xn, dq)
    grads.add_matmul(f"{prefix}.w_k", xn, dk)
    grads.add_matmul(f"{prefix}.w_v", xn, dvf)
    return dq @ p.w_q.T + dk @ p.w_k.T + dvf @ p.w_v.T


def ffn_backward(dy: np.ndarray, cache: dict, p, grads: GradStore,
                 prefix: str) -> np.ndarray:
    z, g, u, sg, h = cache["z"], cache["g"], cache["u"], cache["sg"], cache["h"]
    grads.add_matmul(f"{prefix}.w_down", h, dy)
    dh = dy @ p.w_down.T
    du = dh * (g * sg)
    dg = dh * u * (sg * (1.0 + g * (1.0 - sg)))  # silu'(g)
    grads.add_matmul(f"{prefix}.w_gate", z, dg)
    grads.add_matmul(f"{prefix}.w_up", z, du)
    return dg @ p.w_gate.T + du @ p.w_up.T


def transformer_block_backward(dy: np.ndarray, cache: dict, p: TransformerBlockParams,
                               grads: GradStore, prefix: str,
                               probe: dict | None = None) -> np.ndarray:
    dxn2 = ffn_backward(dy, cache["ffn"], p.ffn, grads, f"{prefix}.ffn")
    da = dy + _norm_backward(dxn2, cache["norm2"], grads, f"{prefix}.ffn_gain")
    dxn1 = attention_backward(da, cache["attn"], p.attn, grads, f"{prefix}.attn", probe)
    return da + _norm_backward(dxn1, cache["norm1"], grads, f"{prefix}.attn_gain")


# ---------------------------------------------------------------------------
# memory layer backwards

def _subkey_backward(dsums: np.ndarray, idx: np.ndarray, q: np.ndarray, pk,
                     grads: GradStore, prefix: str) -> np.ndarray:
    """Route selected-score gradients back to sub-keys and queries.

    dsums [s, H, k] are gradients of the selected additive pair scores;
    idx [s, H, k] their flat slot ids; q [s, d] the per-head query matrix.
    Returns dq [s, d]. Sub-key gradients are formed only for kept paths.
    """
    s, heads, _ = dsums.shape
    n = pk.k_row.shape[1]
    d_p = pk.k_row.shape[2]
    d_h = 2 * d_p
    rows_sel = idx // n
    cols_sel = idx % n
    k_row, k_col = f"{prefix}.bank.pk.k_row", f"{prefix}.bank.pk.k_col"
    want_keys = grads.wants(k_row) or grads.wants(k_col)
    dq = np.zeros_like(q)
    dk_row = np.zeros_like(pk.k_row)
    dk_col = np.zeros_like(pk.k_col)
    take = np.arange(s)[:, None]
    for h in range(heads):
        ds_row = np.zeros((s, n), dtype=q.dtype)
        ds_col = np.zeros((s, n), dtype=q.dtype)
        np.add.at(ds_row, (take, rows_sel[:, h]), dsums[:, h])
        np.add.at(ds_col, (take, cols_sel[:, h]), dsums[:, h])
        q_h = q[:, h * d_h:(h + 1) * d_h]
        dq[:, h * d_h:h * d_h + d_p] = ds_row @ pk.k_row[h]
        dq[:, h * d_h + d_p:(h + 1) * d_h] = ds_col @ pk.k_col[h]
        if want_keys:
            dk_row[h] = ds_row.T @ q_h[:, :d_p]
            dk_col[h] = ds_col.T @ q_h[:, d_p:]
    if want_keys:
        grads.add(k_row, dk_row)
        grads.add(k_col, dk_col)
    return dq


def _query_pipeline_backward(dq: np.ndarray, mcache: dict, p: MemoryBlockParams,
                             grads: GradStore, prefix: str) -> np.ndarray:
    if mcache["ln"] is not None:
        dq = _norm_backward(dq, mcache["ln"], grads, f"{prefix}.query_ln_gain")
    if mcache["bn"] is not None:
        gamma, beta = f"{prefix}.query_bn.gamma", f"{prefix}.query_bn.beta"
        dq, dgamma, dbeta = batchnorm_backward(
            dq, mcache["bn"], grads.wants(gamma) or grads.wants(beta))
        if dgamma is not None:
            grads.add(gamma, dgamma)
            grads.add(beta, dbeta)
    return dq


def _headwise_memory_backward(dm: np.ndarray, mcache: dict, p: MemoryBlockParams,
                              grads: GradStore, prefix: str,
                              counter: dict | None) -> np.ndarray:
    cfg = p.cfg
    bank = p.bank
    s = dm.shape[0]
    idx, w = mcache["idx"], mcache["w"]
    pooled = mcache["pooled"]  # [s, H, d_h]
    dmh = dm.reshape(s, cfg.heads, cfg.d_h)
    if grads.wants(f"{prefix}.bank.values.w_heads"):
        grads.add(f"{prefix}.bank.values.w_heads",
                  np.einsum("shi,shj->hij", dmh, pooled))
    dpooled = np.einsum("shi,hij->shj", dmh, bank.values.w_heads)
    g_out = dpooled.reshape(s * cfg.heads, cfg.d_h)
    idx_f = idx.reshape(s * cfg.heads, cfg.k)
    w_f = w.reshape(s * cfg.heads, cfg.k)
    if grads.wants(f"{prefix}.bank.values.v_base"):
        grads.add(f"{prefix}.bank.values.v_base",
                  dedup_scatter_backward(g_out, idx_f, w_f, cfg.N, counter))
    dw = weight_grad_backward(g_out, idx_f, bank.values.v_base)
    dsums = softmax_backward(w, dw.reshape(s, cfg.heads, cfg.k))
    dq = _subkey_backward(dsums, idx, mcache["q"], bank.pk, grads, prefix)
    return _query_pipeline_backward(dq, mcache, p, grads, prefix)


def _fullwidth_memory_backward(dm: np.ndarray, mcache: dict, p: MemoryBlockParams,
                               grads: GradStore, prefix: str,
                               counter: dict | None) -> np.ndarray:
    """Shared path of the linear and pkm kinds: per-head pooling of full-width
    value rows summed over heads, then kind-specific scoring backward."""
    cfg = p.cfg
    bank = p.bank
    s, d = dm.shape
    idx, w = mcache["idx"], mcache["w"]
    heads, k = idx.shape[1], idx.shape[2]
    # every head pools the same upstream gradient: bag (token, head) -> dm[token]
    g_out = np.broadcast_to(dm[:, None, :], (s, heads, d)).reshape(s * heads, d)
    idx_f = idx.reshape(s * heads, k)
    w_f = w.reshape(s * heads, k)
    if grads.wants(f"{prefix}.bank.values"):
        grads.add(f"{prefix}.bank.values",
                  dedup_scatter_backward(g_out, idx_f, w_f, cfg.N, counter))
    dw = weight_grad_backward(g_out, idx_f, bank.values)
    dsums = softmax_backward(w, dw.reshape(s, heads, k))
    q = mcache["q"]
    if mcache["kind"] == "pkm":
        dq = _subkey_backward(dsums, idx, q, bank.pk, grads, prefix)
    else:
        d_h = d // heads
        want_keys = grads.wants(f"{prefix}.bank.keys")
        dq = np.zeros_like(q)
        dkeys = np.zeros_like(bank.keys)
        take = np.arange(s)[:, None]
        for h in range(heads):
            ds = np.zeros((s, cfg.N), dtype=q.dtype)
            np.add.at(ds, (take, idx[:, h]), dsums[:, h])
            dq[:, h * d_h:(h + 1) * d_h] = ds @ bank.keys[h]
            if want_keys:
                dkeys[h] = ds.T @ q[:, h * d_h:(h + 1) * d_h]
        if want_keys:
            grads.add(f"{prefix}.bank.keys", dkeys)
    dq = _query_pipeline_backward(dq, mcache, p, grads, prefix)
    grads.add_matmul(f"{prefix}.bank.w_q", mcache["a"], dq)
    return dq @ bank.w_q.T


def memory_block_backward(dy: np.ndarray, cache: dict, p: MemoryBlockParams,
                          grads: GradStore, prefix: str,
                          probe: dict | None = None,
                          counter: dict | None = None) -> np.ndarray:
    mcache = cache["mem"]
    if mcache["kind"] == "headwise":
        if mcache["pooled"] is None:
            raise ValueError("cached-value forward has no backward path")
        da = _headwise_memory_backward(dy, mcache, p, grads, prefix, counter)
    else:
        da = _fullwidth_memory_backward(dy, mcache, p, grads, prefix, counter)
    dxn = attention_backward(da, cache["attn"], p.attn, grads, f"{prefix}.attn", probe)
    dx = dy + _norm_backward(dxn, cache["norm"], grads, f"{prefix}.norm_gain")
    if cache["residual"]:
        dx = dx + da
    return dx


# ---------------------------------------------------------------------------
# whole model

def model_backward(dlogits: np.ndarray, caches: dict, model: ModelSpec,
                   allowed: set[str] | None = None,
                   probes: dict | None = None,
                   counter: dict | None = None) -> GradStore:
    """Reverse pass over the whole stack; returns accumulated GradStore.

    dlogits: [s, V] or [B, s, V], the shape model_forward returned. allowed
    restricts which parameter paths get gradients: no other weight gradient
    is formed, and unless the embedding is allowed or probes are requested
    the walk stops at the lowest block with an allowed parameter. probes
    collects per-head attention outputs and gradients by block prefix.
    counter tallies value-table scatter statistics.
    """
    grads = GradStore(allowed)
    dlogits = dlogits.reshape(-1, model.vocab)
    grads.add_matmul("unembed", caches["xf"], dlogits)
    dx = _norm_backward(dlogits @ model.unembed.T, caches["final"], grads, "final_gain")
    stop = 0
    if probes is None and not grads.wants("embed"):
        stop = next((i for i in range(len(model.blocks))
                     if any(grads.wants(p) for p in block_param_paths(model, i))),
                    len(model.blocks))
    for i in reversed(range(stop, len(model.blocks))):
        block = model.blocks[i]
        cache = caches["blocks"][i]
        if isinstance(block, TransformerBlockParams):
            dx = transformer_block_backward(dx, cache, block, grads, f"blocks.{i}", probes)
        else:
            dx = memory_block_backward(dx, cache, block, grads, f"blocks.{i}", probes,
                                       counter)
    if grads.wants("embed"):
        demb = np.zeros_like(model.embed)
        np.add.at(demb, caches["tokens"], dx)
        grads.add("embed", demb)
    return grads
