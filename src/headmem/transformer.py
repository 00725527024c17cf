"""Pre-norm decoder primitives: rotary causal attention, gated FFN, blocks.

Forward functions return (output, cache); the cache dict carries exactly the
intermediates the hand-derived backward passes consume. Norms are RMS-style
with a learned gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import softmax

ROPE_BASE = 10000.0  # rotary frequency base
NORM_EPS = 1e-6  # added to the mean square inside every RMS norm


@dataclass
class AttentionParams:
    w_q: np.ndarray  # [d, d]
    w_k: np.ndarray  # [d, d]
    w_v: np.ndarray  # [d, d]
    w_o: np.ndarray | None  # [d, d]; None when the block consumes raw head outputs
    heads: int


@dataclass
class FfnParams:
    w_gate: np.ndarray  # [d, d_ff]
    w_up: np.ndarray  # [d, d_ff]
    w_down: np.ndarray  # [d_ff, d]


@dataclass
class TransformerBlockParams:
    attn: AttentionParams
    attn_gain: np.ndarray  # [d]
    ffn: FfnParams
    ffn_gain: np.ndarray  # [d]


def sigmoid(x: np.ndarray) -> np.ndarray:
    # e = exp(-|x|) never overflows: x >= 0 takes 1 / (1 + e), the rest
    # e / (1 + e), the same arithmetic as branching on the sign. min(x, -x)
    # passes a NaN through with its own sign, as exp(x) on that branch does.
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def rms_norm_fwd(x: np.ndarray, gain: np.ndarray):
    inv = 1.0 / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + NORM_EPS)
    return x * inv * gain, {"x": x, "inv": inv, "gain": gain}


def rope_tables(s: int, d_h: int, dtype):
    """cos/sin tables [s, d_h/2] for rotary position offsets 0..s-1."""
    if d_h % 2 != 0:
        raise ValueError("head width must be even for rotary pairs")
    half = d_h // 2
    freqs = ROPE_BASE ** (-np.arange(half, dtype=np.float64) * 2.0 / d_h)
    ang = np.arange(s, dtype=np.float64)[:, None] * freqs[None, :]
    return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)


_TABLES: dict = {}  # read-only attention tables, see attention_tables


def attention_tables(s: int, d_h: int, dtype):
    """cos, sin [s, d_h/2] and the additive causal mask [s, s] (-inf above
    the diagonal), sliced from read-only tables grown to the longest length
    seen: one mask per dtype, one cos/sin pair per (d_h, dtype). Both
    are prefix-consistent, so a slice is bitwise the table of that length."""
    dtype = np.dtype(dtype)
    rope, mask = _TABLES.get((d_h, dtype)), _TABLES.get(dtype)
    if rope is None or len(rope[0]) < s:
        rope = _TABLES[(d_h, dtype)] = rope_tables(s, d_h, dtype)
    if mask is None or len(mask) < s:
        mask = _TABLES[dtype] = np.triu(np.full((s, s), -np.inf, dtype=dtype), k=1)
    for t in (*rope, mask):
        t.flags.writeable = False
    return rope[0][:s], rope[1][:s], mask[:s, :s]


def apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, inverse: bool = False):
    """Rotate half-split pairs (x[i], x[i + d_h/2]) by the position angle.

    x: [..., H, s, d_h]; inverse applies the transposed rotation, used by the
    backward pass (rotations are orthogonal).
    """
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    if inverse:
        r1 = x1 * cos + x2 * sin
        r2 = -x1 * sin + x2 * cos
    else:
        r1 = x1 * cos - x2 * sin
        r2 = x1 * sin + x2 * cos
    return np.concatenate([r1, r2], axis=-1)


def split_heads(x: np.ndarray, heads: int, seq_len: int | None = None) -> np.ndarray:
    """[B*s, d] -> [B, H, s, d_h] for B sequences of seq_len rows (seq_len
    None: one sequence, B = 1)."""
    rows, d = x.shape
    s = rows if seq_len is None else seq_len
    return x.reshape(rows // s, s, heads, d // heads).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """[B, H, s, d_h] -> [B*s, d], the inverse of split_heads."""
    return x.swapaxes(1, 2).reshape(-1, x.shape[1] * x.shape[3])


def causal_attention(xn: np.ndarray, p: AttentionParams, seq_len: int | None = None):
    """Multi-head causal self-attention over the sequences stacked in xn.

    xn: [B*s, d] (already normalized by the caller), B sequences of seq_len
    rows each; seq_len None means one sequence (B = 1). Position r of a
    sequence attends to its positions <= r. Projections run over all rows
    at once; heads, scores and context are [B, H, s, ...]. The concatenated
    head outputs go through p.w_o; attention without an output projection
    (p.w_o None) returns them raw, which downstream memory layers consume
    as queries. Returns (out [B*s, d], cache).
    """
    rows, d = xn.shape
    s = rows if seq_len is None else seq_len
    if s < 1 or rows % s:
        raise ValueError(f"{rows} rows do not split into sequences of {s}")
    d_h = d // p.heads
    q = split_heads(xn @ p.w_q, p.heads, s)  # [B, H, s, d_h]
    k = split_heads(xn @ p.w_k, p.heads, s)
    v = split_heads(xn @ p.w_v, p.heads, s)
    cos, sin, mask = attention_tables(s, d_h, xn.dtype)
    qr = apply_rope(q, cos, sin)
    kr = apply_rope(k, cos, sin)
    # in place on the fresh scores; a python-float scale keeps f32 in f32
    scores = qr @ kr.swapaxes(-1, -2)  # [B, H, s, s]
    scores /= math.sqrt(d_h)
    scores += mask
    attn = softmax(scores, axis=-1)
    ctx = attn @ v  # [B, H, s, d_h]
    cat = merge_heads(ctx)
    out = cat if p.w_o is None else cat @ p.w_o
    cache = {
        "xn": xn, "qr": qr, "kr": kr, "v": v, "attn": attn, "ctx": ctx,
        "cat": cat, "cos": cos, "sin": sin, "seq_len": s,
    }
    return out, cache


def ffn_forward(z: np.ndarray, p: FfnParams):
    """Gated feed-forward: down(silu(z W_gate) * (z W_up))."""
    g = z @ p.w_gate
    u = z @ p.w_up
    sg = sigmoid(g)
    h = g * sg * u  # silu(g) * u
    y = h @ p.w_down
    return y, {"z": z, "g": g, "u": u, "sg": sg, "h": h}


def transformer_block_forward(x: np.ndarray, p: TransformerBlockParams,
                              seq_len: int | None = None):
    """Pre-norm residual block: attention sublayer then FFN sublayer.

    x: [B*s, d] token rows of B sequences of seq_len (None: one sequence).
    """
    xn1, ncache1 = rms_norm_fwd(x, p.attn_gain)
    ao, acache = causal_attention(xn1, p.attn, seq_len=seq_len)
    a = x + ao
    xn2, ncache2 = rms_norm_fwd(a, p.ffn_gain)
    fo, fcache = ffn_forward(xn2, p.ffn)
    y = a + fo
    cache = {"norm1": ncache1, "attn": acache, "norm2": ncache2, "ffn": fcache}
    return y, cache


def lm_loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean next-token cross entropy; targets are int token ids, one per row."""
    s, vocab = logits.shape
    if targets.shape != (s,):
        raise ValueError(f"targets shape {targets.shape} does not match {s} rows")
    if np.any(targets < 0) or np.any(targets >= vocab):
        raise ValueError("target id out of vocab range")
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=-1))
    picked = shifted[np.arange(s), targets]
    return float(np.mean(logz - picked))
