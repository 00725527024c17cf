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


@dataclass
class AttentionParams:
    w_q: np.ndarray  # [d, d]
    w_k: np.ndarray  # [d, d]
    w_v: np.ndarray  # [d, d]
    w_o: np.ndarray | None  # [d, d]; None when the block consumes raw head outputs
    heads: int
    rope_base: float = 10000.0


@dataclass
class FfnParams:
    w_gate: np.ndarray  # [d, d_ff]
    w_up: np.ndarray  # [d, d_ff]
    w_down: np.ndarray  # [d_ff, d]


@dataclass
class TransformerBlockParams:
    attn: AttentionParams
    ffn: FfnParams
    attn_gain: np.ndarray  # [d]
    ffn_gain: np.ndarray  # [d]


def sigmoid(x: np.ndarray) -> np.ndarray:
    # branch on sign to stay overflow-free on both tails
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def rms_norm_fwd(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6):
    inv = 1.0 / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + eps)
    return x * inv * gain, {"x": x, "inv": inv, "gain": gain}


def rope_tables(s: int, d_h: int, base: float, dtype):
    """cos/sin tables [s, d_h/2] for rotary position offsets 0..s-1."""
    if d_h % 2 != 0:
        raise ValueError("head width must be even for rotary pairs")
    half = d_h // 2
    freqs = base ** (-np.arange(half, dtype=np.float64) * 2.0 / d_h)
    ang = np.arange(s, dtype=np.float64)[:, None] * freqs[None, :]
    return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)


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
    """[B*s, d] -> [B, H, s, d_h]; one sequence (seq_len None or every row)
    keeps the unbatched [H, s, d_h]."""
    rows, d = x.shape
    s = rows if seq_len is None else seq_len
    out = x.reshape(rows // s, s, heads, d // heads).transpose(0, 2, 1, 3)
    return out[0] if s == rows else out


def merge_heads(x: np.ndarray) -> np.ndarray:
    """[..., H, s, d_h] -> [rows, d], leading batch dims folded into the rows."""
    return x.swapaxes(-3, -2).reshape(-1, x.shape[-3] * x.shape[-1])


def causal_attention(xn: np.ndarray, p: AttentionParams, project_output: bool = True,
                     seq_len: int | None = None):
    """Multi-head causal self-attention over the sequences stacked in xn.

    xn: [B*s, d] (already normalized by the caller), B sequences of seq_len
    rows each; seq_len None means one sequence. Position r of a sequence
    attends to its positions <= r. Projections run over all rows at once;
    only the scores reshape to [B, H, s, s] ([H, s, s] for one sequence).
    With project_output=False the concatenated raw head outputs are
    returned, which downstream memory layers consume as queries.
    Returns (out [B*s, d], cache).
    """
    if project_output and p.w_o is None:
        raise ValueError("project_output=True but attention has no output projection")
    rows, d = xn.shape
    s = rows if seq_len is None else seq_len
    if s < 1 or rows % s:
        raise ValueError(f"{rows} rows do not split into sequences of {s}")
    d_h = d // p.heads
    q = split_heads(xn @ p.w_q, p.heads, s)  # [B, H, s, d_h]
    k = split_heads(xn @ p.w_k, p.heads, s)
    v = split_heads(xn @ p.w_v, p.heads, s)
    cos, sin = rope_tables(s, d_h, p.rope_base, xn.dtype)
    qr = apply_rope(q, cos, sin)
    kr = apply_rope(k, cos, sin)
    # python-float scale and typed mask keep f32 streams in f32
    scores = qr @ kr.swapaxes(-1, -2) / math.sqrt(d_h)  # [B, H, s, s]
    mask = np.triu(np.full((s, s), -np.inf, dtype=xn.dtype), k=1)
    attn = softmax(scores + mask, axis=-1)
    ctx = attn @ v  # [B, H, s, d_h]
    cat = merge_heads(ctx)
    out = cat @ p.w_o if project_output else cat
    cache = {
        "xn": xn, "qr": qr, "kr": kr, "v": v, "attn": attn, "ctx": ctx,
        "cat": cat, "cos": cos, "sin": sin, "project": project_output,
        "seq_len": s,
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
    ao, acache = causal_attention(xn1, p.attn, project_output=True, seq_len=seq_len)
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
