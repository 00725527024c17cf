"""Pre-norm decoder primitives: rotary block-causal attention, gated FFN, blocks.

Forward functions return (output, cache); the cache dict carries exactly the
intermediates the hand-derived backward passes consume. Norms are RMS-style
with a learned gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import CHUNK, chunked_matmul, softmax

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
    # e / (1 + e), the same arithmetic as branching on the sign. The
    # numerator max(e, x >= 0) is that select without a branch per element
    # (e <= 1, so the mask's 1 wins and its 0 loses); a NaN passes through
    # both min(x, -x) and max with its own sign, as exp(x) on that branch does.
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, x >= 0)
    e += 1.0
    num /= e
    return num


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


def attention_tables(s: int, heads: int, d_h: int, dtype):
    """RoPE tables cos, sin [s, H, d_h] and the causal mask [CHUNK, CHUNK].

    Each head's row of cos holds [cos | cos] and of sin [-sin | sin] for the
    angles of rope_tables, tiled over the heads so the rotation is a flat
    product with the projection rows (apply_rope). They are sliced from
    read-only tables grown to the longest length seen, one pair per (H,
    d_h, dtype); a slice is bitwise the table of that length. The mask
    (-inf above the diagonal) is one read-only triangle per dtype, added
    to the diagonal block of each query block.
    """
    dtype = np.dtype(dtype)
    rope, mask = _TABLES.get((heads, d_h, dtype)), _TABLES.get(dtype)
    if rope is None or len(rope[0]) < s:
        cos, sin = rope_tables(s, d_h, dtype)
        rope = tuple(np.ascontiguousarray(np.broadcast_to(
            np.concatenate(halves, axis=-1)[:, None], (s, heads, d_h)))
            for halves in ((cos, cos), (-sin, sin)))
        _TABLES[(heads, d_h, dtype)] = rope
    if mask is None:
        mask = _TABLES[dtype] = np.triu(np.full((CHUNK, CHUNK), -np.inf, dtype=dtype), k=1)
    for t in (*rope, mask):
        t.flags.writeable = False
    return rope[0][:s], rope[1][:s], mask


def apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, inverse: bool = False):
    """Rotate half-split pairs (x[i], x[i + d_h/2]) by the position angle.

    x: [..., s, H, d_h] token rows; cos, sin: [s, H, d_h] from
    attention_tables. The rotation is x * cos + swap(x) * sin, swap
    exchanging the halves: the products and sums of x1 cos - x2 sin and
    x1 sin + x2 cos, bit for bit (a - b is a + (-b)). inverse applies the
    transposed rotation, x * cos - swap(x) * sin, used by the backward pass
    (rotations are orthogonal).
    """
    half = x.shape[-1] // 2
    out = x * cos
    swapped = x.reshape(*x.shape[:-1], 2, half)[..., ::-1, :]
    rot = (swapped * sin.reshape(*sin.shape[:-1], 2, half)).reshape(out.shape)
    return np.subtract(out, rot, out=out) if inverse else np.add(out, rot, out=out)


def split_heads(x: np.ndarray, heads: int, seq_len: int | None = None) -> np.ndarray:
    """[B*s, d] -> [B, H, s, d_h] for B sequences of seq_len rows (seq_len
    None: one sequence, B = 1)."""
    rows, d = x.shape
    s = rows if seq_len is None else seq_len
    return x.reshape(rows // s, s, heads, d // heads).transpose(0, 2, 1, 3)


def query_blocks(s: int):
    """(i0, i1) of each CHUNK-row query block of a length-s sequence."""
    return [(i0, min(i0 + CHUNK, s)) for i0 in range(0, s, CHUNK)]


def causal_attention(xn: np.ndarray, p: AttentionParams, seq_len: int | None = None,
                     collect: bool = True):
    """Multi-head block-causal self-attention over the sequences stacked in xn.

    xn: [B*s, d] (already normalized by the caller), B sequences of seq_len
    rows each; seq_len None means one sequence (B = 1). Position r of a
    sequence attends to its positions <= r. Projections and RoPE run over
    all rows at once. Queries go in blocks [i0, i1) of CHUNK positions:
    a block scores keys [0, i1) only, masks its diagonal block, and sums
    probs @ v over CHUNK-key pieces, so no [s, s] array is formed and the
    bits do not depend on the BLAS thread count; at s <= CHUNK this is the
    dense formula. The concatenated head outputs go through p.w_o;
    attention without an output projection (p.w_o None) returns them raw,
    which downstream memory layers consume as queries. Returns (out [B*s,
    d], cache). With collect, cache["attn"] lists each query block's
    probabilities [B, H, i1 - i0, i1], and qr, kr, v and ctx are [B, H, s,
    d_h] views; without, cache is None and each block's probabilities are
    freed once its probs @ v is summed.
    """
    rows, d = xn.shape
    s = rows if seq_len is None else seq_len
    if s < 1 or rows % s:
        raise ValueError(f"{rows} rows do not split into sequences of {s}")
    d_h = d // p.heads
    shape = (rows // s, s, p.heads, d_h)  # token rows by head
    cos, sin, mask = attention_tables(s, p.heads, d_h, xn.dtype)
    qr = apply_rope((xn @ p.w_q).reshape(shape), cos, sin).transpose(0, 2, 1, 3)
    kr = apply_rope((xn @ p.w_k).reshape(shape), cos, sin).transpose(0, 2, 1, 3)
    v = split_heads(xn @ p.w_v, p.heads, s)
    cat = np.empty((rows, d), dtype=xn.dtype)
    ctx = split_heads(cat, p.heads, s)  # [B, H, s, d_h]
    probs = []
    for i0, i1 in query_blocks(s):
        # in place on the fresh scores, softmax too; a python-float scale
        # keeps f32 in f32
        scores = qr[:, :, i0:i1] @ kr[:, :, :i1].swapaxes(-1, -2)  # [B, H, n, i1]
        scores /= math.sqrt(d_h)
        scores[..., i0:] += mask[:i1 - i0, :i1 - i0]
        softmax(scores, out=scores)
        ctx[:, :, i0:i1] = chunked_matmul(scores, v[:, :, :i1])
        if collect:
            probs.append(scores)
        del scores
    out = cat if p.w_o is None else cat @ p.w_o
    if not collect:
        return out, None
    cache = {
        "xn": xn, "qr": qr, "kr": kr, "v": v, "attn": probs, "ctx": ctx,
        "cat": cat, "cos": cos, "sin": sin, "seq_len": s,
    }
    return out, cache


def ffn_forward(z: np.ndarray, p: FfnParams, collect: bool = True):
    """Gated feed-forward: down(silu(z W_gate) * (z W_up)), h = g * sg * u
    with g = z W_gate, u = z W_up, sg = sigmoid(g).

    With collect, the cache keeps z, g, u and sg, not h: the backward forms
    h from them only when it keeps w_down's gradient. Without, cache is
    None and h is formed in g's buffer: g *= sigmoid(g) one CHUNK of rows
    at a time, then g *= u, the same products in the same order. Only g,
    one chunk's sigmoid and u are alive at once.
    """
    g = z @ p.w_gate
    if not collect:
        for r0 in range(0, len(g), CHUNK):
            rows = g[r0:r0 + CHUNK]
            rows *= sigmoid(rows)
        g *= z @ p.w_up
        return g @ p.w_down, None
    u = z @ p.w_up
    sg = sigmoid(g)
    h = g * sg * u  # silu(g) * u
    y = h @ p.w_down
    return y, {"z": z, "g": g, "u": u, "sg": sg}


def transformer_block_forward(x: np.ndarray, p: TransformerBlockParams,
                              seq_len: int | None = None, collect: bool = True):
    """Pre-norm residual block: attention sublayer then FFN sublayer.

    x: [B*s, d] token rows of B sequences of seq_len (None: one sequence).
    Returns (y, cache). Without collect, cache is None and the attention's
    intermediates are freed before the FFN runs.
    """
    xn1, ncache1 = rms_norm_fwd(x, p.attn_gain)
    ao, acache = causal_attention(xn1, p.attn, seq_len=seq_len, collect=collect)
    a = x + ao
    del xn1, ao  # without collect, no cache holds them through the FFN
    xn2, ncache2 = rms_norm_fwd(a, p.ffn_gain)
    fo, fcache = ffn_forward(xn2, p.ffn, collect=collect)
    y = a + fo
    if not collect:
        return y, None
    cache = {"norm1": ncache1, "attn": acache, "norm2": ncache2, "ffn": fcache}
    return y, cache


def check_targets(targets: np.ndarray, shape: tuple, vocab: int) -> None:
    """Raise ValueError unless targets are integer token ids below vocab, one
    for each input token of the given shape."""
    if targets.shape != shape:
        raise ValueError(f"targets shape {targets.shape} does not match inputs {shape}")
    if not np.issubdtype(targets.dtype, np.integer):
        raise ValueError(f"target ids must be integers, got dtype {targets.dtype}")
    if np.any(targets < 0) or np.any(targets >= vocab):
        raise ValueError("target id out of vocab range")


def lm_loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean next-token cross entropy; targets are int token ids, one per row."""
    s, vocab = logits.shape
    check_targets(targets, (s,), vocab)
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=-1))
    picked = shifted[np.arange(s), targets]
    return float(np.mean(logz - picked))
