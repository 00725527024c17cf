"""Decoder backbone pieces: rotary embedding, causal attention, gated FFN."""

import math

import numpy as np
import pytest

from headmem import transformer
from headmem.gradients import GradStore, attention_backward
from headmem.model import init_attention, init_transformer_block
from headmem.numerics import make_rng, precision, softmax
from headmem.transformer import (
    AttentionParams,
    apply_rope,
    causal_attention,
    ffn_forward,
    lm_loss,
    rms_norm_fwd,
    rope_tables,
    sigmoid,
    split_heads,
    transformer_block_forward,
)


def test_rope_tables_are_unit_rotations():
    cos, sin = rope_tables(6, 8, np.float64)
    assert cos.shape == (6, 4) and sin.shape == (6, 4)
    assert np.allclose(cos * cos + sin * sin, 1.0, atol=1e-12)
    # position zero rotates by nothing
    assert np.allclose(cos[0], 1.0) and np.allclose(sin[0], 0.0)


def test_apply_rope_preserves_norm_and_inverts():
    rng = make_rng(1)
    x = rng.standard_normal((5, 3, 8))  # [s, heads, d_h]
    cos, sin, _ = transformer.attention_tables(5, 3, 8, np.float64)
    y = apply_rope(x, cos, sin)
    assert np.allclose(np.linalg.norm(y, axis=-1), np.linalg.norm(x, axis=-1),
                       atol=1e-12)
    back = apply_rope(y, cos, sin, inverse=True)
    assert np.allclose(back, x, atol=1e-12)


def test_rope_relative_position_property():
    # dot products depend only on the position gap
    rng = make_rng(2)
    q = rng.standard_normal(8)
    k = rng.standard_normal(8)
    cos, sin, _ = transformer.attention_tables(10, 1, 8, np.float64)

    def rot(v, p):
        return apply_rope(v[None, None], cos[p:p + 1], sin[p:p + 1])[0, 0]

    d1 = rot(q, 3) @ rot(k, 1)
    d2 = rot(q, 7) @ rot(k, 5)
    assert abs(d1 - d2) < 1e-10


def merge_heads(x):
    """[B, H, s, d_h] -> [B*s, d], the inverse of split_heads."""
    return x.swapaxes(1, 2).reshape(-1, x.shape[1] * x.shape[3])


def test_split_merge_heads_round_trip():
    rng = make_rng(3)
    x = rng.standard_normal((5, 12))
    h = split_heads(x, 3)
    assert h.shape == (1, 3, 5, 4)
    assert np.array_equal(merge_heads(h), x)


def test_attention_is_causal():
    rng = make_rng(4)
    with precision("f64"):
        p = init_attention(16, 2, rng)
    xn = rng.standard_normal((7, 16))
    out1, _ = causal_attention(xn, p)
    bumped = xn.copy()
    bumped[5] += 3.0  # future token
    out2, _ = causal_attention(bumped, p)
    assert np.allclose(out1[:5], out2[:5], atol=0)
    assert not np.allclose(out1[5], out2[5])


def test_attention_weights_rows_sum_to_one():
    rng = make_rng(5)
    with precision("f64"):
        p = init_attention(8, 2, rng)
    _, cache = causal_attention(rng.standard_normal((6, 8)), p)
    [attn] = cache["attn"]  # one query block [1, heads, s, s]
    assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-12)
    assert np.allclose(attn, np.tril(attn), atol=0)  # no future mass


@pytest.mark.parametrize("seq_len", [None, 3])
def test_attention_caches_batched_layout(seq_len):
    """One sequence and a batch of two share the [B, H, s, ...] layout."""
    rng = make_rng(7)
    with precision("f64"):
        p = init_attention(8, 2, rng)
    _, cache = causal_attention(rng.standard_normal((6, 8)), p, seq_len=seq_len)
    b, s = (1, 6) if seq_len is None else (2, 3)
    assert [a.shape for a in cache["attn"]] == [(b, 2, s, s)]
    assert cache["ctx"].shape == (b, 2, s, 4)


def test_attention_raw_heads_output():
    rng = make_rng(6)
    with precision("f64"):
        p = init_attention(8, 2, rng, with_projection=False)
    assert p.w_o is None
    out, cache = causal_attention(rng.standard_normal((4, 8)), p)
    assert np.array_equal(out, merge_heads(cache["ctx"]))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _reference_rope(x, cos, sin, inverse=False):
    """The half-split rotation of x [..., H, s, d_h] by cos, sin [s, d_h/2]."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    if inverse:
        r1 = x1 * cos + x2 * sin
        r2 = -x1 * sin + x2 * cos
    else:
        r1 = x1 * cos - x2 * sin
        r2 = x1 * sin + x2 * cos
    return np.concatenate([r1, r2], axis=-1)


def _row_chunked(a, b):
    """a.T @ b summed over 128-row pieces, left to right."""
    g = a[:128].T @ b[:128]
    for j in range(128, len(a), 128):
        g = g + a[j:j + 128].T @ b[j:j + 128]
    return g


def _reference_attention(xn, p, s):
    """Dense forward with the scores, the [s, s] mask and each softmax step
    as separate arrays, the tables built for this length; returns (out,
    attn [B, H, s, s], saved)."""
    d_h = xn.shape[1] // p.heads
    q, k, v = (split_heads(xn @ w, p.heads, s) for w in (p.w_q, p.w_k, p.w_v))
    cos, sin = rope_tables(s, d_h, xn.dtype)
    qr, kr = _reference_rope(q, cos, sin), _reference_rope(k, cos, sin)
    scores = qr @ kr.swapaxes(-1, -2) / math.sqrt(d_h)
    mask = np.triu(np.full((s, s), -np.inf, dtype=xn.dtype), k=1)
    shifted = scores + mask
    shifted = shifted - np.max(shifted, axis=-1, keepdims=True)
    e = np.exp(shifted)
    attn = e / np.sum(e, axis=-1, keepdims=True)
    return merge_heads(attn @ v) @ p.w_o, attn, (qr, kr, v, cos, sin)


def _reference_attention_backward(dout, xn, p, s, attn, saved):
    """(dxn, weight gradients) with dscores = attn * (dattn - dot) / sqrt(d_h)
    formed out of place; each weight gradient sums over 128-row pieces."""
    qr, kr, v, cos, sin = saved
    d_h = xn.shape[1] // p.heads
    dctx = split_heads(dout @ p.w_o.T, p.heads, s)
    dattn = dctx @ v.swapaxes(-1, -2)
    dv = merge_heads(attn.swapaxes(-1, -2) @ dctx)
    dot = np.sum(dattn * attn, axis=-1, keepdims=True)
    dscores = attn * (dattn - dot) / math.sqrt(d_h)
    dq = merge_heads(_reference_rope(dscores @ kr, cos, sin, inverse=True))
    dk = merge_heads(_reference_rope(dscores.swapaxes(-1, -2) @ qr, cos, sin, inverse=True))
    grads = {"w_q": _row_chunked(xn, dq), "w_k": _row_chunked(xn, dk),
             "w_v": _row_chunked(xn, dv), "w_o": _row_chunked(merge_heads(attn @ v), dout)}
    return dq @ p.w_q.T + dk @ p.w_k.T + dv @ p.w_v.T, grads


# Past one query block the sums run in another order than the dense
# formula's, so the blocked attention is held to the dense formula computed
# in f64: every output and gradient within this many units of its dtype's
# epsilon, relative to the largest entry of the reference.
DENSE_EPS = 16


def _assert_near_dense(got, want, dtype, what):
    bound = DENSE_EPS * np.finfo(dtype).eps * np.max(np.abs(want))
    err = np.max(np.abs(got.astype(np.float64) - want))
    assert err <= bound, f"{what}: {err:.3g} > {bound:.3g}"


def _attention_near_dense(xn, p, s, out, cache, dout, dxn, grads, dtype):
    """Check a blocked forward and backward against the dense f64 formula."""
    p64 = AttentionParams(*(w.astype(np.float64) for w in (p.w_q, p.w_k, p.w_v, p.w_o)),
                          p.heads)
    xn64, dout64 = xn.astype(np.float64), dout.astype(np.float64)
    want_out, want_attn, saved = _reference_attention(xn64, p64, s)
    want_dxn, want_grads = _reference_attention_backward(dout64, xn64, p64, s,
                                                         want_attn, saved)
    _assert_near_dense(out, want_out, dtype, "out")
    _assert_near_dense(dxn, want_dxn, dtype, "dxn")
    for name, g in want_grads.items():
        _assert_near_dense(grads[f"a.{name}"], g, dtype, name)
    blocks = [(i0, min(i0 + 128, s)) for i0 in range(0, s, 128)]
    for probs, (i0, i1) in zip(cache["attn"], blocks, strict=True):
        _assert_near_dense(probs, want_attn[:, :, i0:i1, :i1], dtype, "attn")


@pytest.mark.parametrize("mode", ["f32", "f64"])
def test_attention_is_bitwise_the_reference_formula(mode, monkeypatch):
    """Up to one 128-position query block, forward, attention weights and
    backward equal the out-of-place dense formula bit for bit (weight
    gradients over more than 128 token rows sum 128-row pieces in order);
    at 129 positions they are within the dense bound. Meanwhile the
    cached RoPE tables are sliced (short after long) and grown (longer than
    any before for that head count); the tables stay read-only and
    unchanged, RoPE tables are rebuilt only when a length exceeds the
    longest, and the mask is one [128, 128] triangle built once."""
    monkeypatch.setattr(transformer, "_TABLES", {})
    builds, build = [], transformer.rope_tables

    def counted_build(s, *rest):
        builds.append(s)
        return build(s, *rest)

    monkeypatch.setattr(transformer, "rope_tables", counted_build)
    rng = make_rng(30)
    dtype = np.float32 if mode == "f32" else np.float64
    triangle = np.triu(np.full((128, 128), -np.inf, dtype=dtype), k=1)
    lengths = [48, 5, 1, *rng.integers(2, 48, 3).tolist(), 80, 3, 64, 80, 97, 128, 1, 129, 3]
    longest, mask = {}, None
    for s in lengths:
        heads = int(rng.choice([1, 2, 4]))
        with precision(mode):
            p = init_attention(8 * heads, heads, rng)  # d_h = 8
        xn = rng.standard_normal((int(rng.integers(1, 4)) * s, 8 * heads)).astype(dtype)
        before = {key: tuple(np.copy(t) for t in (v if isinstance(v, tuple) else (v,)))
                  for key, v in transformer._TABLES.items()}
        builds_before = len(builds)
        out, cache = causal_attention(xn, p, seq_len=s)
        grown, longest[heads] = s > longest.get(heads, 0), max(longest.get(heads, 0), s)
        assert builds[builds_before:] == ([s] if grown else [])
        mask = transformer._TABLES[np.dtype(dtype)] if mask is None else mask
        assert transformer._TABLES[np.dtype(dtype)] is mask
        dout = rng.standard_normal(out.shape).astype(dtype)
        grads = GradStore()
        dxn = attention_backward(dout, cache, p, grads, "a")
        if s <= 128:
            want_out, want_attn, saved = _reference_attention(xn, p, s)
            assert _same_bits(out, want_out) and len(cache["attn"]) == 1
            assert _same_bits(cache["attn"][0], want_attn)
            want_dxn, want_grads = _reference_attention_backward(dout, xn, p, s,
                                                                 want_attn, saved)
            assert _same_bits(dxn, want_dxn)
            for name, g in want_grads.items():
                assert _same_bits(grads[f"a.{name}"], g), name
        else:
            _attention_near_dense(xn, p, s, out, cache, dout, dxn, grads, dtype)
        cos, sin, got_mask = transformer.attention_tables(s, heads, 8, dtype)
        c, sn = rope_tables(s, 8, dtype)
        assert _same_bits(cos, np.repeat(np.concatenate([c, c], axis=-1)[:, None], heads, 1))
        assert _same_bits(sin, np.repeat(np.concatenate([-sn, sn], axis=-1)[:, None], heads, 1))
        assert got_mask is mask and _same_bits(mask, triangle)
        for key, value in transformer._TABLES.items():
            rope = isinstance(key, tuple)  # (heads, d_h, dtype); the mask's key is its dtype
            tables = value if rope else (value,)
            assert not any(t.flags.writeable for t in tables)
            assert len(tables[0]) == (longest[key[0]] if rope else 128)
            if key in before and not (rope and grown and key[0] == heads):
                assert all(_same_bits(t, u) for t, u in zip(tables, before[key]))


def _cached_arrays(obj):
    if isinstance(obj, dict):
        return [a for v in obj.values() for a in _cached_arrays(v)]
    if isinstance(obj, (list, tuple)):
        return [a for v in obj for a in _cached_arrays(v)]
    return [obj] if isinstance(obj, np.ndarray) else []


@pytest.mark.parametrize("mode", ["f32", "f64"])
@pytest.mark.parametrize("s,batch", [(129, 2), (200, 1), (256, 2), (300, 1), (464, 1),
                                     (512, 1)])
def test_attention_past_one_block_is_near_the_dense_formula(s, batch, mode):
    """Several query blocks: forward, dxn and the four weight gradients are
    within the dense bound of the f64 dense formula; each block's cached
    probability rows sum to 1, and no cached array is [s, s]."""
    rng = make_rng(s)
    dtype = np.float32 if mode == "f32" else np.float64
    with precision(mode):
        p = init_attention(16, 2, rng)
    xn = rng.standard_normal((batch * s, 16)).astype(dtype)
    out, cache = causal_attention(xn, p, seq_len=s)
    dout = rng.standard_normal(out.shape).astype(dtype)
    grads = GradStore()
    dxn = attention_backward(dout, cache, p, grads, "a")
    _attention_near_dense(xn, p, s, out, cache, dout, dxn, grads, dtype)
    assert len(cache["attn"]) == -(-s // 128)
    for probs in cache["attn"]:
        assert probs.dtype == dtype and probs.shape[2] <= 128
        assert np.allclose(probs.sum(axis=-1), 1.0, rtol=0, atol=DENSE_EPS * np.finfo(dtype).eps)
    assert all(a.shape[-2:] != (s, s) for a in _cached_arrays(cache))


def test_attention_past_one_block_matches_finite_differences():
    """Sampled central differences of a 260-position attention (three query
    blocks, the last partial) against its backward, at gradcheck's bound."""
    from headmem.gradcheck import DEFAULT_TOL, _fd_compare

    rng = make_rng(260)
    with precision("f64"):
        p = init_attention(16, 2, rng)
    xn = rng.standard_normal((260, 16))
    r = rng.standard_normal((260, 16))
    _, cache = causal_attention(xn, p)
    grads = GradStore()
    dxn = attention_backward(r, cache, p, grads, "a")
    targets = [("xn", xn, dxn)] + [(name, getattr(p, name), grads[f"a.{name}"])
                                   for name in ("w_q", "w_k", "w_v", "w_o")]
    result = _fd_compare("attention_260", lambda: float(np.sum(causal_attention(xn, p)[0] * r)),
                         targets, rng, coords_per_param=12)
    assert result.coords == 60 and result.ok(DEFAULT_TOL), result


def test_softmax_leaves_its_input_unchanged():
    x = make_rng(31).standard_normal((3, 5, 7)).astype(np.float32)
    x[0, 0, :3] = [np.inf, -np.inf, -0.0]
    keep = x.copy()
    with np.errstate(invalid="ignore"):  # inf - inf in the row holding inf
        softmax(x)
        softmax(x.swapaxes(1, 2))  # a strided view, reduced over x's axis 1
    assert _same_bits(x, keep)


def test_rms_norm_fwd_matches_functional():
    rng = make_rng(7)
    x = rng.standard_normal((4, 6))
    g = rng.standard_normal(6)
    y, cache = rms_norm_fwd(x, g)
    inv = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6)
    assert np.allclose(y, x * inv * g, rtol=1e-14, atol=0)
    assert cache["x"] is x


def test_sigmoid_extremes_and_ffn_gating():
    assert sigmoid(np.array([800.0]))[0] == 1.0
    assert sigmoid(np.array([-800.0]))[0] == 0.0
    rng = make_rng(8)
    w_gate = rng.standard_normal((6, 9))
    w_up = rng.standard_normal((6, 9))
    w_down = rng.standard_normal((9, 6))
    from headmem.transformer import FfnParams
    z = rng.standard_normal((3, 6))
    out, cache = ffn_forward(z, FfnParams(w_gate, w_up, w_down))
    g = z @ w_gate
    want = (g * sigmoid(g) * (z @ w_up)) @ w_down
    assert np.allclose(out, want, atol=1e-12)
    assert cache["z"] is z


def _two_branch_sigmoid(x):
    """The masked two-branch sigmoid, kept as the oracle of the branch-free one."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_equals_two_branch_formula_bitwise(dtype):
    special = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0,
                        np.nan, -np.nan, 1e-30, -1e-30], dtype=dtype)
    rand = (make_rng(10).standard_normal((64, 33)) * 30).astype(dtype)
    bits = np.uint32 if dtype is np.float32 else np.uint64
    assert np.signbit(special[7]) and not np.signbit(special[6])
    # exp(-800) underflows to 0 in both formulas; no other flag may rise
    with np.errstate(all="raise", under="ignore"):
        for x in (special, rand, rand[:, ::2].T):
            got, want = sigmoid(x), _two_branch_sigmoid(x)
            assert got.dtype == dtype and got.shape == x.shape
            assert np.array_equal(got.view(bits), want.view(bits))


def test_lm_loss_matches_manual_cross_entropy():
    rng = make_rng(9)
    logits = rng.standard_normal((5, 11))
    targets = rng.integers(0, 11, 5)
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    want = -np.mean(np.log(p[np.arange(5), targets]))
    assert abs(lm_loss(logits, targets) - want) < 1e-12
    with pytest.raises(ValueError):
        lm_loss(logits, rng.integers(0, 11, 4))
    with pytest.raises(ValueError):
        lm_loss(logits, np.array([0, 1, 2, 3, 11]))


def test_block_with_zeroed_outputs_is_identity():
    rng = make_rng(10)
    with precision("f64"):
        p = init_transformer_block(12, 2, 20, rng)
    p.attn.w_o[...] = 0.0
    p.ffn.w_down[...] = 0.0
    x = rng.standard_normal((5, 12))
    y, _ = transformer_block_forward(x, p)
    assert np.array_equal(y, x)


def test_block_forward_cache_structure():
    rng = make_rng(11)
    with precision("f64"):
        p = init_transformer_block(8, 2, 12, rng)
    x = rng.standard_normal((3, 8))
    y, cache = transformer_block_forward(x, p)
    assert y.shape == x.shape
    assert set(cache) == {"norm1", "attn", "norm2", "ffn"}


def test_forward_and_backward_preserve_f32():
    """A 32-bit model must compute in 32 bits end to end; the attention
    scale and causal mask are the easy places to leak a float64 upcast."""
    from headmem.gradients import GradStore, lm_loss_backward, model_backward
    from headmem.model import init_base_model, model_forward, named_params

    with precision("f32"):
        model = init_base_model(vocab=20, d=16, heads=2, d_ff=24, depth=2,
                                rng=make_rng(12))
    toks = make_rng(13).integers(0, 20, 7)
    logits, caches = model_forward(toks, model, training=True, collect=True)
    assert logits.dtype == np.float32

    def leaks(obj):
        if isinstance(obj, dict):
            return sum(leaks(v) for v in obj.values())
        if isinstance(obj, (list, tuple)):
            return sum(leaks(v) for v in obj)
        if isinstance(obj, np.ndarray) and obj.dtype == np.float64:
            return 1
        return 0

    assert leaks(caches) == 0
    grads = model_backward(lm_loss_backward(logits, toks), caches, model, GradStore())
    for path, _ in named_params(model):
        assert grads[path].dtype == np.float32, path
