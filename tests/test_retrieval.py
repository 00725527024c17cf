"""The one retrieval path against per-head references.

layers.retrieve scores, selects and pools all heads in one call, and
gradients.retrieve_backward scatters over [rows, H, ...] in one pass. Here a
plain loop over heads, one 2-D problem at a time, is the oracle: selection
by the exhaustive grid scan, scatters by np.add.at.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headmem.gradients import GradStore, retrieve_backward, rms_norm_backward
from headmem.layers import MemoryLayerKind, retrieve
from headmem.memory import MemoryConfig, fused_cartesian_topk, select_topk
from headmem.model import init_transformer_block
from headmem.numerics import make_rng, precision, softmax
from headmem.transformer import rms_norm_fwd
from headmem.upscale import init_memory_block
from test_acceptance import grid_topk_oracle


def _axis_scores(rng, shape, mode, dtype):
    """(s_row, s_col) of one input mode: normal, tie-heavy or
    rounding-collision."""
    if mode == "tie_heavy":
        # integer scores; about half of the zeros are -0
        s_row, s_col = (rng.integers(0, 3, shape).astype(dtype) for _ in range(2))
        for s in (s_row, s_col):
            s[(s == 0) & (rng.random(shape) < 0.5)] = -0.0
    elif mode == "rounding_collision":
        # scores one ulp apart on one axis round to one sum with a large
        # score on the other, so the tie falls to the smaller flat id
        s_row = rng.integers(0, 3, shape).astype(dtype)
        nudge = rng.random(shape) < 0.5
        s_row[nudge] = np.nextafter(s_row[nudge], dtype(np.inf))
        s_col = (rng.integers(0, 3, shape) * 64).astype(dtype)
        if rng.random() < 0.5:
            s_row, s_col = s_col, s_row
    else:
        s_row, s_col = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
    return s_row, s_col


MODES = ["normal", "tie_heavy", "rounding_collision"]


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 6), heads=st.integers(1, 4), n=st.integers(1, 12),
       k_frac=st.floats(0.0, 1.0), mode=st.sampled_from(MODES),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_select_topk_equals_grid_oracle_per_head(rows, heads, n, k_frac,
                                                 mode, dtype, seed):
    k = 1 + int(k_frac * (n - 1))
    s_row, s_col = _axis_scores(np.random.default_rng(seed), (rows, heads, n),
                                mode, dtype)
    idx, w = select_topk(s_row, s_col, k)
    assert idx.shape == w.shape == (rows, heads, k)
    for h in range(heads):
        assert np.array_equal(idx[:, h], grid_topk_oracle(s_row[:, h], s_col[:, h], k))
        _, ref_w = fused_cartesian_topk(s_row[:, h], s_col[:, h], k)
        assert np.array_equal(w[:, h], ref_w)


@settings(max_examples=800, deadline=None)
@given(rows=st.integers(1, 64), n=st.one_of(st.just(32), st.integers(13, 32)),
       k=st.one_of(st.just(8), st.integers(1, 32)), mode=st.sampled_from(MODES),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_select_topk_equals_grid_oracle_at_benchmark_sizes(rows, n, k, mode, dtype,
                                                           seed):
    """The benchmark's sizes (n = 32, k = 8) and the larger staircases: every
    (token, head) against the grid scan, 4 heads flattened into rows."""
    k = min(k, n)
    s_row, s_col = _axis_scores(np.random.default_rng(seed), (rows, 4, n), mode, dtype)
    idx, w = select_topk(s_row, s_col, k)
    flat_row, flat_col = s_row.reshape(-1, n), s_col.reshape(-1, n)
    assert np.array_equal(idx.reshape(-1, k), grid_topk_oracle(flat_row, flat_col, k))
    _, ref_w = fused_cartesian_topk(flat_row, flat_col, k)
    assert np.array_equal(w.reshape(-1, k), ref_w)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_select_topk_breaks_ties_by_flat_id_not_candidate_order(dtype, grid_reselections):
    """Axis scores that are a permutation of 0..n-1 tie every anti-diagonal
    a + b of rank pairs. With k = n the k-th pick lies on an anti-diagonal
    wholly inside the staircase, and every corner on a later one, so no
    grid re-selection runs. Scores rising with the id put the candidates in
    descending flat-id order: only the final sort's tie-break by flat id
    (not by candidate position) ranks the tied sums as the grid scan does."""
    rng = np.random.default_rng(40)
    for n in range(2, 9):
        rising = np.arange(n, dtype=dtype)
        s_row = np.stack([rising, rng.permutation(rising), rng.permutation(rising)])[:, None]
        s_col = np.stack([rising, rising, rng.permutation(rising)])[:, None]
        idx, w = select_topk(s_row, s_col, n)
        assert grid_reselections == []
        assert np.array_equal(idx[:, 0], grid_topk_oracle(s_row[:, 0], s_col[:, 0], n))
        _, ref_w = fused_cartesian_topk(s_row[:, 0], s_col[:, 0], n)
        assert np.array_equal(w[:, 0], ref_w)
        grid_reselections.clear()  # the reference scans the grid too


def _block(kind, seed):
    rng = make_rng(seed)
    cfg = MemoryConfig(heads=4, n=6, k=3, d=24)
    p = init_memory_block(init_transformer_block(24, 4, 16, rng),
                          MemoryLayerKind.defaults(kind), cfg, rng)
    table = p.bank.values.v_base if kind == "headwise" else p.bank.values
    table[...] = rng.standard_normal(table.shape)
    return p, rng


def _reference(a, p, dm):
    """Per-head loop forward and backward of the retrieval; returns (m, idx,
    gradients by name, da)."""
    cfg, bank, kind = p.cfg, p.bank, p.kind.kind
    rows, n, d_h, d_p = a.shape[0], cfg.n, cfg.d_h, cfg.d_p
    q = a if kind == "headwise" else a @ bank.w_q
    ln_cache = None
    if p.query_ln_gain is not None:
        q, ln_cache = rms_norm_fwd(q, p.query_ln_gain)
    table = bank.values.v_base if kind == "headwise" else bank.values
    m, dq = np.zeros((rows, cfg.d)), np.zeros_like(q)
    grads = {"table": np.zeros_like(table)}
    if kind == "headwise":
        grads["w_heads"] = np.zeros_like(bank.values.w_heads)
    if kind == "linear":
        grads["keys"] = np.zeros_like(bank.keys)
    else:
        grads["k_row"] = np.zeros_like(bank.pk.k_row)
        grads["k_col"] = np.zeros_like(bank.pk.k_col)
    idx = []
    take = np.arange(rows)[:, None]
    for h in range(cfg.heads):
        sl = slice(h * d_h, (h + 1) * d_h)
        q_h = q[:, sl]
        if kind == "linear":
            scores = q_h @ bank.keys[h].T
            idx_h = np.argsort(-scores, axis=-1, kind="stable")[:, :cfg.k]
            vals = np.take_along_axis(scores, idx_h, axis=-1)
        else:
            s_row = q_h[:, :d_p] @ bank.pk.k_row[h].T
            s_col = q_h[:, d_p:] @ bank.pk.k_col[h].T
            idx_h = grid_topk_oracle(s_row, s_col, cfg.k)
            vals = s_row[take, idx_h // n] + s_col[take, idx_h % n]
        w_h = softmax(vals)
        rows_v = table[idx_h]  # [rows, k, width]
        pooled = np.einsum("rk,rkw->rw", w_h, rows_v)
        if kind == "headwise":
            w_heads = bank.values.w_heads[h]
            m[:, sl] = pooled @ w_heads.T
            grads["w_heads"][h] = dm[:, sl].T @ pooled
            g = dm[:, sl] @ w_heads
        else:
            m += pooled
            g = dm
        for c in range(cfg.k):
            np.add.at(grads["table"], idx_h[:, c], w_h[:, c, None] * g)
        dw = np.einsum("rw,rkw->rk", g, rows_v)
        dsc = w_h * (dw - np.sum(dw * w_h, axis=-1, keepdims=True))
        if kind == "linear":
            ds = np.zeros((rows, cfg.N))
            np.add.at(ds, (take, idx_h), dsc)
            dq[:, sl] = ds @ bank.keys[h]
            grads["keys"][h] = ds.T @ q_h
        else:
            ds_row, ds_col = np.zeros((rows, n)), np.zeros((rows, n))
            np.add.at(ds_row, (take, idx_h // n), dsc)
            np.add.at(ds_col, (take, idx_h % n), dsc)
            dq[:, sl] = np.concatenate([ds_row @ bank.pk.k_row[h],
                                        ds_col @ bank.pk.k_col[h]], axis=1)
            grads["k_row"][h] = ds_row.T @ q_h[:, :d_p]
            grads["k_col"][h] = ds_col.T @ q_h[:, d_p:]
        idx.append(idx_h)
    if ln_cache is not None:
        dq, grads["gain"] = rms_norm_backward(dq, ln_cache)
    if kind != "headwise":
        grads["w_q"] = a.T @ dq
        dq = dq @ bank.w_q.T
    return m, np.stack(idx, axis=1), grads, dq


GRAD_PATHS = {
    "table": ("bank.values", "bank.values.v_base"),
    "w_heads": ("bank.values.w_heads",), "keys": ("bank.keys",),
    "k_row": ("bank.pk.k_row",), "k_col": ("bank.pk.k_col",),
    "w_q": ("bank.w_q",), "gain": ("query_ln_gain",),
}


def _close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("batch", [None, 3])
@pytest.mark.parametrize("kind", ["linear", "pkm", "headwise"])
def test_one_call_retrieval_matches_per_head_loop(kind, batch):
    with precision("f64"):
        p, rng = _block(kind, seed=11)
        seq_len = 5
        a = rng.standard_normal(((batch or 1) * seq_len, p.cfg.d))
        dm = rng.standard_normal(a.shape)
        m, cache = retrieve(a, p)
        grads = GradStore()
        da = retrieve_backward(dm, cache, p, grads, "m")
        want_m, want_idx, want_grads, want_da = _reference(a, p, dm)
    assert np.array_equal(cache["idx"], want_idx)
    _close(m, want_m)
    _close(da, want_da)
    assert len(want_grads) == len(grads)
    for name, want in want_grads.items():
        path = next(f"m.{s}" for s in GRAD_PATHS[name] if f"m.{s}" in grads)
        _close(grads[path], want)
