"""Product-key retrieval, value factorization, and accounting."""

import numpy as np
import pytest

from headmem.memory import (
    MemoryConfig,
    aggregate_values,
    aggregate_values_cached,
    build_value_cache,
    count_scoring_macs,
    fused_cartesian_topk,
    init_product_keys,
    init_value_bank,
    lookup_cost,
    param_count,
    score_subkeys,
    select_topk,
    slot_count,
    staircase,
    two_stage_topk,
    unflatten_index,
)
from headmem.numerics import make_rng, precision, softmax


def exhaustive_topk(s_row, s_col, k):
    """Oracle: scan every (i, j) pair, order by (-score, flat id)."""
    s, n = s_row.shape
    idx = np.empty((s, k), dtype=np.int64)
    vals = np.empty((s, k))
    for t in range(s):
        pairs = [(s_row[t, i] + s_col[t, j], i * n + j)
                 for i in range(n) for j in range(n)]
        pairs.sort(key=lambda p: (-p[0], p[1]))
        idx[t] = [p[1] for p in pairs[:k]]
        vals[t] = [p[0] for p in pairs[:k]]
    return idx, vals


def test_config_validation():
    cfg = MemoryConfig(heads=4, n=16, k=4, d=64)
    assert cfg.N == 256 and cfg.d_h == 16 and cfg.d_p == 8
    with pytest.raises(ValueError):
        MemoryConfig(heads=3, n=4, k=2, d=64)   # d not divisible by heads
    with pytest.raises(ValueError):
        MemoryConfig(heads=4, n=4, k=2, d=12)   # odd per-head width
    with pytest.raises(ValueError):
        MemoryConfig(heads=2, n=4, k=0, d=8)
    with pytest.raises(ValueError):
        MemoryConfig(heads=2, n=4, k=5, d=8)    # k > n


def test_flat_index_round_trip():
    i, j = unflatten_index([1, 21, 48], 7)
    assert i.tolist() == [0, 3, 6] and j.tolist() == [1, 0, 6]
    with pytest.raises(ValueError):
        unflatten_index(49, 7)
    with pytest.raises(ValueError):
        unflatten_index(-1, 7)


def test_two_stage_matches_exhaustive_oracle():
    rng = make_rng(31)
    for n in (2, 3, 5, 8, 16):
        for _ in range(10):
            k = int(rng.integers(1, n + 1))
            s_row = rng.standard_normal((3, n))
            s_col = rng.standard_normal((3, n))
            idx, w = two_stage_topk(s_row, s_col, k)
            oid, ov = exhaustive_topk(s_row, s_col, k)
            assert np.array_equal(idx, oid)
            assert np.allclose(w, softmax(ov), atol=1e-12)


def test_two_stage_matches_oracle_under_heavy_ties():
    rng = make_rng(32)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        s_row = rng.integers(0, 3, (2, n)).astype(float)
        s_col = rng.integers(0, 3, (2, n)).astype(float)
        idx, _ = two_stage_topk(s_row, s_col, k)
        oid, _ = exhaustive_topk(s_row, s_col, k)
        assert np.array_equal(idx, oid)


def test_fused_equals_two_stage_bitwise():
    rng = make_rng(33)
    for _ in range(40):
        n = int(rng.integers(2, 17))
        k = int(rng.integers(1, n + 1))
        s_row = rng.standard_normal((4, n))
        s_col = rng.standard_normal((4, n))
        i1, w1 = two_stage_topk(s_row, s_col, k)
        i2, w2 = fused_cartesian_topk(s_row, s_col, k)
        assert np.array_equal(i1, i2)
        assert np.array_equal(w1, w2)


def test_selection_rejects_bad_k_and_shapes():
    rng = make_rng(0)
    s_row = rng.standard_normal((2, 4))
    s_col = rng.standard_normal((2, 4))
    with pytest.raises(ValueError):
        two_stage_topk(s_row, s_col, 5)        # k > n
    fused_cartesian_topk(s_row, s_col, 5)      # fused serves k up to n^2
    with pytest.raises(ValueError):
        fused_cartesian_topk(s_row, s_col, 17)
    with pytest.raises(ValueError):
        two_stage_topk(s_row, rng.standard_normal((2, 5)), 2)


def _staircase_oracle(k, m):
    """(candidates, corners) as sets from the definitions: the rank pairs
    with (a + 1)(b + 1) <= k, and the minimal pairs of the rest of the
    m x m rank grid under the componentwise order."""
    grid = [(a, b) for a in range(m) for b in range(m)]
    cand = {(a, b) for a, b in grid if (a + 1) * (b + 1) <= k}
    rest = [p for p in grid if p not in cand]
    corners = {p for p in rest
               if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in rest)}
    return cand, corners


def _staircase_sets(k, m):
    rows, cols, corner_rows, corner_cols = staircase(k, m)
    for ranks in (rows, cols, corner_rows, corner_cols):
        assert ranks.dtype == np.intp and not ranks.flags.writeable
    cand = set(zip(rows.tolist(), cols.tolist()))
    corners = set(zip(corner_rows.tolist(), corner_cols.tolist()))
    assert len(cand) == rows.size and len(corners) == corner_rows.size
    return cand, corners


@pytest.mark.parametrize("k", range(1, 9))
def test_staircase_candidates_and_corners(k):
    for m in (k, k + 1):
        cand, corners = _staircase_sets(k, m)
        assert (cand, corners) == _staircase_oracle(k, m)
        # every rank pair of an n x n grid outside the candidates is at or
        # past some corner, so no corner sum below the k-th pick leaves a
        # pair outside able to reach it (n = m = k, or any n > k with m = k + 1)
        for n in ((m,) if m == k else (m, m + 3)):
            for a in range(n):
                for b in range(n):
                    assert (a, b) in cand or any(
                        ca <= a and cb <= b for ca, cb in corners)
    if k == 8:
        assert len(_staircase_sets(8, 9)[0]) == 20
        assert _staircase_sets(8, 9)[1] == {(0, 8), (1, 4), (2, 2), (4, 1), (8, 0)}
        assert _staircase_sets(8, 8)[1] == {(1, 4), (2, 2), (4, 1)}
    if k == 4:
        assert len(_staircase_sets(4, 5)[0]) == 8


def test_grid_reselection_only_where_a_tie_can_reach(grid_reselections):
    """Continuous scores never send a row to the full grid; tie-heavy ones
    do. Sending every row there stays exact but loses the staircase's gain."""
    rng = make_rng(36)
    shape = (384, 4, 32)
    with precision("f32"):
        s_row, s_col = (rng.standard_normal(shape).astype(np.float32) for _ in range(2))
        select_topk(s_row, s_col, 8)
        assert grid_reselections == []
        s_row, s_col = (rng.integers(0, 3, shape).astype(np.float32) for _ in range(2))
        select_topk(s_row, s_col, 8)
        assert len(grid_reselections) == 1 and grid_reselections[0] > 0


def test_select_topk_batched_shapes():
    rng = make_rng(34)
    for lead in ((8, 3), (2, 5, 4), (1,)):
        s_row = rng.standard_normal(lead + (6,))
        s_col = rng.standard_normal(lead + (6,))
        idx, w = select_topk(s_row, s_col, 3)
        assert idx.shape == w.shape == lead + (3,)
        # every [.., n] slice is selected as if it were alone
        flat_idx, flat_w = fused_cartesian_topk(s_row.reshape(-1, 6),
                                                s_col.reshape(-1, 6), 3)
        assert np.array_equal(idx.reshape(-1, 3), flat_idx)
        assert np.array_equal(w.reshape(-1, 3), flat_w)
    with pytest.raises(ValueError):
        select_topk(s_row, s_col, 7)  # k > n is rejected


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_select_topk_returns_row_major_results(dtype):
    """score_subkeys hands over head-major views; the ids and weights still
    come back C-contiguous, the layout the value gather reads fastest."""
    rng = make_rng(35)
    s_row, s_col = (rng.standard_normal((4, 50, 16)).astype(dtype).swapaxes(0, 1)
                    for _ in range(2))
    idx, w = select_topk(s_row, s_col, 4)
    assert idx.flags.c_contiguous and w.flags.c_contiguous
    want_idx, want_w = select_topk(s_row.copy(), s_col.copy(), 4)
    assert np.array_equal(idx, want_idx) and np.array_equal(w, want_w)


def test_float32_selection_in_key_blocks_equals_rows_alone():
    """[300, 4, 32] float32 axis scores hold 38,400 per axis, so both axes'
    keys are written in blocks of 128 rows; each row selected alone is one
    block. Rounded scores give ties, and -0 must tie +0."""
    rng = make_rng(36)
    s_row, s_col = (np.round(rng.standard_normal((300, 4, 32)), 1).astype(np.float32)
                    for _ in range(2))
    s_row[s_row == 0] = -0.0
    idx, w = select_topk(s_row, s_col, 8)
    for r in range(300):
        i1, w1 = select_topk(s_row[r:r + 1], s_col[r:r + 1], 8)
        assert idx[r:r + 1].tobytes() == i1.tobytes()
        assert w[r:r + 1].tobytes() == w1.tobytes()


def test_score_subkeys_halves_and_counter():
    """The row scores read only the first d_p query columns and the column
    scores only the rest; the counter sees both halves."""
    cfg = MemoryConfig(heads=2, n=8, k=2, d=16)
    rng = make_rng(4)
    bank = init_product_keys(cfg, rng)
    q = rng.standard_normal((5, cfg.heads, cfg.d_h)).astype(np.float32)
    with count_scoring_macs() as counter:
        s_row, s_col = score_subkeys(q, bank)
    assert counter.total == 2 * 5 * cfg.heads * cfg.n * cfg.d_p
    moved = q.copy()
    moved[..., cfg.d_p:] += 1.0
    row2, col2 = score_subkeys(moved, bank)
    assert np.array_equal(row2, s_row) and not np.array_equal(col2, s_col)
    moved = q.copy()
    moved[..., :cfg.d_p] += 1.0
    row2, col2 = score_subkeys(moved, bank)
    assert np.array_equal(col2, s_col) and not np.array_equal(row2, s_row)


def test_score_subkeys_all_heads_in_one_call():
    cfg = MemoryConfig(heads=3, n=5, k=2, d=12)
    rng = make_rng(5)
    with precision("f64"):
        bank = init_product_keys(cfg, rng)
    q = rng.standard_normal((7, cfg.heads, cfg.d_h))
    with count_scoring_macs() as counter:
        s_row, s_col = score_subkeys(q, bank)
    assert s_row.shape == s_col.shape == (7, cfg.heads, cfg.n)
    for h in range(cfg.heads):
        want_row = q[:, h, :cfg.d_p] @ bank.k_row[h].T
        want_col = q[:, h, cfg.d_p:] @ bank.k_col[h].T
        assert np.allclose(s_row[:, h], want_row, rtol=1e-12, atol=0)
        assert np.allclose(s_col[:, h], want_col, rtol=1e-12, atol=0)
    assert counter.total == 7 * cfg.heads * lookup_cost(cfg, "product")


def test_aggregate_values_matches_loop_oracle():
    cfg = MemoryConfig(heads=3, n=4, k=2, d=12)
    rng = make_rng(6)
    with precision("f64"):
        bank = init_value_bank(cfg, rng)
    bank.v_base[...] = rng.standard_normal(bank.v_base.shape)
    idx = rng.integers(0, cfg.N, (5, cfg.heads, cfg.k))
    w = rng.random((5, cfg.heads, cfg.k))
    out = aggregate_values(idx, w, bank)
    assert out.shape == (5, cfg.d)
    for t in range(5):
        for h in range(cfg.heads):
            pooled = sum(w[t, h, c] * bank.v_base[idx[t, h, c]]
                         for c in range(cfg.k))
            want = bank.w_heads[h] @ pooled
            got = out[t, h * cfg.d_h:(h + 1) * cfg.d_h]
            assert np.allclose(got, want, atol=1e-12)


def test_cached_path_matches_factorized_path():
    cfg = MemoryConfig(heads=4, n=8, k=3, d=32)
    rng = make_rng(8)
    with precision("f64"):
        bank = init_value_bank(cfg, rng)
        bank.v_base[...] = rng.standard_normal(bank.v_base.shape)
        cache = build_value_cache(bank)
    assert cache.shape == (cfg.heads, cfg.N, cfg.d_h)
    idx = rng.integers(0, cfg.N, (7, cfg.heads, cfg.k))
    w = rng.random((7, cfg.heads, cfg.k))
    a = aggregate_values(idx, w, bank)
    b = aggregate_values_cached(idx, w, cache)
    assert np.max(np.abs(a - b)) < 1e-10


def test_param_count_formulas():
    cfg = MemoryConfig(heads=32, n=64, k=8, d=2048)
    assert cfg.d_h == 64 and cfg.N == 4096
    assert param_count(cfg, "naive_headwise") == 32 * 4096 * 64 == 8388608
    assert param_count(cfg, "factorized") == 4096 * 64 + 32 * 64 * 64 == 393216
    assert param_count(cfg, "flat_keys") == 32 * 4096 * 64
    assert param_count(cfg, "product_keys") == 32 * 2 * 64 * 32
    assert slot_count(cfg, 8) == 32 * 64 * 64 * 8 == 1048576
    with pytest.raises(ValueError):
        param_count(cfg, "dense")


def test_lookup_cost_square_root_reduction():
    cfg = MemoryConfig(heads=4, n=16, k=4, d=64)
    flat = lookup_cost(cfg, "flat")
    product = lookup_cost(cfg, "product")
    assert flat == cfg.N * cfg.d_h
    assert product == 2 * cfg.n * cfg.d_p
    assert product * cfg.n == flat  # ratio 1/n = 1/sqrt(N)


def test_value_bank_starts_silent():
    cfg = MemoryConfig(heads=2, n=4, k=2, d=8)
    bank = init_value_bank(cfg, make_rng(0))
    assert np.all(bank.v_base == 0.0)
    assert np.any(bank.w_heads != 0.0)
