"""Core numeric helpers: dtype policy, deterministic rng, kernel wrappers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headmem.numerics import (
    NumericsError,
    assert_finite,
    default_dtype,
    gaussian,
    make_rng,
    precision,
    set_default_dtype,
    softmax,
    topk,
    zeros,
)
from headmem.transformer import rms_norm_fwd


def test_default_dtype_switch_and_context():
    assert default_dtype() == np.float32
    set_default_dtype("f64")
    try:
        assert default_dtype() == np.float64
    finally:
        set_default_dtype("f32")
    with precision("f64"):
        assert default_dtype() == np.float64
        with precision("f32"):
            assert default_dtype() == np.float32
        assert default_dtype() == np.float64
    assert default_dtype() == np.float32


def test_set_default_dtype_rejects_unknown():
    with pytest.raises(ValueError):
        set_default_dtype("f16")


def test_make_rng_reproducible():
    a = make_rng(123).standard_normal(8)
    b = make_rng(123).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(124).standard_normal(8))


def test_gaussian_and_zeros_follow_default_dtype():
    rng = make_rng(0)
    assert gaussian(rng, (4, 3), 0.5).dtype == np.float32
    assert zeros((2, 2)).dtype == np.float32
    with precision("f64"):
        assert gaussian(make_rng(0), (4,), 1.0).dtype == np.float64
        assert zeros((2,)).dtype == np.float64


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = make_rng(3)
    x = rng.standard_normal((6, 9))
    y = softmax(x)
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)
    assert np.allclose(softmax(x + 1000.0), y, atol=1e-12)
    assert np.all(np.isfinite(softmax(np.array([[1e4, -1e4]]))))


def test_softmax_empty_axis_rejected():
    with pytest.raises(ValueError):
        softmax(np.zeros((3, 0)))


def test_rms_norm_matches_manual_formula():
    rng = make_rng(5)
    x = rng.standard_normal((4, 8))
    g = rng.standard_normal(8)
    inv = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6)
    assert np.allclose(rms_norm_fwd(x, g)[0], x * inv * g, atol=1e-12)


def test_topk_descending_with_ascending_index_ties():
    scores = np.array([[1.0, 3.0, 3.0, 2.0, 3.0]])
    idx, vals = topk(scores, 3)
    # ties broken toward the smaller index
    assert idx.tolist() == [[1, 2, 4]]
    assert vals.tolist() == [[3.0, 3.0, 3.0]]

    rng = make_rng(11)
    for _ in range(50):
        row = rng.integers(0, 4, 12).astype(float)  # heavy ties
        idx, vals = topk(row[None], 5)
        want = sorted(range(12), key=lambda i: (-row[i], i))[:5]
        assert idx[0].tolist() == want
        assert np.array_equal(vals[0], row[np.array(want)])


def test_topk_batched_and_k_range():
    rng = make_rng(2)
    x = rng.standard_normal((3, 4, 6))
    idx, vals = topk(x, 2)
    assert idx.shape == (3, 4, 2) and vals.shape == (3, 4, 2)
    for a in range(3):
        for b in range(4):
            want = np.argsort(-x[a, b], kind="stable")[:2]
            assert np.array_equal(idx[a, b], want)
    with pytest.raises(ValueError):
        topk(x, 0)
    with pytest.raises(ValueError):
        topk(x, 7)


# tie-heavy integers, both zeros, both infinities and NaNs of both signs;
# float32 draws also take NaNs with payloads
_SPECIAL_SCORES = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, np.inf, -np.inf, np.nan, -np.nan]


@settings(max_examples=300, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       lead=st.lists(st.integers(1, 3), max_size=3),
       c=st.integers(1, 40), k_frac=st.floats(0.0, 1.0),
       specials=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_topk_matches_lexsort_oracle(dtype, lead, c, k_frac, specials, seed):
    """Positions and value bits of topk equal np.lexsort((positions,
    -scores)) cut to k, the oracle of the (descending score, ascending
    position) order."""
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (c,)
    k = 1 + int(k_frac * (c - 1))
    scores = rng.standard_normal(shape).astype(dtype)
    pick = rng.random(shape) < specials
    scores[pick] = rng.choice(np.array(_SPECIAL_SCORES, dtype=dtype), int(pick.sum()))
    if dtype == np.float32 and pick.any():
        payload = np.array([0xFFC00001, 0x7FC00123], dtype=np.uint32).view(np.float32)
        where = pick & (rng.random(shape) < 0.2)
        scores[where] = rng.choice(payload, int(where.sum()))
    positions = np.broadcast_to(np.arange(c), shape)
    want = np.lexsort((positions, -scores), axis=-1)[..., :k]
    got_ids, got_vals = topk(scores, k)
    assert got_ids.shape == got_vals.shape == shape[:-1] + (k,)
    assert got_vals.dtype == dtype
    assert np.array_equal(got_ids, want)
    want_vals = np.take_along_axis(scores, want, axis=-1)
    assert got_vals.tobytes() == want_vals.tobytes()


@pytest.mark.parametrize("layout", ["c", "swapped"])
def test_topk_keys_written_in_blocks_match_lexsort_oracle(layout):
    """48,000 float32 scores of [300, 4, 40]: packed_topk writes their keys
    in three blocks of leading rows, the last one partial, with special
    values in every block. The integers are at most 0, so +0 and -0 tie
    in most top-6 sets and rank by position."""
    rng = np.random.default_rng(12)
    scores = rng.integers(-3, 1, (300, 4, 40)).astype(np.float32)
    pick = rng.random(scores.shape) < 0.05
    scores[pick] = rng.choice(np.array(_SPECIAL_SCORES, dtype=np.float32), int(pick.sum()))
    if layout == "swapped":  # the strides of head_scores' [rows, H, n] result
        scores = np.ascontiguousarray(scores.swapaxes(0, 1)).swapaxes(0, 1)
    positions = np.broadcast_to(np.arange(40), scores.shape)
    want = np.lexsort((positions, -scores), axis=-1)[..., :6]
    idx, vals = topk(scores, 6)
    assert np.array_equal(idx, want)
    assert vals.tobytes() == np.take_along_axis(scores, want, axis=-1).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["c", "swapped"])
def test_topk_leaves_inputs_unchanged_and_returns_c_contiguous(dtype, layout):
    """float32 takes the packed sort, float64 the stable argsort; both read
    results by one flat gather and build keys in their own buffers."""
    rng = make_rng(4)
    scores = rng.standard_normal((4, 6, 20)).astype(dtype)
    scores[0, 0, :5] = [np.nan, -0.0, 0.0, np.inf, 1.0]
    if layout == "swapped":  # the strides of head_scores' [rows, H, n] result
        scores = np.ascontiguousarray(scores.swapaxes(0, 1)).swapaxes(0, 1)
    scores_before = scores.copy()
    idx, vals = topk(scores, 7)
    assert idx.flags.c_contiguous and vals.flags.c_contiguous
    assert idx.shape == vals.shape == (4, 6, 7)
    assert scores.tobytes() == scores_before.tobytes()


def test_assert_finite_raises():
    assert_finite(np.ones(3), "ok")
    with pytest.raises(NumericsError):
        assert_finite(np.array([1.0, np.nan]), "bad")
    with pytest.raises(NumericsError):
        assert_finite(np.array([np.inf]), "bad")
