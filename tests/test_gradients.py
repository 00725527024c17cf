"""Hand-derived backwards against oracles: value scatter, finite differences."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from headmem.gradcheck import (
    LAYER_CHECKS,
    CheckResult,
    _memory_block_fixture,
    check_full_model,
    format_report,
    run_gradcheck,
)
from headmem.gradients import (
    GradStore,
    dedup_scatter_backward,
    weight_grad_backward,
)
from headmem.layers import MemoryLayerKind
from headmem.model import init_transformer_block, named_params
from headmem.numerics import make_rng


def scatter_oracle(g_out, idx, w, size):
    """One contribution at a time, in (b, k) order."""
    out = np.zeros((size, g_out.shape[-1]), dtype=g_out.dtype)
    for b in range(idx.shape[0]):
        for c in range(idx.shape[1]):
            out[idx[b, c]] += w[b, c] * g_out[b]
    return out


@settings(max_examples=200, deadline=None)
@given(B=st.integers(1, 24), K=st.integers(1, 8), D=st.integers(1, 9),
       size=st.integers(1, 12), zero_weights=st.floats(0.0, 1.0),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2 ** 32 - 1))
# B*K*D above 2^14: the flat-cell add spans several index blocks, the last
# one partial; D = 20,000 leaves one row per block
@example(B=300, K=8, D=16, size=50, zero_weights=0.2, dtype=np.float32, seed=1)
@example(B=500, K=4, D=15, size=7, zero_weights=0.0, dtype=np.float64, seed=2)
@example(B=3, K=2, D=20_000, size=4, zero_weights=0.0, dtype=np.float32, seed=3)
def test_dedup_scatter_matches_naive_oracle_bitwise(B, K, D, size, zero_weights,
                                                    dtype, seed):
    # tiny tables force colliding slots; a share of the weights is exactly 0
    rng = np.random.default_rng(seed)
    g_out = rng.standard_normal((B, D)).astype(dtype)
    idx = rng.integers(0, size, (B, K))
    w = np.where(rng.random((B, K)) < zero_weights, 0.0,
                 rng.standard_normal((B, K))).astype(dtype)
    got = dedup_scatter_backward(g_out, idx, w, size)
    assert got.dtype == dtype and got.shape == (size, D)
    assert np.array_equal(got, scatter_oracle(g_out, idx, w, size))


def test_dedup_scatter_trivial_cases():
    g = np.array([[1.0, 2.0], [3.0, 4.0]])
    idx = np.array([[7], [7]])
    w = np.ones((2, 1))
    out = dedup_scatter_backward(g, idx, w, 9)
    assert np.array_equal(out[7], [4.0, 6.0])
    assert np.all(np.delete(out, 7, axis=0) == 0.0)
    # zero weights silence the whole table
    out = dedup_scatter_backward(g, idx, np.zeros((2, 1)), 9)
    assert np.all(out == 0.0)


def test_dedup_scatter_counter_and_bounds():
    # the retrieval backward counts each written value-table slot once,
    # and never more slots than (row, head, k) contributions
    from headmem.gradients import retrieve_backward
    from headmem.layers import MemoryLayerKind, retrieve
    from headmem.memory import MemoryConfig
    from headmem.model import init_transformer_block
    from headmem.upscale import init_memory_block
    rng = make_rng(1)
    cfg = MemoryConfig(heads=4, n=3, k=3, d=8)  # 9 slots, 12 reads per row
    p = init_memory_block(init_transformer_block(8, 4, 12, rng),
                          MemoryLayerKind.defaults("pkm"), cfg, rng)
    a = rng.standard_normal((16, 8))
    _, cache = retrieve(a, p)
    grads = GradStore()
    retrieve_backward(rng.standard_normal((16, 8)), cache, p, grads, "m")
    idx = cache["idx"]
    assert grads.writes == np.unique(idx).size
    assert grads.writes <= min(idx.size, cfg.N)
    frozen = GradStore(allowed=set())
    retrieve_backward(rng.standard_normal((16, 8)), cache, p, frozen, "m")
    assert frozen.writes == 0 and not frozen


def test_dedup_scatter_rejects_out_of_range():
    g = np.ones((2, 2))
    with pytest.raises(ValueError):
        dedup_scatter_backward(g, np.array([[0], [5]]), np.ones((2, 1)), 5)


def test_weight_grad_matches_loop_oracle():
    rng = make_rng(2)
    table = rng.standard_normal((9, 4))
    g_out = rng.standard_normal((6, 4))
    idx = rng.integers(0, 9, (6, 3))
    got = weight_grad_backward(g_out, idx, table)
    for b in range(6):
        for c in range(3):
            assert abs(got[b, c] - g_out[b] @ table[idx[b, c]]) < 1e-12
    # orthogonal rows wipe the gradient; matching rows square it
    table0 = np.zeros((4, 3))
    table0[1] = [1.0, 0.0, 0.0]
    g = np.array([[0.0, 2.0, 0.0]])
    out = weight_grad_backward(g, np.array([[1]]), table0)
    assert out[0, 0] == 0.0
    out = weight_grad_backward(g, np.array([[1]]), np.array([[0.0, 2.0, 0.0],
                                                             [0.0, 2.0, 0.0]])[:1].repeat(2, 0))
    assert out[0, 0] == 4.0


def test_grad_store_allowed_filter_and_accumulation():
    store = GradStore({"a", "b"})
    store.add("a", np.ones((2, 2)))
    store.add("a", np.ones((2, 2)))
    store.add("frozen", np.ones(3))  # ignored: not in the allowed set
    assert np.all(store["a"] == 2.0)
    assert "frozen" not in store
    open_store = GradStore()
    open_store.add("frozen", np.ones(3))
    assert "frozen" in open_store


def test_every_layer_backward_passes_finite_differences():
    results = run_gradcheck(seed=0)
    report = format_report(results, tol=1e-5)
    for res in results:
        assert res.ok(1e-5), report
    assert [r.name for r in results] == list(LAYER_CHECKS)
    assert all(r.coords > 0 for r in results)
    # block checks cover x and every parameter the model walk yields
    for res in results:
        if res.name.startswith(("memory_block_", "transformer_block")):
            assert res.params == ("x",) + _walked_block_paths(res.name), res.name


def _walked_block_paths(check_name):
    if check_name == "transformer_block":
        block = init_transformer_block(16, 2, 24, make_rng(0))
    else:
        kind = check_name.split("_")[2]
        block = _memory_block_fixture(kind, 0)[0]
    return tuple(path for path, _ in named_params(block))


def test_corrupted_backward_is_caught(monkeypatch):
    # negative control: a check whose analytic gradient is deliberately off
    def bad_check(seed=0):
        from headmem.gradcheck import check_ffn
        res = check_ffn(seed)
        return CheckResult("ffn_corrupted", res.max_rel_err + 1.0, res.coords,
                           res.worst_param, res.worst_coord)

    monkeypatch.setitem(LAYER_CHECKS, "ffn_corrupted", bad_check)
    results = run_gradcheck(checks=["ffn_corrupted"])
    assert len(results) == 1
    assert not results[0].ok(1e-4)
    assert "FAIL ffn_corrupted" in format_report(results)


@pytest.mark.parametrize("kind", ["pkm", "linear"])
def test_full_model_gradients_other_kinds(kind):
    res = check_full_model(kind, seed=1, coords_per_param=4)
    assert res.ok(1e-4), (res.name, res.max_rel_err, res.worst_param)


def test_zero_init_copy_block_backward_is_identity():
    # the zeroed projections make forward y == x; backward must give dx == dy
    from headmem.gradients import transformer_block_backward
    from headmem.model import init_transformer_block
    from headmem.numerics import precision
    from headmem.transformer import transformer_block_forward
    from headmem.upscale import zero_init_dus_copy
    rng = make_rng(3)
    with precision("f64"):
        p = zero_init_dus_copy(init_transformer_block(8, 2, 12, rng))
    x = rng.standard_normal((4, 8))
    y, cache = transformer_block_forward(x, p)
    assert np.array_equal(y, x)
    dy = rng.standard_normal((4, 8))
    dx = transformer_block_backward(dy, cache, p, GradStore(), "b")
    assert np.array_equal(dx, dy)


@pytest.mark.parametrize("prec", ["f32", "f64"])
def test_embedding_gradient_matches_loop_oracle_bitwise(prec):
    import dataclasses
    from headmem.model import init_base_model, trainable_paths
    from headmem.memory import MemoryConfig
    from headmem.numerics import precision
    from headmem.training import loss_and_grads
    from headmem.upscale import PlacementPolicy, UpscalePlan, build_memory_dus

    with precision(prec):
        base = init_base_model(vocab=40, d=16, heads=2, d_ff=24, depth=2,
                               rng=make_rng(6))
        plan = UpscalePlan(policy=PlacementPolicy("distributed", 2, 1),
                           insert_kind="memory_block",
                           memory_kind=MemoryLayerKind.defaults("pkm"),
                           memory_cfg=MemoryConfig(heads=2, n=4, k=2, d=16),
                           seed=7)
        model = build_memory_dus(base, plan)
    rng = make_rng(8)
    inputs = 30 + rng.integers(0, 5, (3, 8))  # 24 positions over 5 tokens
    targets = rng.integers(0, 40, (3, 8))
    allowed = trainable_paths(model, "sft")
    assert "embed" in allowed
    loss, grads = loss_and_grads(model, inputs, targets, GradStore(allowed))
    # dx, the gradient at the embedding output: give every position its own
    # embedding row (the forward is unchanged bit for bit), so each row of
    # that model's embedding gradient takes exactly one contribution
    embed = model.embed.copy()
    embed[:inputs.size] = model.embed[inputs.ravel()]
    spread = dataclasses.replace(model, embed=embed)
    positions = np.arange(inputs.size).reshape(inputs.shape)
    loss2, grads2 = loss_and_grads(spread, positions, targets,
                                   GradStore(allowed))
    assert loss2 == loss
    dx = grads2["embed"][:inputs.size]
    want = np.zeros_like(model.embed)
    for p, tok in enumerate(inputs.ravel()):
        want[tok] += dx[p]
    got = grads["embed"]
    assert got.dtype == model.embed.dtype == dx.dtype
    assert np.array_equal(got, want)
    used = np.isin(np.arange(40), inputs)
    assert np.all(got[~used] == 0.0) and np.all(np.abs(got[used]).sum(axis=1) > 0.0)
    # narrow token ints (token * d overflows uint8) give the same gradient
    _, grads8 = loss_and_grads(model, inputs.astype(np.uint8), targets,
                               GradStore(allowed))
    assert np.array_equal(grads8["embed"], got)


def test_frozen_paths_accumulate_nothing():
    from headmem.model import init_base_model, model_forward, trainable_paths
    from headmem.gradients import lm_loss_backward, model_backward
    from headmem.layers import MemoryLayerKind
    from headmem.memory import MemoryConfig
    from headmem.numerics import precision
    from headmem.upscale import PlacementPolicy, UpscalePlan, build_memory_dus
    from headmem.transformer import lm_loss

    rng = make_rng(4)
    with precision("f64"):
        base = init_base_model(vocab=40, d=16, heads=2, d_ff=24, depth=3,
                               rng=rng)
        plan = UpscalePlan(policy=PlacementPolicy("distributed", 3, 1),
                           insert_kind="memory_block",
                           memory_kind=MemoryLayerKind.defaults("headwise"),
                           memory_cfg=MemoryConfig(heads=2, n=4, k=2, d=16),
                           seed=5)
        model = build_memory_dus(base, plan)
    toks = rng.integers(0, 40, 9)
    allowed = set(trainable_paths(model, "cpt"))
    logits, caches = model_forward(toks[:-1], model, training=True,
                                   collect=True)
    grads = model_backward(lm_loss_backward(logits, toks[1:]), caches, model,
                           GradStore(allowed))
    assert set(grads) <= allowed
    frozen = {"embed", "unembed", "final_gain", "blocks.0.attn.w_q"}
    assert not (frozen & set(grads))
    assert sum(np.abs(g).sum() for p, g in grads.items()) > 0.0
