"""Hand-derived backwards against oracles: scatter dedup, finite differences."""

import numpy as np
import pytest

from headmem.gradcheck import (
    LAYER_CHECKS,
    CheckResult,
    check_full_model,
    format_report,
    run_gradcheck,
)
from headmem.gradients import (
    GradStore,
    dedup_scatter_backward,
    naive_scatter_backward,
    weight_grad_backward,
)
from headmem.numerics import make_rng


def test_dedup_scatter_matches_naive_oracle_bitwise():
    rng = make_rng(0)
    for _ in range(200):
        B = int(rng.integers(1, 20))
        K = int(rng.integers(1, 6))
        D = int(rng.integers(1, 9))
        size = int(rng.integers(1, 12))  # small table forces collisions
        g_out = rng.standard_normal((B, D))
        idx = rng.integers(0, size, (B, K))
        w = rng.standard_normal((B, K))
        a = dedup_scatter_backward(g_out, idx, w, size)
        b = naive_scatter_backward(g_out, idx, w, size)
        assert np.array_equal(a, b)


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
    rng = make_rng(1)
    g_out = rng.standard_normal((16, 3))
    idx = rng.integers(0, 5, (16, 4))
    w = rng.standard_normal((16, 4))
    counter = {}
    dedup_scatter_backward(g_out, idx, w, 5, counter)
    assert counter["contributions"] == 16 * 4
    assert counter["writes"] == np.unique(idx).size
    assert counter["writes"] <= counter["contributions"]


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
    assert store.total_abs() == 8.0


def test_every_layer_backward_passes_finite_differences():
    results = run_gradcheck(seed=0)
    report = format_report(results, tol=1e-5)
    for res in results:
        assert res.ok(1e-5), report
    names = {r.name for r in results}
    assert {"rms_norm", "attention_projected", "ffn", "transformer_block",
            "memory_block_linear", "memory_block_pkm",
            "memory_block_headwise", "full_model_headwise",
            "memory_block_linear_batch3", "memory_block_pkm_batch3",
            "memory_block_headwise_batch3", "full_model_headwise_batch3"} <= names
    assert all(r.coords > 0 for r in results)


def test_corrupted_backward_is_caught():
    # negative control: a check whose analytic gradient is deliberately off
    def bad_check(seed=0, h=1e-5):
        from headmem.gradcheck import check_ffn
        res = check_ffn(seed, h)
        return CheckResult("ffn_corrupted", res.max_rel_err + 1.0, res.coords,
                           res.worst_param, res.worst_coord)

    results = run_gradcheck(checks={"ffn_corrupted": bad_check})
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
                           allowed=allowed)
    assert set(grads) <= allowed
    frozen = {"embed", "unembed", "final_gain", "blocks.0.attn.w_q"}
    assert not (frozen & set(grads))
    assert sum(np.abs(g).sum() for p, g in grads.items()) > 0.0
