"""A training call keeps only what its backward reads, and computes the same bits.

training.loss_and_grads collects caches from the lowest block its backward
visits (gradients.first_visited_block) up; the value-table backward forms
its contributions and gathers a bounded block at a time; AdamW updates in
chunks of ADAM_CHUNK elements. Only what is retained differs from the
full-collect, unblocked and unchunked forms; the arithmetic is the same.
"""

import tracemalloc

import numpy as np
import pytest

from headmem import gradients
from headmem.gradients import (
    GradStore,
    dedup_scatter_backward,
    first_visited_block,
    lm_loss_backward,
    model_backward,
    retrieve_backward,
    weight_grad_backward,
)
from headmem.layers import MemoryLayerKind, retrieve
from headmem.memory import MemoryConfig
from headmem.model import init_base_model, model_forward, trainable_paths
from headmem.numerics import make_rng, precision
from headmem.training import ADAM_BETAS, ADAM_CHUNK, ADAM_EPS, AdamW, loss_and_grads
from headmem.upscale import PlacementPolicy, UpscalePlan, build_memory_dus

KINDS = ("linear", "pkm", "headwise")


def _model(kind, d=64, d_ff=256, n=32, k=8, seed=0):
    """Base depth 4 plus 2 memory blocks at 1 and 4, the bytes-train layout."""
    base = init_base_model(vocab=256, d=d, heads=4, d_ff=d_ff, depth=4,
                           rng=make_rng(seed))
    plan = UpscalePlan(policy=PlacementPolicy("distributed", 4, 2),
                       insert_kind="memory_block",
                       memory_kind=MemoryLayerKind.defaults(kind),
                       memory_cfg=MemoryConfig(heads=4, n=n, k=k, d=d),
                       seed=seed + 1)
    return build_memory_dus(base, plan)


def _traced_peak(fn) -> int:
    """Peak traced bytes of one call of fn, after a warm-up call (which
    grows the shared attention tables to the sequence length)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bytes_train_call_keeps_only_what_its_backward_reads():
    """One 128-token call of the bytes-train shape. Block 0 is frozen and
    below every trainable block, so it keeps no cache; keeping it, each
    FFN's h, or the [rows * H * k, width] scatter contributions and
    gathered value rows would take about 7.6 MiB."""
    with precision("f32"):
        model = _model("pkm")
    tokens = make_rng(1).integers(0, 256, (1, 129))
    allowed = trainable_paths(model, "cpt")
    peak = _traced_peak(lambda: loss_and_grads(model, tokens[:, :-1], tokens[:, 1:],
                                               GradStore(allowed)))
    assert peak <= 6.0 * 2**20, peak / 2**20


def _stores(model):
    """Gradient stores of every visiting rule: the cpt set (stops at the
    lowest trainable block), the upper memory block alone, everything,
    and probes only (both visit block 0)."""
    return {
        "cpt": lambda: GradStore(trainable_paths(model, "cpt")),
        "upper": lambda: GradStore({p for p in trainable_paths(model, "cpt")
                                    if p.startswith("blocks.4.")}),
        "all": lambda: GradStore(),
        "probes": lambda: GradStore(set(), {}),
    }


@pytest.mark.parametrize("store", ["cpt", "upper", "all", "probes"])
@pytest.mark.parametrize("mode", ["f32", "f64"])
@pytest.mark.parametrize("kind", KINDS)
def test_loss_and_grads_collects_from_the_first_visited_block(kind, mode, store,
                                                               monkeypatch):
    with precision(mode):
        model = _model(kind, d=32, d_ff=48, n=8, k=3, seed=2)
    make = _stores(model)[store]
    want_stop = {"cpt": 1, "upper": 4, "all": 0, "probes": 0}[store]
    assert first_visited_block(model, make()) == want_stop
    tokens = make_rng(3).integers(0, 256, (2, 11))
    inputs, targets = tokens[:, :-1], tokens[:, 1:]

    seen = []
    backward = gradients.model_backward

    def spy(dlogits, caches, model, grads):
        seen.append(caches)
        return backward(dlogits, caches, model, grads)

    monkeypatch.setattr("headmem.training.model_backward", spy)
    _, lean = loss_and_grads(model, inputs, targets, make())
    (caches,) = seen
    assert [c is None for c in caches["blocks"]] == [i < want_stop for i in range(6)]

    logits, full_caches = model_forward(inputs, model, training=True, collect=True)
    dlogits = lm_loss_backward(logits.reshape(-1, model.vocab), targets.reshape(-1))
    full = model_backward(dlogits, full_caches, model, make())
    assert sorted(lean) == sorted(full) and bool(full) == (store != "probes")
    for path in full:
        assert lean[path].tobytes() == full[path].tobytes(), path
    if store == "probes":
        assert sorted(lean.probes) == sorted(full.probes)
        for name, pair in full.probes.items():
            for a, b in zip(lean.probes[name], pair):
                assert a.tobytes() == b.tobytes(), name


def test_model_backward_rejects_a_missing_cache():
    with precision("f64"):
        model = _model("pkm", d=32, d_ff=48, n=8, k=3, seed=4)
    tokens = make_rng(5).integers(0, 256, 9)
    logits, caches = model_forward(tokens[:-1], model, training=True, collect=True,
                                   collect_from=2)
    assert caches["blocks"][1] is None and caches["blocks"][2] is not None
    dlogits = lm_loss_backward(logits, tokens[1:])
    grads = GradStore(trainable_paths(model, "cpt"))  # visits blocks 1 and up
    with pytest.raises(ValueError, match="block 1 has no cache"):
        model_backward(dlogits, caches, model, grads)
    assert len(grads) == 0 and grads.writes == 0
    upper = GradStore({"blocks.4.bank.values"})  # visits blocks 4 and up
    assert "blocks.4.bank.values" in model_backward(dlogits, caches, model, upper)


# ---------------------------------------------------------------------------
# blocked value-table kernels

# (B, K, D, N): 32 rows of K * D = 512 per scatter block and 128 per gather
# block, neither dividing B; one row per scatter block and two per gather
# block (K * D = 24,000); a single row
SHAPES = [(300, 8, 64, 50), (5, 3, 8000, 7), (1, 1, 1, 3)]


@pytest.mark.parametrize("shape", SHAPES, ids=["blocks", "wide", "one"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_blocked_kernels_equal_unblocked_formulas(dtype, shape):
    B, K, D, N = shape
    rng = make_rng(6)
    g = rng.standard_normal((B, D)).astype(dtype)
    w = rng.standard_normal((B, K)).astype(dtype)
    idx = rng.integers(0, N, (B, K))
    idx[:, -1] = idx[:, 0]  # repeated slots within a row, too
    table = rng.standard_normal((N, D)).astype(dtype)

    want = np.zeros((N, D), dtype=dtype)
    np.add.at(want, idx.reshape(-1), (g[:, None, :] * w[:, :, None]).reshape(B * K, D))
    got = dedup_scatter_backward(g, idx, w, N)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()

    want = np.einsum("bd,bkd->bk", g, table[idx])
    got = weight_grad_backward(g, idx, table)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()

    # the embedding's add: weights of one, one row per token
    tokens = idx[:, 0].astype(np.int32)
    want = np.zeros((N, D), dtype=dtype)
    np.add.at(want, tokens, g)
    assert gradients._scatter_rows(tokens[:, None], g, N).tobytes() == want.tobytes()


@pytest.mark.parametrize("D", [64, 2, 5], ids=["pairs", "one_pair", "odd"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_scatter_rows_adds_column_pairs_bitwise(dtype, D):
    """The scatter adds column pairs as complex numbers (single columns at an
    odd width); each table element must still take np.add.at's bits on a
    2-D table, with slots repeated within and across rows, -0 and zero
    weights among the contributions, and K = 1 without weights as the
    embedding adds."""
    rng = make_rng(10)
    B, K, N = 600, 8, 40
    g = rng.standard_normal((B, D)).astype(dtype)
    g[rng.random(g.shape) < 0.2] = -0.0
    w = rng.standard_normal((B, K)).astype(dtype)
    w[rng.random(w.shape) < 0.2] = 0.0
    w[rng.random(w.shape) < 0.1] = -0.0
    idx = rng.integers(0, N, (B, K))
    idx[:, -1] = idx[:, 0]
    want = np.zeros((N, D), dtype=dtype)
    np.add.at(want, idx, g[:, None, :] * w[:, :, None])
    got = gradients._scatter_rows(idx, g, N, w)
    assert got.shape == (N, D) and got.dtype == dtype
    assert got.tobytes() == want.tobytes()
    want = np.zeros((N, D), dtype=dtype)
    np.add.at(want, idx[:, 0], g)
    got = gradients._scatter_rows(idx[:, :1], g, N)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["linear", "pkm"])
@pytest.mark.parametrize("mode", ["f32", "f64"])
def test_row_gradient_pairs_with_every_head_bitwise(mode, kind):
    """A linear or pkm block reads every head's k slots with one row of dm,
    so retrieve_backward pairs dm [rows, d] with idx and w as [rows, H * k].
    The broadcast formula copies each row H times to pair [rows * H, d]
    with [rows * H, k]; both give the same contributions in (row, head, k)
    order, so the value-table and pooling-weight gradients are bitwise
    equal."""
    with precision(mode):
        model = _model(kind, seed=8)
        p = model.blocks[1]
        rng = make_rng(9)
        p.bank.values[...] = rng.standard_normal(p.bank.values.shape)
        a = rng.standard_normal((300, 64)).astype(p.bank.values.dtype)
        dm = rng.standard_normal(a.shape).astype(a.dtype)
    _, mcache = retrieve(a, p)
    idx, w = mcache["idx"], mcache["w"]
    rows, heads, k = idx.shape
    grads = GradStore()
    retrieve_backward(dm, mcache, p, grads, "m")

    g_b = np.broadcast_to(dm[:, None, :], (rows, heads, 64)).reshape(rows * heads, 64)
    idx_b, w_b = idx.reshape(rows * heads, k), w.reshape(rows * heads, k)
    want = dedup_scatter_backward(g_b, idx_b, w_b, p.cfg.N)
    assert grads["m.bank.values"].tobytes() == want.tobytes()
    idx_r, w_r = idx.reshape(rows, heads * k), w.reshape(rows, heads * k)
    assert dedup_scatter_backward(dm, idx_r, w_r, p.cfg.N).tobytes() == want.tobytes()
    want = weight_grad_backward(g_b, idx_b, p.bank.values)
    got = weight_grad_backward(dm, idx_r, p.bank.values)
    assert got.dtype == dm.dtype and got.tobytes() == want.tobytes()


def test_scatter_holds_bounded_buffers():
    """512 x 8 contributions of width 64 into 1,024 slots: the f32 table is
    256 KiB; forming every weighted contribution at once took 1 MiB more."""
    rng = make_rng(7)
    g = rng.standard_normal((512, 64)).astype(np.float32)
    w = rng.standard_normal((512, 8)).astype(np.float32)
    idx = rng.integers(0, 1024, (512, 8))
    peak = _traced_peak(lambda: dedup_scatter_backward(g, idx, w, 1024))
    assert peak <= 0.75 * 2**20, peak / 2**20


# ---------------------------------------------------------------------------
# chunked AdamW

def _adamw_reference(params, grads_per_step, lr_wd):
    """The expression form of AdamW, on whole arrays."""
    b1, b2 = ADAM_BETAS
    m = {p: np.zeros_like(a) for p, a in params.items()}
    v = {p: np.zeros_like(a) for p, a in params.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for p, a in params.items():
            g = grads[p]
            lr, wd = lr_wd[p]
            m[p] = m[p] * b1 + (1.0 - b1) * g
            v[p] = v[p] * b2 + (1.0 - b2) * g * g
            u = (m[p] / c1) / (np.sqrt(v[p] / c2) + ADAM_EPS)
            if wd:
                u = u + wd * a
            params[p] = a - lr * u


def test_chunked_adamw_equals_the_expression_form():
    """A table of 128 chunks and a parameter whose last chunk is partial."""
    rng = make_rng(8)
    params = {"table": rng.standard_normal((65536, 64)).astype(np.float32),
              "dense": rng.standard_normal(40000)}
    assert params["dense"].size % ADAM_CHUNK
    lr_wd = {"table": (1e-2, 0.0), "dense": (3e-3, 0.01)}
    steps = [{p: rng.standard_normal(a.shape).astype(a.dtype) for p, a in params.items()}
             for _ in range(3)]
    want = {p: a.copy() for p, a in params.items()}
    _adamw_reference(want, steps, lr_wd)
    opt = AdamW(params)
    for grads in steps:
        store = GradStore()
        for p, g in grads.items():
            store.add(p, g)
        opt.step(store, lr_wd)
    for p in params:
        assert params[p].dtype == want[p].dtype
        assert params[p].tobytes() == want[p].tobytes(), p
    assert all(s.size == ADAM_CHUNK for pair in opt.scratch.values() for s in pair)


def test_adamw_rejects_a_parameter_that_is_not_c_contiguous():
    with pytest.raises(ValueError, match="w is not C-contiguous"):
        AdamW({"ok": np.zeros(3), "w": np.zeros((4, 3)).T})
