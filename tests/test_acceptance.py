"""Release gate: nine numbered end-to-end properties, one test each.

Run with -v to get one pass/fail line per criterion. Each test carries its
tolerance and, where a wall-clock budget applies, asserts it. Oracles are
defined locally so every comparison is against an independent computation.
"""

import math
import time

import numpy as np
import pytest

from headmem.cli import main as cli_main
from headmem.gradcheck import check_full_model
from headmem.gradients import dedup_scatter_backward
from headmem.layers import MemoryLayerKind
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
    slot_count,
    two_stage_topk,
)
from headmem.checkpoint import load_checkpoint, save_checkpoint
from headmem.model import init_base_model, model_forward, named_params
from headmem.numerics import make_rng, precision
from headmem.training import (
    RecallCorpus,
    build_optim_groups,
    evaluate,
    head_importance,
    train,
)
from headmem.upscale import (
    PlacementPolicy,
    UpscalePlan,
    build_memory_dus,
    policy_indices,
)

acceptance = pytest.mark.acceptance


def grid_topk_oracle(s_row, s_col, k):
    """Exhaustive selection over all n*n additive sums, ranked by
    (descending sum, ascending flat id), via a stable lexicographic sort."""
    s, n = s_row.shape
    sums = (s_row[:, :, None] + s_col[:, None, :]).reshape(s, n * n)
    flat = np.broadcast_to(np.arange(n * n), sums.shape)
    order = np.lexsort((flat, -sums), axis=-1)
    return order[:, :k]


@acceptance
def test_criterion_1_retrieval_exactness():
    start = time.perf_counter()
    rng = make_rng(0)
    with precision("f64"):
        # full sweep of every bank width up to 16, every servable k
        for n in range(1, 17):
            for k in range(1, n + 1):
                for tie_heavy in (False, True):
                    for _ in range(4):
                        if tie_heavy:
                            s_row = rng.integers(0, 3, (3, n)).astype(float)
                            s_col = rng.integers(0, 3, (3, n)).astype(float)
                        else:
                            s_row = rng.standard_normal((3, n))
                            s_col = rng.standard_normal((3, n))
                        want = grid_topk_oracle(s_row, s_col, k)
                        ts_idx, ts_w = two_stage_topk(s_row, s_col, k)
                        fu_idx, fu_w = fused_cartesian_topk(s_row, s_col, k)
                        assert np.array_equal(ts_idx, want)
                        assert np.array_equal(fu_idx, ts_idx)
                        assert np.array_equal(fu_w, ts_w)
        # 10,000 random trials at n = 64, batched 1,000 per k value
        n = 64
        for k in (1, 2, 3, 4, 5, 8, 16, 32, 63, 64):
            s_row = rng.standard_normal((500, n))
            s_col = rng.standard_normal((500, n))
            # integer-valued half forces massive grid ties
            s_row[250:] = rng.integers(0, 4, (250, n))
            s_col[250:] = rng.integers(0, 4, (250, n))
            batches = [s_row, np.concatenate([s_row[250:], s_col[:250]])]
            for rows in batches:
                want = grid_topk_oracle(rows, s_col, k)
                ts_idx, ts_w = two_stage_topk(rows, s_col, k)
                fu_idx, fu_w = fused_cartesian_topk(rows, s_col, k)
                assert np.array_equal(ts_idx, want)
                assert np.array_equal(fu_idx, ts_idx)
                assert np.array_equal(fu_w, ts_w)
    assert time.perf_counter() - start < 60.0


@acceptance
def test_criterion_2_identity_at_initialization():
    kinds = ("linear", "pkm", "headwise")
    policies = ("top_heavy", "distributed", "bottom_heavy", "llama_pro")
    shapes = [(0, 4), (1, 8), (2, 4), (3, 8), (4, 4)]  # five base models
    for prec in ("f64", "f32"):
        with precision(prec):
            for mseed, depth in shapes:
                base = init_base_model(vocab=64, d=32, heads=4, d_ff=48,
                                       depth=depth, rng=make_rng(100 + mseed))
                seqs = make_rng(200 + mseed).integers(0, 64, (100, 12))
                base_logits = [model_forward(s, base, training=False)[0]
                               for s in seqs]
                for kind in kinds:
                    for policy in policies:
                        plan = UpscalePlan(
                            policy=PlacementPolicy(policy, depth, depth // 2),
                            insert_kind="memory_block",
                            memory_kind=MemoryLayerKind.defaults(kind),
                            memory_cfg=MemoryConfig(heads=4, n=8, k=2, d=32),
                            seed=mseed)
                        model = build_memory_dus(base, plan)
                        for seq, want in zip(seqs, base_logits):
                            got, _ = model_forward(seq, model, training=False)
                            assert np.array_equal(got, want), (prec, kind, policy)


@acceptance
def test_criterion_3_backward_correctness():
    start = time.perf_counter()

    def scatter_oracle(g_out, idx, w, size):
        out = np.zeros((size, g_out.shape[-1]), dtype=g_out.dtype)
        B, K = idx.shape
        for b in range(B):
            for c in range(K):
                out[idx[b, c]] += w[b, c] * g_out[b]
        return out

    rng = make_rng(0)
    with precision("f64"):
        for _ in range(1000):
            B = int(rng.integers(1, 20))
            K = int(rng.integers(1, 6))
            D = int(rng.integers(1, 9))
            size = int(rng.integers(1, 12))  # tiny table forces collisions
            g_out = rng.standard_normal((B, D))
            idx = rng.integers(0, size, (B, K))
            w = rng.standard_normal((B, K))
            got = dedup_scatter_backward(g_out, idx, w, size)
            assert np.array_equal(got, scatter_oracle(g_out, idx, w, size))

    result = check_full_model("headwise", seed=0, coords_per_param=8)
    assert result.coords >= 256, result.coords
    assert result.max_rel_err < 1e-4, result
    covered = "\n".join(result.params)
    for needle in ("k_row", "k_col", "v_base", "w_heads",
                   "attn.w_q", "ffn", "gain"):
        assert needle in covered, f"no sampled coordinate touched {needle}"
    assert time.perf_counter() - start < 300.0


@acceptance
def test_criterion_4_value_factorization_equivalence_and_accounting():
    with precision("f64"):
        for seed, (heads, n, k, d) in enumerate([(4, 8, 3, 32), (2, 6, 2, 12),
                                                 (8, 16, 4, 64)]):
            cfg = MemoryConfig(heads=heads, n=n, k=k, d=d)
            rng = make_rng(seed)
            bank = init_value_bank(cfg, rng)
            bank.v_base[...] = rng.standard_normal(bank.v_base.shape)
            s = 11
            idx = rng.integers(0, cfg.N, (s, heads, k))
            w = rng.random((s, heads, k))
            w /= w.sum(axis=-1, keepdims=True)
            direct = aggregate_values(idx, w, bank)
            cached = aggregate_values_cached(idx, w, build_value_cache(bank))
            assert float(np.max(np.abs(direct - cached))) <= 1e-10

    big = MemoryConfig(heads=32, n=64, k=4, d=2048)  # d_h = 64, N = 4096
    assert param_count(big, "naive_headwise") == 32 * 4096 * 64 == 8388608
    assert param_count(big, "factorized") == 4096 * 64 + 32 * 64 * 64 == 393216
    assert slot_count(big, 8) == 1048576
    small = MemoryConfig(heads=4, n=16, k=4, d=64)
    assert param_count(small, "naive_headwise") == small.heads * small.N * small.d_h
    assert (param_count(small, "factorized")
            == small.N * small.d_h + small.heads * small.d_h ** 2)


@acceptance
def test_criterion_5_placement_policy_reference_sets():
    reference = {
        (16, 8): {
            "top_heavy": [8, 10, 12, 14, 16, 18, 20, 22],
            "llama_pro": [2, 5, 8, 11, 14, 17, 20, 23],
            "distributed": [1, 4, 7, 10, 13, 16, 19, 22],
            "bottom_heavy": [0, 2, 4, 6, 8, 10, 12, 14],
        },
        (32, 16): {
            "top_heavy": [16, 18, 20, 22, 24, 26, 28, 30,
                          32, 34, 36, 38, 40, 42, 44, 46],
            "llama_pro": [2, 5, 8, 11, 14, 17, 20, 23,
                          26, 29, 32, 35, 38, 41, 44, 47],
            "distributed": [1, 4, 7, 10, 13, 16, 19, 22,
                            25, 28, 31, 34, 37, 40, 43, 46],
            "bottom_heavy": [0, 2, 4, 6, 8, 10, 12, 14,
                             16, 18, 20, 22, 24, 26, 28, 30],
        },
    }
    for (depth, inserted), table in reference.items():
        for name, want in table.items():
            got = policy_indices(PlacementPolicy(name, depth, inserted))
            assert got == want, (name, depth, inserted, got)


@acceptance
def test_criterion_6_compute_accounting(capsys):
    for heads, n, d in [(4, 16, 64), (32, 64, 2048), (2, 8, 16)]:
        cfg = MemoryConfig(heads=heads, n=n, k=min(4, n), d=d)
        flat = lookup_cost(cfg, "flat")
        product = lookup_cost(cfg, "product")
        assert flat == n * product  # scoring cost falls by sqrt(N) = n

    cfg = MemoryConfig(heads=4, n=16, k=4, d=64)
    rng = make_rng(0)
    bank = init_product_keys(cfg, rng)
    q = rng.standard_normal((7, cfg.heads, cfg.d_h))
    with count_scoring_macs() as counter:
        score_subkeys(q, bank)
    assert counter.total == 7 * cfg.heads * lookup_cost(cfg, "product")

    # a batched [B, s] forward counts every token row of the call
    base = init_base_model(vocab=64, d=64, heads=4, d_ff=48, depth=2, rng=make_rng(1))
    tokens = make_rng(2).integers(0, 64, (3, 5))
    for kind in ("linear", "pkm", "headwise"):
        plan = UpscalePlan(policy=PlacementPolicy("distributed", 2, 1),
                           insert_kind="memory_block",
                           memory_kind=MemoryLayerKind.defaults(kind),
                           memory_cfg=cfg, seed=2)
        model = build_memory_dus(base, plan)
        with count_scoring_macs() as counter:
            model_forward(tokens, model, training=False)
        scheme = "flat" if kind == "linear" else "product"
        assert counter.total == 3 * 5 * cfg.heads * lookup_cost(cfg, scheme), kind

    code = cli_main(["params"])
    out = capsys.readouterr().out
    assert code == 0
    rows = {r.split(",")[0]: int(r.split(",")[2])
            for r in out.strip().split("\n")[1:]}
    assert (rows["mem_headwise"] < rows["mem_pkm"]
            < rows["mem_linear"] < rows["dus_copy"])


def _recall_setup():
    base = init_base_model(vocab=256, d=64, heads=4, d_ff=256, depth=4,
                           rng=make_rng(11))
    plan = UpscalePlan(policy=PlacementPolicy("distributed", 4, 2),
                       insert_kind="memory_block",
                       memory_kind=MemoryLayerKind.defaults("headwise"),
                       memory_cfg=MemoryConfig(heads=4, n=16, k=4, d=64),
                       seed=3)
    model = build_memory_dus(base, plan)
    corpus = RecallCorpus(vocab=256, num_pairs=256, seed=5)
    groups = build_optim_groups(model, "cpt", dense_lr=3e-3, memory_lr=1e-2)
    return base, model, corpus, groups


@acceptance
def test_criterion_7_training_smoke():
    start = time.perf_counter()
    base, model, corpus, groups = _recall_setup()
    trainable = set()
    for g in groups:
        trainable.update(g.paths)
    frozen_before = {p: arr.copy() for p, arr in named_params(model)
                     if p not in trainable}

    report = train(model, corpus, groups, steps=2000, batch_size=16, seed=7)

    ev_in, ev_tg = corpus.full_sweep()
    trained_loss = evaluate(model, ev_in, ev_tg)
    base_loss = evaluate(base, ev_in, ev_tg)
    assert trained_loss <= 0.8 * base_loss, (trained_loss, base_loss)

    after = dict(named_params(model))
    for path, arr in frozen_before.items():
        assert np.array_equal(after[path], arr), path

    # second seeded run from scratch lands on the identical trajectory
    _, model2, corpus2, groups2 = _recall_setup()
    report2 = train(model2, corpus2, groups2, steps=2000, batch_size=16, seed=7)
    assert report.losses == report2.losses
    assert evaluate(model2, ev_in, ev_tg) == trained_loss
    assert time.perf_counter() - start < 600.0


@acceptance
def test_criterion_8_head_importance_sanity():
    with precision("f64"):
        model = init_base_model(vocab=30, d=16, heads=4, d_ff=24, depth=3,
                                rng=make_rng(0))
    rng = make_rng(1)
    ds = [(rng.integers(0, 30, 8), rng.integers(0, 30, 8)) for _ in range(5)]

    silenced = init_base_model(vocab=30, d=16, heads=4, d_ff=24, depth=3,
                               rng=make_rng(0))
    silenced.unembed[...] = 0.0  # constant loss: analytically zero gradient
    zero_rep = head_importance(silenced, ds)
    assert np.all(zero_rep.scores == 0.0)

    rep = head_importance(model, ds)
    doubled = head_importance(model, ds + ds)
    assert np.array_equal(rep.scores, doubled.scores)

    score_rows = rep.scores_csv().strip().split("\n")[1:]
    from_csv = np.zeros_like(rep.scores)
    for row in score_rows:
        layer, head, val = row.split(",")
        from_csv[int(layer), int(head)] = float(val)
    var_rows = rep.variance_csv().strip().split("\n")[1:]
    for row in var_rows:
        layer, val = row.split(",")
        recomputed = float(np.var(from_csv[int(layer)]))
        assert abs(recomputed - float(val)) <= 1e-9


@acceptance
def test_criterion_9_checkpoint_roundtrip(tmp_path):
    for kind in ("linear", "pkm", "headwise"):
        base = init_base_model(vocab=64, d=32, heads=4, d_ff=48, depth=2,
                               rng=make_rng(10))
        plan = UpscalePlan(policy=PlacementPolicy("distributed", 2, 1),
                           insert_kind="memory_block",
                           memory_kind=MemoryLayerKind.defaults(kind),
                           memory_cfg=MemoryConfig(heads=4, n=8, k=2, d=32),
                           seed=11)
        model = build_memory_dus(base, plan)
        rng = make_rng(12)
        for path, arr in named_params(model):
            if path.endswith(("v_base", ".values")):
                arr[...] = 0.1 * rng.standard_normal(arr.shape).astype(arr.dtype)

        path = str(tmp_path / f"{kind}.ckpt")
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        toks = make_rng(13).integers(0, 64, 14)
        a, _ = model_forward(toks, model, training=False)
        b, _ = model_forward(toks, loaded, training=False)
        assert np.array_equal(a, b), kind
