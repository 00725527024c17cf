"""Memory block kinds, query pipeline toggles, batch norm behavior, MAC counts."""

import numpy as np
import pytest

from headmem.bench import memory_block_macs, transformer_block_macs
from headmem.layers import (
    BN_EPS,
    MemoryLayerKind,
    batchnorm_query,
    init_bank,
    init_batchnorm,
    memory_block_forward,
)
from headmem.memory import MemoryConfig, build_value_cache
from headmem.model import init_transformer_block
from headmem.numerics import gaussian, make_rng, precision
from headmem.upscale import init_memory_block


def test_kind_defaults():
    lin = MemoryLayerKind.defaults("linear")
    assert (lin.query_batchnorm, lin.query_layernorm,
            lin.internal_residual, lin.output_projection) == (True, False, True, True)
    pkm = MemoryLayerKind.defaults("pkm")
    assert (pkm.query_batchnorm, pkm.query_layernorm,
            pkm.internal_residual, pkm.output_projection) == (True, False, True, True)
    hw = MemoryLayerKind.defaults("headwise")
    assert (hw.query_batchnorm, hw.query_layernorm,
            hw.internal_residual, hw.output_projection) == (False, False, False, False)
    with pytest.raises(ValueError):
        MemoryLayerKind("dense")


def test_batchnorm_training_normalizes_and_tracks():
    rng = make_rng(0)
    with precision("f64"):
        bn = init_batchnorm(5)
    x = 3.0 + 2.0 * rng.standard_normal((64, 5))
    out, _ = batchnorm_query(x, bn, training=True)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(out.var(axis=0), 1.0, atol=1e-6)  # biased variance
    assert np.allclose(bn.running_mean, 0.1 * x.mean(axis=0), atol=1e-10)
    # eval path uses the running statistics, not the batch
    out_eval, _ = batchnorm_query(x[:4], bn, training=False)
    want = ((x[:4] - bn.running_mean) / np.sqrt(bn.running_var + BN_EPS)
            * bn.gamma + bn.beta)
    assert np.allclose(out_eval, want, atol=1e-12)


def test_batchnorm_eval_does_not_mutate_stats():
    with precision("f64"):
        bn = init_batchnorm(3)
    before = bn.running_mean.copy(), bn.running_var.copy()
    batchnorm_query(make_rng(1).standard_normal((8, 3)), bn, training=False)
    assert np.array_equal(bn.running_mean, before[0])
    assert np.array_equal(bn.running_var, before[1])


def _fresh_block(kind, seed=0, toggles=None):
    rng = make_rng(seed)
    cfg = MemoryConfig(heads=2, n=6, k=3, d=12)
    source = init_transformer_block(12, 2, 20, rng)
    lk = toggles if toggles is not None else MemoryLayerKind.defaults(kind)
    return init_memory_block(source, lk, cfg, rng), cfg, rng


@pytest.mark.parametrize("kind", ["linear", "pkm", "headwise"])
def test_memory_block_is_identity_at_init(kind):
    with precision("f64"):
        p, cfg, rng = _fresh_block(kind)
        x = rng.standard_normal((7, cfg.d))
        y, cache = memory_block_forward(x, p, training=True)
    assert np.array_equal(y, x)  # zero value tables add nothing
    # caches hold activations; the kind and toggles are read from p
    assert "kind" not in cache["mem"] and "residual" not in cache


@pytest.mark.parametrize("kind", ["linear", "pkm", "headwise"])
def test_memory_block_responds_once_values_set(kind):
    with precision("f64"):
        p, cfg, rng = _fresh_block(kind, seed=1)
        if kind == "headwise":
            p.bank.values.v_base[...] = rng.standard_normal(p.bank.values.v_base.shape)
        else:
            p.bank.values[...] = rng.standard_normal(p.bank.values.shape)
        x = rng.standard_normal((5, cfg.d))
        y, _ = memory_block_forward(x, p, training=True)
    assert not np.array_equal(y, x)


def test_headwise_cached_forward_matches_training_path():
    with precision("f64"):
        p, cfg, rng = _fresh_block("headwise", seed=2)
        p.bank.values.v_base[...] = rng.standard_normal(p.bank.values.v_base.shape)
        x = rng.standard_normal((6, cfg.d))
        y_train, direct_cache = memory_block_forward(x, p, training=False)
        cache = build_value_cache(p.bank.values)
        y_cached, fwd_cache = memory_block_forward(x, p, training=False,
                                                   value_cache=cache)
    assert np.max(np.abs(y_train - y_cached)) < 1e-10
    # the cache changes only how values are read, never which slots
    assert np.array_equal(fwd_cache["mem"]["idx"], direct_cache["mem"]["idx"])


def test_value_cache_rejected_in_training():
    with precision("f64"):
        p, cfg, rng = _fresh_block("headwise", seed=3)
        cache = build_value_cache(p.bank.values)
        x = rng.standard_normal((4, cfg.d))
        with pytest.raises(ValueError):
            memory_block_forward(x, p, training=True, value_cache=cache)


def test_all_toggles_pipeline_runs_for_headwise():
    toggles = MemoryLayerKind("headwise", query_batchnorm=True,
                              query_layernorm=True, internal_residual=True,
                              output_projection=True)
    with precision("f64"):
        p, cfg, rng = _fresh_block("headwise", toggles=toggles, seed=5)
        assert p.query_bn is not None and p.query_ln_gain is not None
        assert p.attn.w_o is not None
        x = rng.standard_normal((5, cfg.d))
        y, cache = memory_block_forward(x, p, training=True)
    assert np.array_equal(y, x)  # still identity: values are zero
    assert cache["mem"]["bn"] is not None and cache["mem"]["ln"] is not None


def test_linear_and_pkm_support_layernorm_toggle():
    for kind in ("linear", "pkm"):
        toggles = MemoryLayerKind(kind, query_batchnorm=False,
                                  query_layernorm=True, internal_residual=True,
                                  output_projection=True)
        with precision("f64"):
            p, cfg, rng = _fresh_block(kind, toggles=toggles, seed=6)
            assert p.query_bn is None and p.query_ln_gain is not None
            x = rng.standard_normal((4, cfg.d))
            y, cache = memory_block_forward(x, p, training=True)
        assert np.array_equal(y, x)
        assert cache["mem"]["ln"] is not None


def test_init_bank_draws_in_field_order():
    """init_bank's bits: each kind's tensors equal fresh-rng gaussian draws
    in the order w_q, keys, pk.k_row, pk.k_col, values.w_heads; value
    tables are zero and fields the kind does not use are None."""
    cfg = MemoryConfig(heads=2, n=4, k=2, d=8)  # N = 16, d_h = 4, d_p = 2
    draws = {"w_q": ((8, 8), 8), "keys": ((2, 16, 4), 4), "k_row": ((2, 4, 2), 2),
             "k_col": ((2, 4, 2), 2), "w_heads": ((2, 4, 4), 4)}  # shape, fan-in
    used = {"linear": ("w_q", "keys"), "pkm": ("w_q", "k_row", "k_col"),
            "headwise": ("k_row", "k_col", "w_heads")}
    for kind, names in used.items():
        bank = init_bank(kind, cfg, make_rng(7))
        hw = kind == "headwise"
        got = {"w_q": bank.w_q, "keys": bank.keys,
               "k_row": getattr(bank.pk, "k_row", None),
               "k_col": getattr(bank.pk, "k_col", None),
               "w_heads": bank.values.w_heads if hw else None}
        rng = make_rng(7)
        for name, (shape, fan_in) in draws.items():
            if name in names:
                want = gaussian(rng, shape, 1.0 / np.sqrt(fan_in))
                assert np.array_equal(got[name], want), (kind, name)
            else:
                assert got[name] is None, (kind, name)
        table = bank.values.v_base if hw else bank.values
        assert table.shape == ((16, 4) if hw else (16, 8)) and not table.any()


# _fresh_block's shapes: d = 12, H = 2, n = 6 (N = 36), k = 3, d_h = 6,
# d_p = 3, and a source block with d_ff = 20. Per token: attention's q, k, v
# projections 3 * 12 * 12 = 432; a d x d projection 144; flat scoring
# H * N * 2 * d_p = 432; product scoring H * 2n * d_p = 72; full-width values
# H * k * d = 72; factorized values H * k * d_h = 36.
# linear and pkm also project their output and their queries; headwise
# reads the raw head outputs as queries and has no output projection.
MACS_PER_TOKEN = {
    "linear": 432 + 144 + 144 + 432 + 72,
    "pkm": 432 + 144 + 144 + 72 + 72,
    "headwise": 432 + 72 + 36,
}


@pytest.mark.parametrize("kind", sorted(MACS_PER_TOKEN))
def test_memory_block_macs_per_token(kind):
    p, _, _ = _fresh_block(kind)
    want = MACS_PER_TOKEN[kind]
    assert memory_block_macs(p, 1) == want
    for length in (2, 7, 128, 513):  # linear in length
        assert memory_block_macs(p, length) == length * want


def test_output_projection_adds_d_squared_macs():
    plain, cfg, _ = _fresh_block("headwise")
    projected, _, _ = _fresh_block(
        "headwise", toggles=MemoryLayerKind("headwise", output_projection=True))
    for length in (1, 5, 300):
        assert (memory_block_macs(projected, length)
                - memory_block_macs(plain, length)) == length * cfg.d ** 2


def test_transformer_block_macs_per_token():
    d, d_ff = 12, 20
    p = init_transformer_block(d, 2, d_ff, make_rng(0))
    assert transformer_block_macs(p, 1) == 4 * d * d + 3 * d * d_ff == 1296
    for length in (2, 7, 128, 513):
        assert transformer_block_macs(p, length) == length * 1296
