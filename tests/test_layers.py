"""Memory block kinds, the query pipeline each kind fixes, MAC counts."""

import numpy as np
import pytest

from headmem.bench import memory_block_macs, transformer_block_macs
from headmem.layers import MEMORY_KINDS, MemoryLayerKind, init_bank, memory_block_forward
from headmem.memory import MemoryConfig, build_value_cache
from headmem.model import (
    build_value_caches,
    init_base_model,
    init_transformer_block,
    model_forward,
)
from headmem.numerics import gaussian, make_rng, precision
from headmem.transformer import causal_attention, rms_norm_fwd
from headmem.upscale import PlacementPolicy, UpscalePlan, build_memory_dus, init_memory_block


def test_kind_defaults():
    for kind in MEMORY_KINDS:
        assert MemoryLayerKind.defaults(kind) == MemoryLayerKind(kind)
    with pytest.raises(ValueError):
        MemoryLayerKind("dense")


def _fresh_block(kind, seed=0):
    rng = make_rng(seed)
    cfg = MemoryConfig(heads=2, n=6, k=3, d=12)
    source = init_transformer_block(12, 2, 20, rng)
    return init_memory_block(source, MemoryLayerKind(kind), cfg, rng), cfg, rng


@pytest.mark.parametrize("kind", ["linear", "pkm", "headwise"])
def test_memory_block_is_identity_at_init(kind):
    with precision("f64"):
        p, cfg, rng = _fresh_block(kind)
        x = rng.standard_normal((7, cfg.d))
        y, cache = memory_block_forward(x, p)
    assert np.array_equal(y, x)  # zero value tables add nothing
    # caches hold activations; the kind is read from p
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
        y, _ = memory_block_forward(x, p)
    assert not np.array_equal(y, x)


def test_headwise_cached_forward_matches_training_path():
    with precision("f64"):
        p, cfg, rng = _fresh_block("headwise", seed=2)
        p.bank.values.v_base[...] = rng.standard_normal(p.bank.values.v_base.shape)
        x = rng.standard_normal((6, cfg.d))
        y_train, direct_cache = memory_block_forward(x, p)
        cache = build_value_cache(p.bank.values)
        y_cached, fwd_cache = memory_block_forward(x, p, value_cache=cache)
    assert np.max(np.abs(y_train - y_cached)) < 1e-10
    # the cache changes only how values are read, never which slots
    assert np.array_equal(fwd_cache["mem"]["idx"], direct_cache["mem"]["idx"])


def test_value_cache_rejected_in_training():
    with precision("f64"):
        model = build_memory_dus(
            init_base_model(vocab=11, d=12, heads=2, d_ff=20, depth=2, rng=make_rng(3)),
            UpscalePlan(policy=PlacementPolicy("distributed", 2, 1),
                        insert_kind="memory_block",
                        memory_kind=MemoryLayerKind.defaults("headwise"),
                        memory_cfg=MemoryConfig(heads=2, n=6, k=3, d=12), seed=4))
    caches = build_value_caches(model)
    tokens = make_rng(5).integers(0, 11, 4)
    model_forward(tokens, model, value_caches=caches)
    model_forward(tokens, model, training=True)
    with pytest.raises(ValueError, match="inference path"):
        model_forward(tokens, model, training=True, value_caches=caches)


def test_query_pipeline_is_fixed_by_kind():
    """linear and pkm project the attention output, add the internal
    residual and RMS-normalize their projected queries; headwise reads the
    raw head outputs with none of these."""
    for kind in MEMORY_KINDS:
        full = kind != "headwise"
        with precision("f64"):
            p, cfg, rng = _fresh_block(kind, seed=6)
            x = rng.standard_normal((4, cfg.d))
            y, cache = memory_block_forward(x, p)
            ao, _ = causal_attention(rms_norm_fwd(x, p.norm_gain)[0], p.attn)
        assert np.array_equal(y, x)  # still identity: values are zero
        assert (p.attn.w_o is not None) == full, kind
        assert (p.query_ln_gain is not None) == full, kind
        assert (cache["mem"]["ln"] is not None) == full, kind
        assert np.array_equal(cache["mem"]["a"], x + ao if full else ao), kind


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


def test_transformer_block_macs_per_token():
    d, d_ff = 12, 20
    p = init_transformer_block(d, 2, d_ff, make_rng(0))
    assert transformer_block_macs(p, 1) == 4 * d * d + 3 * d * d_ff == 1296
    for length in (2, 7, 128, 513):
        assert transformer_block_macs(p, length) == length * 1296
