"""Placement policies, copy initialization, and identity-preserving expansion."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headmem.layers import MEMORY_KINDS, MemoryBlockParams, MemoryLayerKind
from headmem.memory import MemoryConfig
from headmem.model import (
    init_base_model,
    map_tensors,
    model_forward,
    named_params,
)
from headmem.numerics import make_rng, precision
from headmem.transformer import TransformerBlockParams
from headmem.upscale import (
    INIT_SOURCES,
    POLICY_NAMES,
    PlacementPolicy,
    UpscalePlan,
    build_dus,
    build_memory_dus,
    neighbor_base_indices,
    policy_indices,
    zero_init_dus_copy,
)

# expanded-stack index sets for the two reference shapes
REFERENCE_SETS = {
    (16, 8): {
        "top_heavy": [8, 10, 12, 14, 16, 18, 20, 22],
        "bottom_heavy": [0, 2, 4, 6, 8, 10, 12, 14],
        "distributed": [1, 4, 7, 10, 13, 16, 19, 22],
        "llama_pro": [2, 5, 8, 11, 14, 17, 20, 23],
    },
    (32, 16): {
        "top_heavy": [16, 18, 20, 22, 24, 26, 28, 30,
                      32, 34, 36, 38, 40, 42, 44, 46],
        "bottom_heavy": [0, 2, 4, 6, 8, 10, 12, 14,
                         16, 18, 20, 22, 24, 26, 28, 30],
        "distributed": [1, 4, 7, 10, 13, 16, 19, 22,
                        25, 28, 31, 34, 37, 40, 43, 46],
        "llama_pro": [2, 5, 8, 11, 14, 17, 20, 23,
                      26, 29, 32, 35, 38, 41, 44, 47],
    },
}


def test_policy_indices_match_reference_sets():
    for (depth, inserted), table in REFERENCE_SETS.items():
        for name, want in table.items():
            got = policy_indices(PlacementPolicy(name, depth, inserted))
            assert got == want, (name, depth, inserted)


def test_policy_indices_are_valid_positions():
    rng = make_rng(0)
    for _ in range(60):
        depth = int(rng.integers(1, 20))
        inserted = int(rng.integers(0, depth + 1))
        for name in ("top_heavy", "bottom_heavy", "distributed", "llama_pro"):
            idx = policy_indices(PlacementPolicy(name, depth, inserted))
            assert len(idx) == inserted
            assert all(0 <= i < depth + inserted for i in idx)
            assert idx == sorted(idx)
            assert len(set(idx)) == inserted


def test_policy_validation():
    with pytest.raises(ValueError):
        PlacementPolicy("distributed", 4, 5)  # more inserted than base blocks
    with pytest.raises(ValueError):
        PlacementPolicy("stacked", 4, 2)
    with pytest.raises(ValueError):
        PlacementPolicy("distributed", -1, 0)


def test_neighbor_base_indices():
    policy = PlacementPolicy("distributed", 4, 2)
    assert policy_indices(policy) == [1, 4]
    assert neighbor_base_indices(policy) == [(0, 1), (2, 3)]
    # llama_pro at (2, 2) puts the last insert behind the whole stack
    tail = PlacementPolicy("llama_pro", 2, 2)
    assert policy_indices(tail) == [1, 3]
    assert neighbor_base_indices(tail) == [(0, 1), (1, None)]
    head = PlacementPolicy("bottom_heavy", 3, 1)
    assert policy_indices(head) == [0]
    assert neighbor_base_indices(head) == [(None, 0)]


def test_copy_and_average_helpers():
    """The copy, average and zero-init that the builders run through
    map_tensors: a deep copy, an exact mean, and zeroed output projections."""
    rng = make_rng(1)
    with precision("f64"):
        from headmem.model import init_transformer_block
        a = init_transformer_block(8, 2, 12, rng)
        b = init_transformer_block(8, 2, 12, rng)
    c = map_tensors(np.copy, a)
    assert np.array_equal(c.attn.w_q, a.attn.w_q)
    c.attn.w_q[0, 0] += 1.0
    assert c.attn.w_q[0, 0] != a.attn.w_q[0, 0]  # deep copy
    avg = map_tensors(lambda u, v: (u + v) / 2, a, b)
    assert np.allclose(avg.ffn.w_up, 0.5 * (a.ffn.w_up + b.ffn.w_up), atol=0)
    z = zero_init_dus_copy(a)
    assert np.all(z.attn.w_o == 0) and np.all(z.ffn.w_down == 0)
    assert np.array_equal(z.attn.w_q, a.attn.w_q)
    assert not np.shares_memory(z.attn.w_q, a.attn.w_q)


def _base(depth=4, seed=0, d=16, heads=2, vocab=50, d_ff=24):
    return init_base_model(vocab=vocab, d=d, heads=heads, d_ff=d_ff,
                           depth=depth, rng=make_rng(seed))


def test_dus_zero_init_copies_preserve_base_function():
    with precision("f64"):
        base = _base()
        plan = UpscalePlan(policy=PlacementPolicy("llama_pro", 4, 2),
                           insert_kind="transformer_copy",
                           init_source="preceding",
                           zero_init_copies=True, seed=1)
        model = build_dus(base, plan)
        assert len(model.blocks) == 6
        toks = make_rng(2).integers(0, 50, 11)
        a, _ = model_forward(toks, base)
        b, _ = model_forward(toks, model)
    assert np.array_equal(a, b)
    assert model.trainable == [False, False, True, False, False, True]


def test_dus_raw_copies_change_the_function():
    with precision("f64"):
        base = _base(seed=3)
        plan = UpscalePlan(policy=PlacementPolicy("llama_pro", 4, 2),
                           insert_kind="transformer_copy",
                           init_source="preceding", seed=1)
        model = build_dus(base, plan)
        toks = make_rng(4).integers(0, 50, 9)
        a, _ = model_forward(toks, base)
        b, _ = model_forward(toks, model)
    assert not np.array_equal(a, b)


def _arrays(model):
    return [a for _, a in named_params(model)]


def _assert_detached(model, base, base_arrays, base_blocks):
    """No array of model shares memory with the base, and the base's block
    list and mask are the ones it had before the build."""
    for arr in _arrays(model):
        assert not any(np.shares_memory(arr, b) for b in base_arrays)
    assert len(base.blocks) == len(base_blocks)
    assert all(a is b for a, b in zip(base.blocks, base_blocks))
    assert base.trainable == [True] * len(base_blocks)


def _dus_oracle(base, plan, positions, neighbors):
    """(path, array) of the model build_dus must return, in walk order:
    every tensor of an insert is its source's (preceding, subsequent, or
    0.5 * (pre + sub)), zeroed at attn.w_o and ffn.w_down for zero-init
    copies; every other tensor is the base's."""
    zeroed = ("attn.w_o", "ffn.w_down") if plan.zero_init_copies else ()
    want = [(p, a) for p, a in named_params(base) if not p.startswith("blocks.")]
    base_iter = iter(range(len(base.blocks)))
    for q in range(len(base.blocks) + len(positions)):
        if q not in positions:
            i = next(base_iter)
            want += [(f"blocks.{q}.{p}", a) for p, a in named_params(base.blocks[i])]
            continue
        pre, sub = neighbors[positions.index(q)]
        pre_p = dict(named_params(base.blocks[pre])) if pre is not None else {}
        sub_p = dict(named_params(base.blocks[sub])) if sub is not None else {}
        for p, _ in named_params(base.blocks[0]):
            if plan.init_source == "preceding":
                a = pre_p[p]
            elif plan.init_source == "subsequent":
                a = sub_p[p]
            else:
                a = 0.5 * (pre_p[p] + sub_p[p])
            want.append((f"blocks.{q}.{p}", np.zeros_like(a) if p in zeroed else a))
    return want


def test_dus_init_sources():
    """Every tensor of every build_dus model, bitwise, over every policy x
    init source x zero_init_copies x inserted count, in f32 and f64; no
    array of a build_dus or build_memory_dus model aliases the base."""
    for prec in ("f32", "f64"):
        with precision(prec):
            base = _base(seed=5)
        base_arrays, base_blocks = _arrays(base), list(base.blocks)
        for policy, source, zero, inserted in itertools.product(
                POLICY_NAMES, INIT_SOURCES, (False, True), (1, 2, 4)):
            plan = UpscalePlan(policy=PlacementPolicy(policy, 4, inserted),
                               insert_kind="transformer_copy",
                               init_source=source, zero_init_copies=zero, seed=1)
            positions = policy_indices(plan.policy)
            neighbors = neighbor_base_indices(plan.policy)
            needs = {"preceding": (0,), "subsequent": (1,),
                     "average_adjacent": (0, 1)}[source]
            if any(pair[j] is None for pair in neighbors for j in needs):
                with pytest.raises(ValueError):
                    build_dus(base, plan)
                continue
            model = build_dus(base, plan)
            want = _dus_oracle(base, plan, positions, neighbors)
            got = list(named_params(model))
            assert [p for p, _ in got] == [p for p, _ in want]
            for (path, a), (_, b) in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), (plan, path)
            assert model.trainable == [q in positions for q in range(4 + inserted)]
            _assert_detached(model, base, base_arrays, base_blocks)
        for kind, policy in itertools.product(MEMORY_KINDS, POLICY_NAMES):
            plan = UpscalePlan(policy=PlacementPolicy(policy, 4, 2),
                               insert_kind="memory_block",
                               memory_kind=MemoryLayerKind(kind),
                               memory_cfg=MemoryConfig(heads=2, n=4, k=2, d=16), seed=3)
            with precision(prec):
                model = build_memory_dus(base, plan)
            _assert_detached(model, base, base_arrays, base_blocks)
        with precision(prec):
            fresh = _base(seed=5)
        for (p, a), (_, b) in zip(named_params(base), named_params(fresh)):
            assert np.array_equal(a, b), p  # the builds wrote nothing into the base


@pytest.mark.parametrize("builder", ["build_dus", "build_memory_dus"])
@pytest.mark.parametrize("depth,inserted", [(2, 1), (6, 6), (8, 2), (3, 3)])
def test_builders_reject_policy_depth_mismatch(builder, depth, inserted):
    base = _base()  # 4 blocks
    policy = PlacementPolicy("distributed", depth, inserted)
    if builder == "build_dus":
        plan = UpscalePlan(policy=policy, insert_kind="transformer_copy", seed=1)
        build = build_dus
    else:
        plan = UpscalePlan(policy=policy, insert_kind="memory_block",
                           memory_kind=MemoryLayerKind.defaults("headwise"),
                           memory_cfg=MemoryConfig(heads=2, n=4, k=2, d=16), seed=1)
        build = build_memory_dus
    with pytest.raises(ValueError, match="policy base depth"):
        build(base, plan)


def test_dus_rejects_unavailable_neighbor():
    with precision("f64"):
        base = _base(seed=6)
        plan = UpscalePlan(policy=PlacementPolicy("bottom_heavy", 4, 1),
                           insert_kind="transformer_copy",
                           init_source="preceding", seed=0)
        with pytest.raises(ValueError):
            build_dus(base, plan)  # position 0 has no preceding block


def _memory_plan(kind, policy_name="distributed", depth=4, inserted=2, seed=9,
                 heads=2, d=16):
    cfg = MemoryConfig(heads=heads, n=4, k=2, d=d)
    return UpscalePlan(policy=PlacementPolicy(policy_name, depth, inserted),
                       insert_kind="memory_block",
                       memory_kind=MemoryLayerKind.defaults(kind),
                       memory_cfg=cfg, seed=seed)


@pytest.mark.parametrize("kind", ["linear", "pkm", "headwise"])
@pytest.mark.parametrize("policy", ["top_heavy", "bottom_heavy", "distributed",
                                    "llama_pro"])
def test_memory_dus_identity_at_init(kind, policy):
    with precision("f64"):
        base = _base(seed=7)
        model = build_memory_dus(base, _memory_plan(kind, policy))
        toks = make_rng(8).integers(0, 50, 13)
        a, _ = model_forward(toks, base)
        b, _ = model_forward(toks, model)
    assert np.array_equal(a, b)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(MEMORY_KINDS), prec=st.sampled_from(("f32", "f64")),
       policy=st.sampled_from(POLICY_NAMES), heads=st.integers(1, 3),
       half=st.integers(1, 2), n=st.integers(1, 4), k=st.integers(1, 4),
       depth=st.integers(1, 4), inserted=st.integers(0, 4), batch=st.integers(1, 3),
       seq=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
def test_memory_dus_identity_at_init_property(kind, prec, policy, heads, half, n, k,
                                              depth, inserted, batch, seq, seed):
    """Random small shapes, every kind, precision and placement:
    the expanded model's logits are the base model's, bitwise."""
    d = 2 * half * heads
    rng = make_rng(seed)
    with precision(prec):
        base = init_base_model(vocab=13, d=d, heads=heads, d_ff=6, depth=depth, rng=rng)
        plan = UpscalePlan(policy=PlacementPolicy(policy, depth, min(inserted, depth)),
                           insert_kind="memory_block",
                           memory_kind=MemoryLayerKind(kind),
                           memory_cfg=MemoryConfig(heads=heads, n=n, k=min(k, n), d=d),
                           seed=seed)
        model = build_memory_dus(base, plan)
    tokens = rng.integers(0, 13, (batch, seq))
    want, _ = model_forward(tokens, base)
    got, _ = model_forward(tokens, model)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_memory_dus_block_structure():
    with precision("f64"):
        base = _base(seed=10)
        model = build_memory_dus(base, _memory_plan("headwise"))
    positions = policy_indices(PlacementPolicy("distributed", 4, 2))
    assert positions == [1, 4]
    for pos in positions:
        block = model.blocks[pos]
        assert isinstance(block, MemoryBlockParams)
        assert block.attn.w_o is None  # headwise consumes raw head outputs
        assert model.trainable[pos]
    others = [b for i, b in enumerate(model.blocks) if i not in positions]
    assert all(isinstance(b, TransformerBlockParams) for b in others)
    # memory attention copies the subsequent base block's projections
    src = base.blocks[1]
    assert np.array_equal(model.blocks[1].attn.w_q, src.attn.w_q)
    assert np.array_equal(model.blocks[1].norm_gain, src.attn_gain)


def test_memory_dus_tail_falls_back_to_preceding():
    with precision("f64"):
        base = _base(depth=2, seed=11)
        plan = _memory_plan("headwise", policy_name="llama_pro", depth=2,
                            inserted=2)
        model = build_memory_dus(base, plan)
    # last insert sits behind the whole stack; only a preceding source exists
    assert np.array_equal(model.blocks[3].attn.w_q, base.blocks[1].attn.w_q)


def test_memory_dus_validates_dimensions():
    with precision("f64"):
        base = _base(seed=12)
        bad_cfg = MemoryConfig(heads=2, n=4, k=2, d=32)  # d mismatch
        plan = UpscalePlan(policy=PlacementPolicy("distributed", 4, 1),
                           insert_kind="memory_block",
                           memory_kind=MemoryLayerKind.defaults("pkm"),
                           memory_cfg=bad_cfg, seed=0)
        with pytest.raises(ValueError):
            build_memory_dus(base, plan)


def test_upscale_plan_validation():
    cfg = MemoryConfig(heads=2, n=4, k=2, d=16)
    with pytest.raises(ValueError):
        UpscalePlan(policy=PlacementPolicy("distributed", 4, 1),
                    insert_kind="memory_block")  # missing kind and cfg
    with pytest.raises(ValueError):
        UpscalePlan(policy=PlacementPolicy("distributed", 4, 1),
                    insert_kind="memory_block",
                    memory_kind=MemoryLayerKind.defaults("pkm"),
                    memory_cfg=cfg, init_source="preceding")
    with pytest.raises(ValueError, match="zero_init_copies"):
        UpscalePlan(policy=PlacementPolicy("distributed", 4, 1),
                    insert_kind="memory_block",
                    memory_kind=MemoryLayerKind.defaults("pkm"),
                    memory_cfg=cfg, zero_init_copies=True)
    with pytest.raises(ValueError):
        UpscalePlan(policy=PlacementPolicy("distributed", 4, 1),
                    insert_kind="rotation")


def test_expanded_model_param_paths_cover_every_tensor():
    with precision("f64"):
        base = _base(seed=13)
        model = build_memory_dus(base, _memory_plan("pkm"))
    names = [name for name, _ in named_params(model)]
    assert len(names) == len(set(names))
    assert "blocks.1.bank.pk.k_row" in names
    assert "blocks.1.query_ln_gain" in names
    assert "embed" in names and "unembed" in names and "final_gain" in names
