"""Forwards that collect no caches keep none, and compute the same bits.

model_forward(collect=False) is every inference caller's path: prefill,
training.evaluate and `headmem eval`. Its blocks return None as the cache
and free each temporary after its last reader, so a long prompt holds one
block's activations at a time; the FFN forms its hidden rows in the gate
product's buffer, and the selection packs its scores' keys in place. Only
what is retained differs from the collecting path, which the backward
reads; the arithmetic is the same.
"""

import tracemalloc

import numpy as np
import pytest

from headmem.layers import MemoryBlockParams, MemoryLayerKind, memory_block_forward
from headmem.memory import MemoryConfig, select_topk
from headmem.model import (
    build_value_caches,
    init_base_model,
    model_forward,
    named_params,
)
from headmem.numerics import make_rng, precision
from headmem.transformer import (
    TransformerBlockParams,
    causal_attention,
    ffn_forward,
    transformer_block_forward,
)
from headmem.upscale import PlacementPolicy, UpscalePlan, build_memory_dus

KINDS = ("linear", "pkm", "headwise")


def _model(kind, d=32, d_ff=48, n=8, k=3, seed=0, vocab=64, depth=3):
    base = init_base_model(vocab=vocab, d=d, heads=4, d_ff=d_ff, depth=depth,
                           rng=make_rng(seed))
    plan = UpscalePlan(policy=PlacementPolicy("distributed", depth, 2),
                       insert_kind="memory_block",
                       memory_kind=MemoryLayerKind.defaults(kind),
                       memory_cfg=MemoryConfig(heads=4, n=n, k=k, d=d),
                       seed=seed + 1)
    model = build_memory_dus(base, plan)
    rng = make_rng(seed + 2)
    for path, arr in named_params(model):
        if path.endswith(("v_base", ".values")):
            arr[...] = 0.1 * rng.standard_normal(arr.shape)
    return model


def _ffn(seed):
    """The FFN of a d 64, d_ff 256 base block, in the current precision."""
    base = init_base_model(vocab=64, d=64, heads=4, d_ff=256, depth=1,
                           rng=make_rng(seed))
    return base.blocks[0].ffn


def _block_forward(x, block, i, caches, collect):
    if isinstance(block, TransformerBlockParams):
        return transformer_block_forward(x, block, collect=collect)
    return memory_block_forward(x, block, value_cache=caches.get(i), collect=collect)


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


def test_long_inference_forward_holds_one_block_at_a_time():
    """A 512-token cached-value forward of the prefill-long shape peaks near
    its largest block alone; keeping every query block's probabilities, or
    the previous block's cache, would take about twice that."""
    with precision("f32"):
        model = _model("headwise", d=64, d_ff=256, n=32, k=8)
    caches = build_value_caches(model)
    tokens = make_rng(3).integers(0, 64, 512)
    forward = _traced_peak(lambda: model_forward(tokens, model, value_caches=caches))
    block_peaks = []
    x = model.embed[tokens]
    for i, block in enumerate(model.blocks):
        block_peaks.append(_traced_peak(
            lambda: _block_forward(x, block, i, caches, collect=False)))
        x, _ = _block_forward(x, block, i, caches, collect=False)
    assert forward <= 1.5 * max(block_peaks), (forward, block_peaks)


def test_long_prefill_forward_peak_is_bounded():
    """One 512-token cached-value forward of the prefill-long model (vocab
    256, base depth 4 plus 2 headwise blocks, d 64, d_ff 256, n 32, k 8)
    traced 3.24 MiB when the selection copied its scores twice and the FFN
    kept g, u, sg and h alive; 2.07 MiB without."""
    with precision("f32"):
        model = _model("headwise", d=64, d_ff=256, n=32, k=8, vocab=256, depth=4)
    caches = build_value_caches(model)
    tokens = make_rng(3).integers(0, 256, 512)
    peak = _traced_peak(lambda: model_forward(tokens, model, value_caches=caches))
    assert peak <= 2.3 * 2**20, peak / 2**20


def test_selection_packs_scores_in_place():
    """Axis scores [512, 4, 32] at k = 8: the packed words of both axes take
    1 MiB; copying the scores into one buffer and flipping them through a
    temporary took 2.49 MiB in all."""
    rng = make_rng(9)
    s_row, s_col = (rng.standard_normal((512, 4, 32)).astype(np.float32)
                    for _ in range(2))
    peak = _traced_peak(lambda: select_topk(s_row, s_col, 8))
    assert peak <= 1.5 * 2**20, peak / 2**20


def test_ffn_without_cache_forms_h_in_place():
    """512 rows of d_ff 256: g and u take 0.5 MiB each; keeping sg and h
    as well took 2.16 MiB."""
    with precision("f32"):
        ffn = _ffn(seed=0)
    z = make_rng(10).standard_normal((512, 64)).astype(np.float32)
    peak = _traced_peak(lambda: ffn_forward(z, ffn, collect=False))
    assert peak <= 1.1 * 2**20, peak / 2**20


@pytest.mark.parametrize("mode", ["f32", "f64"])
def test_ffn_without_cache_equals_collecting_ffn_bitwise(mode):
    """300 rows: two full CHUNKs of in-place silu and a partial one."""
    with precision(mode):
        ffn = _ffn(seed=11)
        z = make_rng(12).standard_normal((300, 64)).astype(ffn.w_gate.dtype)
    lean, none = ffn_forward(z, ffn, collect=False)
    full, cache = ffn_forward(z, ffn)
    assert none is None and set(cache) == {"z", "g", "u", "sg"}
    assert lean.dtype == full.dtype == ffn.w_gate.dtype
    assert lean.tobytes() == full.tobytes()


def test_lean_attention_holds_one_query_block_of_probabilities():
    """At 512 positions, the four query blocks' probabilities are most of
    what a collecting attention holds; the lean one holds the last block's
    alone, about half the peak."""
    with precision("f32"):
        attn = _model("headwise", d=64, d_ff=256).blocks[0].attn
    x = make_rng(8).standard_normal((512, 64)).astype(np.float32)
    lean = _traced_peak(lambda: causal_attention(x, attn, collect=False))
    full = _traced_peak(lambda: causal_attention(x, attn))
    assert lean <= 0.7 * full, (lean, full)


@pytest.mark.parametrize("cached", [False, True], ids=["direct", "cached"])
@pytest.mark.parametrize("shape", [(300,), (2, 150)], ids=["one", "batch"])
@pytest.mark.parametrize("kind", KINDS)
def test_lean_logits_equal_collected_logits_bitwise(kind, shape, cached):
    """Sequences longer than one 128-row query block, so the attention
    frees probabilities between blocks."""
    with precision("f32"):
        model = _model(kind, seed=4)
    caches = build_value_caches(model) if cached else None
    if cached and kind == "headwise":
        assert caches
    tokens = make_rng(5).integers(0, 64, shape)
    lean, none = model_forward(tokens, model, value_caches=caches)
    full, trace = model_forward(tokens, model, value_caches=caches, collect=True)
    assert none is None and trace is not None
    assert lean.tobytes() == full.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_block_forwards_return_no_cache_without_collect(kind):
    with precision("f64"):
        model = _model(kind, seed=6)
    caches = build_value_caches(model)
    x = make_rng(7).standard_normal((2 * 140, model.d))
    attn = model.blocks[0].attn
    lean, none = causal_attention(x, attn, seq_len=140, collect=False)
    full, cache = causal_attention(x, attn, seq_len=140)
    assert none is None and len(cache["attn"]) == 2
    assert np.array_equal(lean, full)
    kinds = set()
    for i, block in enumerate(model.blocks):
        kinds.add(type(block))
        lean, none = _block_forward(x, block, i, caches, collect=False)
        full, cache = _block_forward(x, block, i, caches, collect=True)
        assert none is None and cache is not None
        assert np.array_equal(lean, full)
    assert kinds == {TransformerBlockParams, MemoryBlockParams}
