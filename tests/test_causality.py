"""Every forward is causal, and training and inference compute one function.

A logit at position t may depend on tokens 0..t of its own sequence only.
The property test changes one token and checks the logits before it, and
every logit of the other sequences, bit for bit, on every forward: training
and inference, with and without caches, and on the cached-value path of
headwise blocks. Memory queries must then be normalized per token: moments
pooled over a sequence would carry its later tokens into earlier queries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headmem.layers import MEMORY_KINDS, MemoryLayerKind
from headmem.memory import MemoryConfig
from headmem.model import build_value_caches, init_base_model, model_forward, named_params
from headmem.numerics import make_rng, precision
from headmem.training import ROWS, evaluate, loss_and_grads
from headmem.upscale import PlacementPolicy, UpscalePlan, build_memory_dus

VOCAB = 13


def _model(kind, prec, heads, half, n, k, depth, seed):
    """An expanded model with one memory block per base block, every
    parameter moved off its init so each memory read carries signal."""
    d = 2 * half * heads
    rng = make_rng(seed)
    with precision(prec):
        base = init_base_model(vocab=VOCAB, d=d, heads=heads, d_ff=6, depth=depth, rng=rng)
        plan = UpscalePlan(policy=PlacementPolicy("distributed", depth, depth),
                           insert_kind="memory_block", memory_kind=MemoryLayerKind(kind),
                           memory_cfg=MemoryConfig(heads=heads, n=n, k=min(k, n), d=d),
                           seed=seed)
        model = build_memory_dus(base, plan)
    for _, arr in named_params(model):
        arr += 0.5 * rng.standard_normal(arr.shape).astype(arr.dtype)
    return model, rng


def _forwards(model):
    """(name, keyword arguments) of every forward. Inference forwards come
    first: a training forward must not run before them."""
    caches = build_value_caches(model)
    for collect in (False, True):
        yield f"direct collect={collect}", dict(collect=collect)
        if caches:
            yield f"cached collect={collect}", dict(collect=collect, value_caches=caches)
    for collect in (False, True):
        yield f"training collect={collect}", dict(training=True, collect=collect)


@pytest.mark.parametrize("kind", MEMORY_KINDS)
@settings(max_examples=16, deadline=None)
@given(prec=st.sampled_from(("f32", "f64")), heads=st.integers(1, 3),
       half=st.integers(1, 2), n=st.integers(1, 4), k=st.integers(1, 4),
       depth=st.integers(1, 2), batch=st.integers(1, 3), seq=st.integers(2, 9),
       pick=st.integers(0, 2 ** 16), seed=st.integers(0, 2 ** 16))
def test_every_forward_is_causal(kind, prec, heads, half, n, k, depth, batch, seq, pick,
                                 seed):
    """Every kind, random shapes and precision: changing the token at (b, t)
    leaves every logit of b before t, and every logit of the other
    sequences, unchanged, bitwise; and the direct forwards all give the
    same logits."""
    model, rng = _model(kind, prec, heads, half, n, k, depth, seed)
    tokens = rng.integers(0, VOCAB, (batch, seq))
    b, t = pick % batch, 1 + pick % (seq - 1)
    changed = tokens.copy()
    changed[b, t] = (tokens[b, t] + 1 + pick % (VOCAB - 1)) % VOCAB
    others = np.arange(batch) != b
    direct = None
    for name, kwargs in _forwards(model):
        want, _ = model_forward(tokens, model, **kwargs)
        got, _ = model_forward(changed, model, **kwargs)
        assert np.array_equal(got[b, :t], want[b, :t]), name
        assert np.array_equal(got[others], want[others]), name
        if "cached" not in name:
            direct = want if direct is None else direct
            assert np.array_equal(want, direct), name


@pytest.mark.parametrize("prec", ["f32", "f64"])
@pytest.mark.parametrize("kind", MEMORY_KINDS)
@pytest.mark.parametrize("batch,seq", [(1, 7), (3, 5), (4, 32), (5, 25)])
def test_training_loss_equals_evaluate(kind, prec, batch, seq):
    """On a batch evaluate runs in one call, the training loss is its loss,
    bit for bit."""
    assert batch <= ROWS // seq
    model, rng = _model(kind, prec, heads=2, half=2, n=4, k=2, depth=2, seed=3)
    inputs = rng.integers(0, VOCAB, (batch, seq))
    targets = rng.integers(0, VOCAB, (batch, seq))
    want = evaluate(model, inputs, targets)
    loss, _ = loss_and_grads(model, inputs, targets)
    assert loss == want
