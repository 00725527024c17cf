"""Batched [B, s] forward and backward against the per-sequence path.

The per-sequence path (one model call per sequence, gradients accumulated
left to right) is the oracle. Batching sums over token rows in another
order, so float64 results are compared within a tolerance fixed here from
the dtype: a few hundred ulps relative to the larger of 1 and the oracle's
magnitude, far below any modelling effect and far above reordering noise.
"""

import numpy as np
import pytest

from headmem.gradients import GradStore, lm_loss_backward, model_backward
from headmem.layers import MemoryLayerKind
from headmem.memory import MemoryConfig
from headmem.model import (
    block_param_paths,
    init_base_model,
    model_forward,
    named_params,
    trainable_paths,
)
from headmem.numerics import make_rng, precision
from headmem.training import (
    AdamW,
    ByteCorpus,
    RecallCorpus,
    _calls,
    build_optim_groups,
    head_importance,
    loss_and_grads,
    schedule_lr,
    train,
)
from headmem.upscale import PlacementPolicy, UpscalePlan, build_memory_dus

KINDS = ("linear", "pkm", "headwise")
TOL = 256 * np.finfo(np.float64).eps
CURVE_TOL = 1e-10  # absolute bound on a 20-step loss curve (losses are ~6)


def _close(got, want, tol=TOL):
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return float(np.max(np.abs(got - want), initial=0.0)) <= tol * scale


def _model(kind, vocab=64, seed=0, policy="distributed"):
    with precision("f64"):
        base = init_base_model(vocab=vocab, d=32, heads=4, d_ff=48, depth=3,
                               rng=make_rng(seed))
        plan = UpscalePlan(policy=PlacementPolicy(policy, 3, 2),
                           insert_kind="memory_block",
                           memory_kind=MemoryLayerKind.defaults(kind),
                           memory_cfg=MemoryConfig(heads=4, n=8, k=3, d=32),
                           seed=seed + 1)
        model = build_memory_dus(base, plan)
    rng = make_rng(seed + 2)
    for path, arr in named_params(model):
        if path.endswith(("v_base", ".values")):
            arr[...] = 0.1 * rng.standard_normal(arr.shape)
    return model


def per_sequence_loss_and_grads(model, inputs, targets, allowed=None):
    """Oracle: mean over one call per sequence."""
    losses, acc = [], {}
    for b in range(inputs.shape[0]):
        loss, grads = loss_and_grads(model, inputs[b], targets[b],
                                     GradStore(allowed))
        losses.append(loss)
        for path, g in grads.items():
            acc[path] = acc[path] + g if path in acc else g.copy()
    return float(np.mean(losses)), {p: g / inputs.shape[0] for p, g in acc.items()}


def reference_train(model, corpus, groups, steps, batch_size, seed):
    """The pre-batching trainer: one loss_and_grads call per sequence,
    gradients accumulated left to right, then averaged."""
    allowed = {p for g in groups for p in g.paths}
    by_path = dict(named_params(model))
    opt = AdamW({p: by_path[p] for p in allowed})
    rng = make_rng(seed)
    losses = []
    for step in range(steps):
        inputs, targets = corpus.batch(rng, batch_size)
        total, acc = 0.0, None
        for b in range(inputs.shape[0]):
            loss, grads = loss_and_grads(model, inputs[b], targets[b],
                                         GradStore(allowed))
            total += loss
            if acc is None:
                acc = grads
            else:
                for path, g in grads.items():
                    acc.add(path, g)
        for g in acc.values():
            g *= 1.0 / inputs.shape[0]
        lr_wd = {}
        for g in groups:
            lr = schedule_lr(g.schedule, step, steps, g.max_lr, g.warmup_ratio)
            lr_wd.update({p: (lr, g.weight_decay) for p in g.paths})
        opt.step(acc, lr_wd)
        losses.append(total / inputs.shape[0])
    return losses


@pytest.mark.parametrize("kind", KINDS)
def test_batched_loss_and_grads_equal_per_sequence_mean(kind):
    model = _model(kind)
    rng = make_rng(5)
    inputs = rng.integers(0, 64, (5, 7))
    targets = rng.integers(0, 64, (5, 7))
    loss, grads = loss_and_grads(model, inputs, targets)
    want_loss, want = per_sequence_loss_and_grads(model, inputs, targets)
    assert abs(loss - want_loss) <= TOL * max(1.0, abs(want_loss))
    assert set(grads) == set(want) == {p for p, _ in named_params(model)}
    for path in want:
        assert _close(grads[path], want[path]), path


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_batched_forward_stacks_per_sequence_outputs(kind, training):
    model = _model(kind, seed=3)
    tokens = make_rng(6).integers(0, 64, (4, 9))
    logits, caches = model_forward(tokens, model, training=training, collect=True)
    assert logits.shape == (4, 9, 64)
    for b in range(4):
        want, seq_caches = model_forward(tokens[b], model, training=training,
                                         collect=True)
        assert want.shape == (9, 64)
        assert _close(logits[b], want)
        for bc, sc in zip(caches["blocks"], seq_caches["blocks"]):
            if "mem" in bc:
                assert sc["mem"]["idx"].shape == (9, 4, 3)
                assert np.array_equal(bc["mem"]["idx"][b * 9:(b + 1) * 9],
                                      sc["mem"]["idx"])


@pytest.mark.parametrize("kind", KINDS)
def test_train_curve_tracks_per_sequence_reference(kind):
    text = make_rng(8).integers(32, 127, 4096).astype(np.uint8)
    runs = []
    for trainer in (train, reference_train):
        model = _model(kind, vocab=256, seed=9)
        corpus = ByteCorpus(text, seq_len=48)  # 2 sequences a call, 3 calls a step
        groups = build_optim_groups(model, "cpt", dense_lr=3e-3, memory_lr=1e-2)
        out = trainer(model, corpus, groups, steps=20, batch_size=5, seed=10)
        runs.append(out.losses if trainer is train else out)
    assert len(runs[0]) == 20
    assert max(abs(a - b) for a, b in zip(*runs)) <= CURVE_TOL


def test_recall_train_curve_tracks_per_sequence_reference():
    runs = []
    for trainer in (train, reference_train):
        model = _model("headwise", seed=11)
        corpus = RecallCorpus(vocab=64, num_pairs=64, seed=2)
        groups = build_optim_groups(model, "cpt", dense_lr=3e-3, memory_lr=1e-2)
        out = trainer(model, corpus, groups, steps=20, batch_size=16, seed=12)
        runs.append(out.losses if trainer is train else out)
    assert max(abs(a - b) for a, b in zip(*runs)) <= CURVE_TOL


def test_calls_split_minibatches_by_token_rows():
    assert _calls(16, 2) == [slice(0, 16)]  # recall: one call a step
    assert len(_calls(8, 128)) == 8  # one 128-byte window a call
    assert _calls(5, 48) == [slice(0, 2), slice(2, 4), slice(4, 5)]
    assert _calls(3, 1000) == [slice(0, 1), slice(1, 2), slice(2, 3)]


def test_model_forward_rejects_bad_token_shapes():
    model = _model("headwise")
    for bad in (np.zeros((2, 2, 2), dtype=int), np.zeros(0, dtype=int),
                np.zeros((3, 0), dtype=int)):
        with pytest.raises(ValueError):
            model_forward(bad, model)
    with pytest.raises(ValueError):
        loss_and_grads(model, np.zeros((2, 3), dtype=int), np.zeros(6, dtype=int))


@pytest.mark.parametrize("dtype", [bool, np.float32, np.float64])
def test_model_forward_rejects_non_integer_tokens(dtype):
    """A boolean array is not read as a row mask, nor a float one as ids;
    the training, evaluation and importance entry points inherit the check."""
    model = _model("headwise")
    tokens = np.ones(4, dtype=dtype)
    with pytest.raises(ValueError, match=f"integers, got dtype {np.dtype(dtype)}"):
        model_forward(tokens, model)
    with pytest.raises(ValueError, match="integers, got dtype"):
        loss_and_grads(model, tokens, np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="integers, got dtype"):
        head_importance(model, [(tokens, np.zeros(4, dtype=int))])


# ---------------------------------------------------------------------------
# one store per training step

@pytest.mark.parametrize("kind", KINDS)
def test_calls_into_one_store_equal_fresh_stores_summed(kind):
    """The trainer's contract: calls that add into one store leave every
    path and the write count bitwise equal to fresh per-call stores summed
    in call order."""
    model = _model(kind, seed=17)
    allowed = trainable_paths(model, "sft")
    rng = make_rng(18)
    inputs = rng.integers(0, 64, (5, 6))
    targets = rng.integers(0, 64, (5, 6))
    parts = [(slice(0, 3), 3 / 5), (slice(3, 5), 2 / 5)]
    shared = GradStore(allowed)
    for part, share in parts:
        _, got = loss_and_grads(model, inputs[part], targets[part], shared,
                                loss_scale=share)
        assert got is shared
    fresh = [loss_and_grads(model, inputs[part], targets[part],
                            GradStore(allowed), loss_scale=share)[1]
             for part, share in parts]
    assert set(shared) == set(fresh[0]) == set(fresh[1]) == allowed
    for path in allowed:
        assert np.array_equal(shared[path], fresh[0][path] + fresh[1][path]), path
    assert shared.writes == fresh[0].writes + fresh[1].writes > 0


def test_model_backward_adds_into_a_non_empty_store():
    model = _model("headwise", seed=19)
    tokens = make_rng(20).integers(0, 64, (2, 5))
    logits, caches = model_forward(tokens[:, :-1], model, training=True,
                                   collect=True)
    dlogits = lm_loss_backward(logits.reshape(-1, 64), tokens[:, 1:].ravel())
    fresh = model_backward(dlogits, caches, model, GradStore())
    store = GradStore()
    held = {path: make_rng(21).standard_normal(g.shape) for path, g in fresh.items()}
    for path, g in held.items():
        store.add(path, g.copy())
    store.writes = 7
    assert model_backward(dlogits, caches, model, store) is store
    assert set(store) == set(fresh)
    for path, g in fresh.items():
        assert np.array_equal(store[path], held[path] + g), path
    assert store.writes == 7 + fresh.writes


# ---------------------------------------------------------------------------
# no work for frozen parameters

def test_frozen_parameters_get_no_gradient_work(monkeypatch):
    import headmem.gradients as gradients

    model = _model("headwise", seed=13, policy="top_heavy")
    allowed = trainable_paths(model, "cpt")
    lowest = min(i for i in range(len(model.blocks))
                 if set(block_param_paths(model, i)) & allowed)
    assert lowest > 0
    rng = make_rng(14)
    inputs = rng.integers(0, 64, (3, 6))
    targets = rng.integers(0, 64, (3, 6))
    _, full = loss_and_grads(model, inputs, targets)

    offered, visited = [], []
    add = GradStore.add
    monkeypatch.setattr(GradStore, "add",
                        lambda self, path, g: (offered.append(path), add(self, path, g)))
    for name in ("transformer_block_backward", "memory_block_backward"):
        fn = getattr(gradients, name)
        monkeypatch.setattr(gradients, name,
                            lambda *a, _fn=fn, **k: (visited.append(a[4]), _fn(*a, **k))[1])
    _, kept = loss_and_grads(model, inputs, targets, GradStore(allowed))
    assert set(offered) == set(kept) == allowed
    assert visited and min(int(p.split(".")[1]) for p in visited) == lowest
    for path in allowed:
        assert np.array_equal(kept[path], full[path]), path


def test_head_importance_gets_every_probe_and_no_weight_gradient(monkeypatch):
    model = _model("pkm", seed=15)
    offered = []
    add = GradStore.add
    monkeypatch.setattr(GradStore, "add",
                        lambda self, path, g: (offered.append(path), add(self, path, g)))
    rng = make_rng(16)
    ds = [(rng.integers(0, 64, 5), rng.integers(0, 64, 5)) for _ in range(2)]
    rep = head_importance(model, ds)
    assert offered == []
    assert rep.scores.shape == (len(model.blocks), 4)
    assert np.all(np.any(rep.scores != 0.0, axis=1))

    tokens, tg = ds[0]
    logits, caches = model_forward(tokens, model, collect=True)
    probes = {}
    grads = model_backward(lm_loss_backward(logits, tg), caches, model,
                           GradStore(set(), probes))
    assert len(grads) == 0
    assert set(probes) == {f"blocks.{i}.attn" for i in range(len(model.blocks))}
