"""Optimizer, schedules, corpora, the training loop, and head importance."""

import hashlib
import math
import re

import numpy as np
import pytest

from headmem.gradients import GradStore
from headmem.layers import MemoryBlockParams, MemoryLayerKind
from headmem.memory import MemoryConfig
from headmem.model import init_base_model, model_forward, named_params
from headmem.numerics import NumericsError, make_rng, precision
from headmem.training import (
    AdamW,
    ByteCorpus,
    OptimGroup,
    RecallCorpus,
    build_optim_groups,
    evaluate,
    head_importance,
    loss_and_grads,
    schedule_lr,
    train,
)
from headmem.upscale import PlacementPolicy, UpscalePlan, build_memory_dus


def test_schedule_constant_and_cosine():
    assert schedule_lr("constant", 0, 100, 0.5) == 0.5
    assert schedule_lr("constant", 99, 100, 0.5) == 0.5
    total, max_lr = 100, 1.0
    warm = math.ceil(total * 0.1)
    # linear warmup reaches max exactly at the last warmup step
    assert schedule_lr("cosine_with_warmup", warm - 1, total, max_lr) == max_lr
    assert schedule_lr("cosine_with_warmup", 0, total, max_lr) == max_lr / warm
    # half-cosine decays monotonically to ~zero
    vals = [schedule_lr("cosine_with_warmup", s, total, max_lr)
            for s in range(warm, total)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert schedule_lr("cosine_with_warmup", total, total, max_lr) < 1e-12
    with pytest.raises(ValueError):
        schedule_lr("linear", 0, 10, 1.0)


def test_adamw_single_step_matches_reference():
    w = np.array([1.0, -2.0])
    g = np.array([0.5, 0.25])
    opt = AdamW({"w": w})
    grads = GradStore()
    grads.add("w", g)
    opt.step(grads, {"w": (0.1, 0.0)})
    # bias-corrected first step reduces to sign-ish update of size lr
    m_hat = g  # m / (1 - b1) with m = (1-b1) g
    v_hat = g * g
    want = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(w, want, atol=1e-12)


def test_adamw_decoupled_weight_decay():
    w = np.array([10.0])
    opt = AdamW({"w": w})
    grads = GradStore()
    grads.add("w", np.array([0.0]))
    opt.step(grads, {"w": (0.1, 0.5)})
    # zero gradient: only the decay term moves the weight
    assert np.allclose(w, 10.0 - 0.1 * 0.5 * 10.0, atol=1e-12)


INSERTED_PREFIX = "blocks.2."  # where distributed(3, 1) lands


def _memory_model(seed=0, vocab=64, d=32, heads=4, d_ff=48, depth=3, n=8, k=2):
    base = init_base_model(vocab=vocab, d=d, heads=heads, d_ff=d_ff,
                           depth=depth, rng=make_rng(seed))
    plan = UpscalePlan(policy=PlacementPolicy("distributed", depth, 1),
                       insert_kind="memory_block",
                       memory_kind=MemoryLayerKind.defaults("headwise"),
                       memory_cfg=MemoryConfig(heads=heads, n=n, k=k, d=d),
                       seed=seed + 1)
    return base, build_memory_dus(base, plan)


def test_optim_group_assignment():
    _, model = _memory_model()
    groups = build_optim_groups(model, "cpt")
    by_name = {g.name: g for g in groups}
    mem = by_name["memory_keys_values"]
    dense = by_name["inserted_dense"]
    assert mem.weight_decay == 0.0 and mem.schedule == "constant"
    assert dense.schedule == "cosine_with_warmup"
    assert all(p.rsplit(".", 1)[-1] in
               {"keys", "values", "k_row", "k_col", "v_base", "w_heads"}
               for p in mem.paths)
    assert all(p.startswith(INSERTED_PREFIX) for p in mem.paths + dense.paths)
    # sft opens everything up
    sft = build_optim_groups(model, "sft")
    sft_dense = next(g for g in sft if g.name == "inserted_dense")
    assert "embed" in sft_dense.paths and "blocks.0.attn.w_q" in sft_dense.paths


@pytest.mark.parametrize("mode", ["cpt", "sft"])
def test_optim_group_paths_follow_named_params_order(mode):
    """Each group lists its paths in walk order, whatever the hash seed."""
    _, model = _memory_model()
    walk = [path for path, _ in named_params(model)]
    for g in build_optim_groups(model, mode):
        assert g.paths and g.paths == [p for p in walk if p in set(g.paths)], g.name


def test_recall_corpus_structure():
    corpus = RecallCorpus(vocab=64, num_pairs=32, seed=1)
    assert corpus.pairs.shape == (32, 2)
    inputs, targets = corpus.batch(make_rng(0), 5)
    assert inputs.shape == (5, 2) and targets.shape == (5, 2)
    assert np.array_equal(inputs[:, 1], targets[:, 0])  # shifted by one
    sween_in, sweep_tg = corpus.full_sweep()
    assert sween_in.shape == (32, 2)
    # the map is a function: same key pair always yields the same value
    again = RecallCorpus(vocab=64, num_pairs=32, seed=1)
    assert np.array_equal(corpus.values, again.values)
    with pytest.raises(ValueError):
        RecallCorpus(vocab=16, num_pairs=17)


def test_byte_corpus_windows(tmp_path):
    blob = bytes(range(256)) * 4
    path = tmp_path / "corpus.bin"
    path.write_bytes(blob)
    corpus = ByteCorpus.from_file(str(path), seq_len=16)
    assert corpus.vocab == 256
    inputs, targets = corpus.batch(make_rng(3), 7)
    assert inputs.shape == (7, 16) and targets.shape == (7, 16)
    assert np.array_equal(inputs[:, 1:], targets[:, :-1])
    with pytest.raises(ValueError):
        ByteCorpus(np.zeros(4, dtype=np.uint8), seq_len=16)


@pytest.mark.parametrize("seq_len", [0, -3])
def test_byte_corpus_rejects_empty_windows(seq_len):
    with pytest.raises(ValueError, match=f"seq_len must be >= 1, got {seq_len}"):
        ByteCorpus(np.zeros(64, dtype=np.uint8), seq_len=seq_len)


def _hash_params(model, paths):
    h = hashlib.sha256()
    arrays = dict(named_params(model))
    for p in sorted(paths):
        h.update(arrays[p].tobytes())
    return h.hexdigest()


def test_train_reduces_loss_and_freezes_base():
    base, model = _memory_model(seed=5)
    corpus = RecallCorpus(vocab=64, num_pairs=64, seed=2)
    groups = build_optim_groups(model, "cpt", dense_lr=3e-3, memory_lr=1e-2)
    frozen = [p for p, _ in named_params(model)
              if not p.startswith(INSERTED_PREFIX)]
    before = _hash_params(model, frozen)
    report = train(model, corpus, groups, steps=120, batch_size=8, seed=3)
    assert len(report.losses) == 120
    head = float(np.mean(report.losses[:10]))
    tail = float(np.mean(report.losses[-10:]))
    assert tail < head
    assert _hash_params(model, frozen) == before  # base never written
    assert all(w >= 0 for w in report.unique_index_writes)
    assert report.unique_index_writes[0] > 0


def test_unique_index_writes_sum_forward_unique_slots(monkeypatch):
    # each step's count is the sum, over its model calls and memory blocks,
    # of the unique slots the forward selected; a block whose value table is
    # frozen writes nothing and counts 0
    from headmem import training
    base = init_base_model(vocab=256, d=16, heads=2, d_ff=24, depth=3,
                           rng=make_rng(6))
    plan = UpscalePlan(policy=PlacementPolicy("distributed", 3, 2),
                       insert_kind="memory_block",
                       memory_kind=MemoryLayerKind.defaults("pkm"),
                       memory_cfg=MemoryConfig(heads=2, n=6, k=3, d=16), seed=7)
    model = build_memory_dus(base, plan)
    mem = [i for i, b in enumerate(model.blocks) if isinstance(b, MemoryBlockParams)]
    assert len(mem) == 2
    frozen_table = f"blocks.{mem[1]}.bank.values"
    groups = build_optim_groups(model, "cpt")
    for g in groups:
        g.paths = [p for p in g.paths if p != frozen_table]
    text = make_rng(8).integers(0, 256, 4096).astype(np.uint8)
    corpus = ByteCorpus(text, seq_len=64)  # two sequences per call
    calls = []

    def recording_forward(*args, **kwargs):
        logits, caches = model_forward(*args, **kwargs)
        calls.append([np.unique(caches["blocks"][i]["mem"]["idx"]).size
                      for i in mem])
        return logits, caches

    monkeypatch.setattr(training, "model_forward", recording_forward)
    report = train(model, corpus, groups, steps=3, batch_size=5, seed=2)
    assert len(calls) == 3 * 3  # ceil(5 / 2) calls a step
    want = [sum(c[0] for c in calls[s:s + 3]) for s in range(0, 9, 3)]
    assert report.unique_index_writes == want
    assert all(w > 0 for w in want)


def test_train_is_deterministic():
    losses = []
    for _ in range(2):
        _, model = _memory_model(seed=6)
        corpus = RecallCorpus(vocab=64, num_pairs=32, seed=4)
        groups = build_optim_groups(model, "cpt")
        report = train(model, corpus, groups, steps=25, batch_size=4, seed=9)
        losses.append(report.losses)
    assert losses[0] == losses[1]


def test_train_zero_steps_is_a_no_op():
    _, model = _memory_model(seed=7)
    all_paths = [p for p, _ in named_params(model)]
    before = _hash_params(model, all_paths)
    corpus = RecallCorpus(vocab=64, num_pairs=16, seed=0)
    report = train(model, corpus, build_optim_groups(model, "cpt"), steps=0)
    assert report.losses == []
    assert _hash_params(model, all_paths) == before


def test_train_rejects_bad_batch_size_loss_scale_and_steps():
    _, model = _memory_model(seed=7)
    corpus = RecallCorpus(vocab=64, num_pairs=16, seed=0)
    groups = build_optim_groups(model, "cpt")
    for kwargs in ({"batch_size": 0}, {"steps": -1}):
        args = {"steps": 2, **kwargs}
        with pytest.raises(ValueError):
            train(model, corpus, groups, **args)


def _overlapping(dense, mem):
    return [dense, OptimGroup("memory_keys_values", mem.paths + dense.paths[:1])]


def _same_name(dense, mem):
    return [dense, OptimGroup("inserted_dense", mem.paths)]


def _no_column(dense, mem):
    return [OptimGroup("all", dense.paths + mem.paths, max_lr=1e-2)]


@pytest.mark.parametrize("make,message", [
    (_overlapping, "path {} is in group 'inserted_dense' "
                   "and in group 'memory_keys_values'"),
    (_same_name, "two groups are named 'inserted_dense'"),
    (_no_column, "group 'all' has no train_report column"),
], ids=["overlapping", "same_name", "no_column"])
def test_train_rejects_groups_it_cannot_apply_or_report(make, message):
    """A path in two groups would train at the later group's rate, and a
    group without a report column would log a rate of 0; both are refused
    before the first step writes anything."""
    _, model = _memory_model(seed=7)
    all_paths = [p for p, _ in named_params(model)]
    before = _hash_params(model, all_paths)
    dense, mem = build_optim_groups(model, "cpt")
    corpus = RecallCorpus(vocab=64, num_pairs=16, seed=0)
    with pytest.raises(ValueError, match=re.escape(message.format(dense.paths[0]))):
        train(model, corpus, make(dense, mem), steps=2, batch_size=2)
    assert _hash_params(model, all_paths) == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_on_non_finite_loss():
    _, model = _memory_model(seed=8)
    corpus = RecallCorpus(vocab=64, num_pairs=16, seed=0)
    groups = build_optim_groups(model, "cpt", dense_lr=1e22, memory_lr=1e22)
    with pytest.raises(NumericsError):
        train(model, corpus, groups, steps=50, batch_size=4, seed=1)


def test_loss_scale_changes_nothing_at_convergence_scale():
    _, model = _memory_model(seed=9)
    toks = make_rng(1).integers(0, 64, 10)
    loss_a, grads_a = loss_and_grads(model, toks[:-1], toks[1:])
    loss_b, grads_b = loss_and_grads(model, toks[:-1], toks[1:],
                                     loss_scale=1024.0)
    assert loss_a == loss_b
    for path in grads_a:
        assert np.allclose(grads_a[path], grads_b[path] / 1024.0,
                           rtol=1e-12, atol=1e-15)


def test_report_csv_format():
    _, model = _memory_model(seed=10)
    corpus = RecallCorpus(vocab=64, num_pairs=16, seed=0)
    report = train(model, corpus, build_optim_groups(model, "cpt"), steps=3,
                   batch_size=2, seed=2)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == ("step,loss,lr_inserted_dense,lr_memory_keys_values,"
                        "unique_index_writes")
    assert len(lines) == 4
    assert report.final_loss == report.losses[-1]


def test_evaluate_runs_in_inference_mode():
    _, model = _memory_model(seed=11)
    corpus = RecallCorpus(vocab=64, num_pairs=16, seed=0)
    ev_in, ev_tg = corpus.full_sweep()
    a = evaluate(model, ev_in, ev_tg)
    b = evaluate(model, ev_in, ev_tg)
    assert a == b and np.isfinite(a)


def test_evaluate_takes_list_inputs_and_targets():
    _, model = _memory_model(seed=11)
    inputs, targets = RecallCorpus(vocab=64, num_pairs=16, seed=0).full_sweep()
    want = evaluate(model, inputs[0], targets[0])
    assert evaluate(model, inputs[0], targets[0].tolist()) == want
    assert evaluate(model, inputs[0].tolist(), targets[0].tolist()) == want
    with pytest.raises(ValueError, match="integers, got dtype float64"):
        evaluate(model, inputs[0].astype(float), targets[0])


@pytest.mark.parametrize("shape", [(0, 4), (0,), (3, 0)],
                         ids=["no_sequences", "empty_sequence", "empty_sequences"])
def test_evaluate_rejects_empty_inputs(shape):
    _, model = _memory_model(seed=11)
    empty = np.zeros(shape, dtype=np.int64)
    with pytest.raises(ValueError, match=rf"got shape \({shape[0]},"):
        evaluate(model, empty, empty)


def _no_forward(*args, **kwargs):
    raise AssertionError("a forward ran before the targets were checked")


@pytest.mark.parametrize("shape,target_shape", [((8,), (8, 1)), ((8,), (1, 8)),
                                                 ((2, 8), (8,))],
                         ids=["column_targets", "row_targets", "one_row_of_two"])
def test_evaluate_rejects_targets_of_another_shape(monkeypatch, shape, target_shape):
    _, model = _memory_model(seed=11)
    monkeypatch.setattr("headmem.training.model_forward", _no_forward)
    inputs, targets = np.ones(shape, np.int64), np.ones(target_shape, np.int64)
    with pytest.raises(ValueError, match=re.escape(
            f"targets shape {target_shape} does not match inputs {shape}")):
        evaluate(model, inputs, targets)


@pytest.mark.parametrize("dtype", [np.float64, np.bool_], ids=["float", "bool"])
@pytest.mark.parametrize("entry", ["evaluate", "loss_and_grads", "head_importance"])
def test_non_integer_targets_raise_value_error(monkeypatch, entry, dtype):
    """Float targets once escaped as IndexError ("arrays used as indices")
    and bool targets as a boolean-index mismatch."""
    _, model = _memory_model(seed=11)
    monkeypatch.setattr("headmem.training.model_forward", _no_forward)
    inputs, targets = np.arange(8), np.ones(8, dtype)
    call = {"evaluate": lambda: evaluate(model, inputs, targets),
            "loss_and_grads": lambda: loss_and_grads(model, inputs, targets),
            "head_importance": lambda: head_importance(model, [(inputs, targets)])}
    with pytest.raises(ValueError,
                       match=f"target ids must be integers, got dtype {np.dtype(dtype)}"):
        call[entry]()


# ---------------------------------------------------------------------------
# head importance

def test_head_importance_zero_gradient_gives_zero():
    with precision("f64"):
        model = init_base_model(vocab=30, d=8, heads=2, d_ff=12, depth=2,
                                rng=make_rng(0))
    model.unembed[...] = 0.0  # loss is constant in every activation
    rng = make_rng(1)
    ds = [(rng.integers(0, 30, 6), rng.integers(0, 30, 6)) for _ in range(3)]
    rep = head_importance(model, ds)
    assert np.all(rep.scores == 0.0)
    assert np.all(rep.variance == 0.0)


def test_head_importance_duplication_invariance():
    with precision("f64"):
        model = init_base_model(vocab=30, d=8, heads=2, d_ff=12, depth=2,
                                rng=make_rng(2))
    rng = make_rng(3)
    ds = [(rng.integers(0, 30, 5), rng.integers(0, 30, 5)) for _ in range(4)]
    a = head_importance(model, ds)
    b = head_importance(model, ds + ds)
    assert np.array_equal(a.scores, b.scores)
    with pytest.raises(ValueError):
        head_importance(model, [])


@pytest.mark.parametrize("shape,target_shape", [((1, 5), (1, 5)), ((2, 5), (2, 5)),
                                                 ((5,), (4,)), ((5,), (1, 5))],
                         ids=["1xs", "2xs", "short_targets", "1xs_targets"])
def test_head_importance_rejects_all_but_one_sequence(shape, target_shape):
    """Any pair but one sequence [s] raises: a [1, s] pair would otherwise be
    scored against the wrong logit rows, without an error."""
    with precision("f64"):
        model = init_base_model(vocab=30, d=8, heads=2, d_ff=12, depth=2,
                                rng=make_rng(2))
    rng = make_rng(3)
    inputs = rng.integers(0, 5, shape)  # every id below s
    targets = rng.integers(0, 5, target_shape)
    with pytest.raises(ValueError, match=r"one sequence \[s\], got shapes"):
        head_importance(model, [(inputs, targets)])


@pytest.mark.parametrize("bad", [-1, 30])
def test_head_importance_rejects_target_out_of_vocab(bad):
    with precision("f64"):
        model = init_base_model(vocab=30, d=8, heads=2, d_ff=12, depth=2,
                                rng=make_rng(2))
    targets = np.array([1, 2, bad, 3])
    with pytest.raises(ValueError, match="target id out of vocab range"):
        head_importance(model, [(np.array([4, 5, 6, 7]), targets)])


def test_head_importance_variance_recompute():
    with precision("f64"):
        model = init_base_model(vocab=30, d=8, heads=4, d_ff=12, depth=3,
                                rng=make_rng(4))
    rng = make_rng(5)
    ds = [(rng.integers(0, 30, 7), rng.integers(0, 30, 7)) for _ in range(3)]
    rep = head_importance(model, ds)
    assert rep.scores.shape == (3, 4)
    assert np.max(np.abs(rep.variance - rep.scores.var(axis=1))) < 1e-18
    rows = rep.scores_csv().strip().split("\n")
    assert rows[0] == "layer,head,importance"
    assert len(rows) == 1 + 3 * 4
    # CSV carries full precision: recompute variance from the text
    from_csv = np.full((3, 4), np.nan)
    for line in rows[1:]:
        layer, head, val = line.split(",")
        from_csv[int(layer), int(head)] = float(val)
    assert np.max(np.abs(from_csv.var(axis=1) - rep.variance)) < 1e-18


def test_head_importance_matches_finite_differences():
    """Replay the block tail with a perturbed per-head context tensor:
    central differences give dL/dctx coordinate by coordinate, and the
    reported score must equal the position-mean of sum_d ctx * dL/dctx."""
    from headmem.transformer import (
        ffn_forward,
        lm_loss,
        rms_norm_fwd,
    )

    with precision("f64"):
        model = init_base_model(vocab=13, d=4, heads=2, d_ff=6, depth=1,
                                rng=make_rng(6))
    rng = make_rng(7)
    inputs = rng.integers(0, 13, 4)
    targets = rng.integers(0, 13, 4)
    rep = head_importance(model, [(inputs, targets)])

    _, caches = model_forward(inputs, model, training=False, collect=True)
    block_cache = caches["blocks"][0]
    ctx = block_cache["attn"]["ctx"][0]       # [1, 2, 4, 2] -> [2, 4, 2]
    x = block_cache["norm1"]["x"]
    p = model.blocks[0]

    def loss_with_ctx(c):
        attn_out = c.swapaxes(0, 1).reshape(c.shape[1], -1) @ p.attn.w_o  # merge heads
        x2 = x + attn_out
        xn2, _ = rms_norm_fwd(x2, p.ffn_gain)
        ff, _ = ffn_forward(xn2, p.ffn)
        y = x2 + ff
        xf, _ = rms_norm_fwd(y, model.final_gain)
        return lm_loss(xf @ model.unembed, targets)

    h = 1e-6
    heads, s, d_h = ctx.shape
    want = np.zeros(heads)
    for head in range(heads):
        acc = 0.0
        for pos in range(s):
            for dim in range(d_h):
                bumped = ctx.copy()
                bumped[head, pos, dim] += h
                up = loss_with_ctx(bumped)
                bumped[head, pos, dim] -= 2 * h
                down = loss_with_ctx(bumped)
                acc += ctx[head, pos, dim] * (up - down) / (2 * h)
        want[head] = acc / s
    assert np.max(np.abs(rep.scores[0] - want)) < 1e-7
