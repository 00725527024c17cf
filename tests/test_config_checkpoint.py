"""Config parsing, model builders, and the checkpoint container format."""

import json
import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headmem.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from headmem.config import (
    ConfigError,
    build_corpus,
    build_groups,
    build_model,
    default_config,
    parse_config,
    parse_config_text,
)
from headmem.layers import MEMORY_KINDS, MemoryBlockParams, MemoryLayerKind
from headmem.memory import MemoryConfig
from headmem.model import (
    init_base_model,
    init_transformer_block,
    model_forward,
    named_params,
    tensor_slots,
)
from headmem.numerics import make_rng, precision
from headmem.training import ByteCorpus, RecallCorpus
from headmem.upscale import (
    INIT_SOURCES,
    POLICY_NAMES,
    PlacementPolicy,
    UpscalePlan,
    build_dus,
    build_memory_dus,
    init_memory_block,
    neighbor_base_indices,
    policy_indices,
)


def test_defaults_are_complete():
    cfg = default_config()
    assert cfg["model"]["d"] == 64
    assert cfg["memory"]["kind"] == "headwise"
    assert sorted(cfg["memory"]) == ["k", "kind", "n"]
    assert cfg["upscale"]["policy"] == "distributed"
    assert cfg["train"]["mode"] == "cpt"
    assert cfg["run"]["precision"] == "f32"


def test_parse_roundtrip_and_overrides():
    text = """
[model]
d = 32
heads = 2
d_ff = 64
depth = 2

[memory]
kind = pkm
n = 8
k = 2

[upscale]
inserted = 1
"""
    cfg = parse_config_text(text)
    assert cfg["model"]["d"] == 32
    assert cfg["memory"]["kind"] == "pkm"
    assert cfg["model"]["vocab"] == 256  # unset keys fall back


def test_parse_rejections():
    with pytest.raises(ConfigError, match=r"unknown section"):
        parse_config_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"model\.flavor"):
        parse_config_text("[model]\nflavor = 3\n")
    for key in ("query_batchnorm", "query_layernorm", "internal_residual",
                "output_projection"):
        with pytest.raises(ConfigError, match=rf"unknown key memory\.{key}"):
            parse_config_text(f"[memory]\n{key} = false\n")
    with pytest.raises(ConfigError):
        parse_config_text("[model]\nd = soup\n")
    with pytest.raises(ConfigError):
        parse_config_text("[memory]\nkind = holographic\n")
    with pytest.raises(ConfigError):
        parse_config_text("[run]\nprecision = f16\n")
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path/run.cfg")


def test_parse_value_ranges_are_inclusive_where_stated():
    cfg = parse_config_text("[train]\nbatch_size = 1\nsteps = 0\nwarmup_ratio = 1\n"
                            "weight_decay = 0\n")
    assert cfg["train"]["batch_size"] == 1 and cfg["train"]["warmup_ratio"] == 1.0
    for line in ("batch_size = 0", "steps = -1",
                 "warmup_ratio = -0.1", "warmup_ratio = 1.01", "memory_lr = nan"):
        with pytest.raises(ConfigError, match=r"train\.\w+ must be"):
            parse_config_text(f"[train]\n{line}\n")


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[model]\ndepth = 2\n[upscale]\ninserted = 1\n")
    cfg = parse_config(str(path))
    assert cfg["model"]["depth"] == 2
    assert cfg["upscale"]["inserted"] == 1


def test_build_model_shapes():
    cfg = default_config()
    cfg["model"].update(d=32, heads=2, d_ff=48, depth=2, vocab=64)
    cfg["memory"].update(n=8, k=2)
    cfg["upscale"].update(inserted=1)
    base, model = build_model(cfg)
    assert len(base.blocks) == 2
    assert len(model.blocks) == 3
    toks = make_rng(0).integers(0, 64, 6)
    logits, _ = model_forward(toks, model, training=False)
    assert logits.shape == (6, 64)


def test_build_corpus_variants(tmp_path):
    cfg = default_config()
    cfg["train"]["corpus"] = "recall"
    assert isinstance(build_corpus(cfg), RecallCorpus)

    cfg["train"]["corpus"] = "bytes"
    with pytest.raises(ConfigError, match="train.corpus_path"):
        build_corpus(cfg)
    blob = tmp_path / "data.bin"
    blob.write_bytes(bytes(range(256)) * 2)
    cfg["train"]["corpus_path"] = str(blob)
    cfg["train"]["seq_len"] = 8
    assert isinstance(build_corpus(cfg), ByteCorpus)

    cfg["model"]["vocab"] = 100
    with pytest.raises(ConfigError):
        build_corpus(cfg)


def test_build_groups_uses_train_section():
    cfg = default_config()
    cfg["model"].update(d=32, heads=2, d_ff=48, depth=2, vocab=64)
    cfg["memory"].update(n=8, k=2)
    cfg["upscale"].update(inserted=1)
    cfg["train"].update(dense_lr=0.25, memory_lr=0.5, weight_decay=0.125)
    _, model = build_model(cfg)
    groups = {g.name: g for g in build_groups(cfg, model)}
    assert groups["inserted_dense"].max_lr == 0.25
    assert groups["inserted_dense"].weight_decay == 0.125
    assert groups["memory_keys_values"].max_lr == 0.5
    assert groups["memory_keys_values"].weight_decay == 0.0


# ---------------------------------------------------------------------------
# checkpoints

def _small_model(kind, seed=0):
    cfg = default_config()
    cfg["model"].update(vocab=64, d=32, heads=4, d_ff=48, depth=2, seed=seed)
    cfg["memory"].update(kind=kind, n=8, k=2)
    cfg["upscale"].update(inserted=1, seed=seed + 1)
    _, model = build_model(cfg)
    return cfg, model


@pytest.mark.parametrize("kind", ["linear", "pkm", "headwise"])
def test_checkpoint_roundtrip_bitwise(kind, tmp_path):
    cfg, model = _small_model(kind)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, config=cfg)
    loaded, cfg_back = load_checkpoint(path)
    assert cfg_back == cfg

    want_p = dict(named_params(model))
    got_p = dict(named_params(loaded))
    assert sorted(want_p) == sorted(got_p)
    for name in want_p:
        assert want_p[name].dtype == got_p[name].dtype, name
        assert np.array_equal(want_p[name], got_p[name]), name

    toks = make_rng(4).integers(0, 64, 12)
    a, _ = model_forward(toks, model, training=False)
    b, _ = model_forward(toks, loaded, training=False)
    assert np.array_equal(a, b)


# The walk order is the checkpoint payload order and the optimizer state
# order; these lists are the order files were written in before the walk
# became generic.
_ATTN = ["attn.w_q", "attn.w_k", "attn.w_v"]
WALK_ORDER = {
    "transformer": _ATTN + ["attn.w_o", "attn_gain", "ffn.w_gate", "ffn.w_up",
                            "ffn.w_down", "ffn_gain"],
    "linear": _ATTN + ["attn.w_o", "norm_gain", "bank.w_q", "bank.keys", "bank.values",
                       "query_ln_gain"],
    "pkm": _ATTN + ["attn.w_o", "norm_gain", "bank.w_q", "bank.pk.k_row",
                    "bank.pk.k_col", "bank.values", "query_ln_gain"],
    "headwise": _ATTN + ["norm_gain", "bank.pk.k_row", "bank.pk.k_col",
                         "bank.values.v_base", "bank.values.w_heads"],
}


@pytest.mark.parametrize("case", list(WALK_ORDER))
def test_walk_order_is_pinned(case):
    source = init_transformer_block(8, 2, 12, make_rng(0))
    block = source
    if case != "transformer":
        block = init_memory_block(source, MemoryLayerKind(case),
                                  MemoryConfig(heads=2, n=4, k=2, d=8), make_rng(1))
    assert [p for p, _ in named_params(block)] == WALK_ORDER[case]


def _expansions(base):
    """(plan, expanded model) of build_dus with each init source and of
    build_memory_dus with each kind, all under the distributed policy."""
    policy = PlacementPolicy("distributed", len(base.blocks), 2)
    for source in INIT_SOURCES:
        plan = UpscalePlan(policy=policy, insert_kind="transformer_copy",
                           init_source=source, zero_init_copies=source == "preceding")
        yield plan, build_dus(base, plan)
    for kind in MEMORY_KINDS:
        plan = UpscalePlan(policy=policy, insert_kind="memory_block",
                           memory_kind=MemoryLayerKind(kind),
                           memory_cfg=MemoryConfig(heads=2, n=4, k=2, d=8), seed=3)
        yield plan, build_memory_dus(base, plan)


def test_expansion_copies_follow_the_walk():
    """Every tensor_slots path of the base comes out of both builders with
    its bits, dtype and C order, in an array of its own; the copied base
    blocks walk as the base's do, and None and non-array fields (heads, a
    memory block's kind and config, the model's sizes) are carried over."""
    for prec in ("f32", "f64"):
        with precision(prec):
            base = init_base_model(vocab=11, d=8, heads=2, d_ff=12, depth=4,
                                   rng=make_rng(2))
            cases = list(_expansions(base))
        base_arrays = [a for _, a in named_params(base)]
        for plan, out in cases:
            case = (prec, plan.insert_kind, plan.init_source, plan.memory_kind)
            for name in ("vocab", "d", "heads", "d_ff"):
                assert getattr(out, name) == getattr(base, name)
            assert out.blocks is not base.blocks
            for path, owner, name in tensor_slots(out):
                a = getattr(owner, name)
                assert a.dtype == base.embed.dtype and a.flags.c_contiguous, (case, path)
                assert not any(np.shares_memory(a, b) for b in base_arrays), (case, path)
            positions = policy_indices(plan.policy)
            kept = [b for q, b in enumerate(out.blocks) if q not in positions]
            for got, src in zip([out, *kept], [base, *base.blocks]):
                if got is out:  # the model's own tensors, outside the blocks
                    pairs = [(p, a) for p, a in named_params(out) if "." not in p]
                    want = [(p, a) for p, a in named_params(base) if "." not in p]
                else:
                    pairs, want = list(named_params(got)), list(named_params(src))
                assert [p for p, _ in pairs] == [p for p, _ in want], case
                for (p, a), (_, b) in zip(pairs, want):
                    assert np.array_equal(a, b), (case, p)
            for q, (pre, sub) in zip(positions, neighbor_base_indices(plan.policy)):
                got, src = out.blocks[q], base.blocks[sub if sub is not None else pre]
                assert got.attn.heads == src.attn.heads
                if isinstance(got, MemoryBlockParams):
                    headwise = plan.memory_kind.kind == "headwise"
                    assert got.kind == plan.memory_kind and got.cfg == plan.memory_cfg
                    assert (got.attn.w_o is None) == headwise, case
                    assert (got.query_ln_gain is None) == headwise, case
                    for p in ("w_q", "w_k", "w_v") + (() if headwise else ("w_o",)):
                        assert np.array_equal(getattr(got.attn, p), getattr(src.attn, p))
                else:
                    assert type(got) is type(src), case


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(MEMORY_KINDS), prec=st.sampled_from(("f32", "f64")),
       policy=st.sampled_from(POLICY_NAMES), heads=st.integers(1, 3),
       half=st.integers(1, 2), n=st.integers(1, 4), k=st.integers(1, 4),
       depth=st.integers(1, 3), inserted=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
def test_checkpoint_roundtrip_property(kind, prec, policy, heads, half, n, k, depth,
                                       inserted, seed):
    """Random small shapes, every kind, precision and placement,
    with every tensor and mask bit moved off its init: the loaded model is
    the saved one, bitwise and dtype for dtype."""
    d = 2 * half * heads
    rng = make_rng(seed)
    with precision(prec):
        base = init_base_model(vocab=11, d=d, heads=heads, d_ff=6, depth=depth, rng=rng)
        plan = UpscalePlan(policy=PlacementPolicy(policy, depth, min(inserted, depth)),
                           insert_kind="memory_block",
                           memory_kind=MemoryLayerKind(kind),
                           memory_cfg=MemoryConfig(heads=heads, n=n, k=min(k, n), d=d),
                           seed=seed)
        model = build_memory_dus(base, plan)
    for _, arr in named_params(model):
        arr += 0.1 * rng.standard_normal(arr.shape).astype(arr.dtype)
    model.trainable = [bool(b) for b in rng.integers(0, 2, len(model.blocks))]
    tokens = rng.integers(0, 11, (2, 5))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)

    want, got = list(named_params(model)), list(named_params(loaded))
    assert [p for p, _ in got] == [p for p, _ in want]
    for (name, a), (_, b) in zip(want, got):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert loaded.trainable == model.trainable
    want, _ = model_forward(tokens, model)
    got, _ = model_forward(tokens, loaded)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_checkpoint_without_config(tmp_path):
    _, model = _small_model("headwise")
    path = str(tmp_path / "bare.ckpt")
    save_checkpoint(path, model)
    _, cfg_back = load_checkpoint(path)
    assert cfg_back is None


def test_checkpoint_save_is_deterministic(tmp_path):
    cfg, model = _small_model("pkm", seed=3)
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(p1, model, config=cfg)
    save_checkpoint(p2, model, config=cfg)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    # load then save again: still byte-identical
    loaded, cfg_back = load_checkpoint(p1)
    p3 = str(tmp_path / "c.ckpt")
    save_checkpoint(p3, loaded, config=cfg_back)
    assert open(p1, "rb").read() == open(p3, "rb").read()


def test_checkpoint_rejects_bad_magic(tmp_path):
    _, model = _small_model("headwise")
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model)
    raw = bytearray(open(path, "rb").read())
    raw[:8] = b"NOTMINE\x00"
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_version(tmp_path):
    _, model = _small_model("headwise")
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model)
    raw = bytearray(open(path, "rb").read())
    assert raw[:8] == MAGIC
    raw[8] = FORMAT_VERSION + 1
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit,match", [
    # the embedding alone would be larger than the whole payload; the load
    # refuses before allocating it
    (lambda h: h["model"].update(d=2 ** 16), "larger than the payload"),
    (lambda h: h["model"].update(trainable=["x", None, 7]), "trainable"),
    # a [2**40] f32 table entry in a small file: the table is checked
    # against the file's size before any tensor is allocated
    (lambda h: h["tensors"][0].update(shape=[2 ** 40]), "payload truncated at embed"),
], ids=["sizes_beyond_payload", "trainable_not_bool", "table_entry_beyond_file"])
def test_checkpoint_rejects_header_edit(tmp_path, edit, match):
    _, model = _small_model("pkm")
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model)
    raw = open(path, "rb").read()
    hlen, = struct.unpack_from("<Q", raw, 12)
    header = json.loads(raw[20:20 + hlen])
    edit(header)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    open(path, "wb").write(raw[:12] + struct.pack("<Q", len(text)) + text
                           + raw[20 + hlen:])
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_checkpoint_rejects_truncated_payload(tmp_path):
    _, model = _small_model("headwise")
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-16])
    # the tensor table is checked against the file's size before any read
    with pytest.raises(CheckpointError, match="payload truncated at blocks.2.ffn_gain"):
        load_checkpoint(path)


def test_checkpoint_rejects_corrupt_payload(tmp_path):
    _, model = _small_model("headwise")
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model)
    raw = bytearray(open(path, "rb").read())
    raw[-5] ^= 0xFF  # flip bits inside the tensor payload
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_garbage(tmp_path):
    _, model = _small_model("headwise")
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model)
    with open(path, "ab") as f:
        f.write(b"leftover")
    with pytest.raises(CheckpointError, match="trailing bytes after last tensor"):
        load_checkpoint(path)


def test_checkpoint_preserves_dus_copy_blocks(tmp_path):
    cfg = default_config()
    cfg["model"].update(vocab=64, d=32, heads=4, d_ff=48, depth=2)
    cfg["upscale"].update(inserted=1, insert_kind="transformer_copy",
                          policy="llama_pro", init_source="preceding",
                          zero_init_copies=True)
    _, model = build_model(cfg)
    path = str(tmp_path / "copy.ckpt")
    save_checkpoint(path, model, config=cfg)
    loaded, _ = load_checkpoint(path)
    toks = make_rng(8).integers(0, 64, 9)
    a, _ = model_forward(toks, model, training=False)
    b, _ = model_forward(toks, loaded, training=False)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# streaming: a round trip holds the model and one skeleton block, never the
# payload as one object

MiB = 1 << 20


def _pkm_n64():
    base = init_base_model(vocab=256, d=64, heads=4, d_ff=256, depth=4, rng=make_rng(0))
    plan = UpscalePlan(policy=PlacementPolicy("distributed", 4, 2),
                       insert_kind="memory_block", memory_kind=MemoryLayerKind("pkm"),
                       memory_cfg=MemoryConfig(heads=4, n=64, k=8, d=64), seed=1)
    with precision("f32"):
        return build_memory_dus(base, plan)


def _traced_peak(fn) -> int:
    """Peak traced bytes of one call of fn above those traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_checkpoint_save_forms_no_payload(tmp_path):
    """Saving hashes and writes the model's own arrays. Joining their bytes
    into one payload took about twice the model (6.7 MiB here)."""
    model, path = _pkm_n64(), str(tmp_path / "model.ckpt")
    save_checkpoint(path, model)  # warm-up
    assert sum(a.nbytes for _, a in named_params(model)) > 3 * MiB
    assert _traced_peak(lambda: save_checkpoint(path, model)) <= 0.1 * MiB


def test_checkpoint_load_reads_each_tensor_once(tmp_path):
    """Loading reads each tensor into its own array, so its peak is the
    loaded model plus one skeleton block. Reading the whole file and
    copying each tensor out of it took about 2.5 times the model."""
    model, path = _pkm_n64(), str(tmp_path / "model.ckpt")
    save_checkpoint(path, model)
    load_checkpoint(path)  # warm-up
    total = sum(a.nbytes for _, a in named_params(model))
    largest = max(sum(a.nbytes for _, a in named_params(b)) for b in model.blocks)
    del model
    assert _traced_peak(lambda: load_checkpoint(path)) <= total + largest + 0.25 * MiB
