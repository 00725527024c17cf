"""Config parsing, model builders, and the checkpoint container format."""

import numpy as np
import pytest

from headmem.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from headmem.config import (
    ConfigError,
    build_base,
    build_corpus,
    build_groups,
    build_model,
    default_config,
    parse_config,
    parse_config_text,
)
from headmem.model import model_forward, named_buffers, named_params
from headmem.numerics import make_rng
from headmem.training import ByteCorpus, RecallCorpus


def test_defaults_are_complete():
    cfg = default_config()
    assert cfg["model"]["d"] == 64
    assert cfg["memory"]["kind"] == "headwise"
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
query_layernorm = true
query_batchnorm = false

[upscale]
inserted = 1
"""
    cfg = parse_config_text(text)
    assert cfg["model"]["d"] == 32
    assert cfg["memory"]["kind"] == "pkm"
    assert cfg["memory"]["query_layernorm"] is True
    assert cfg["memory"]["query_batchnorm"] is False
    assert cfg["memory"]["internal_residual"] is None  # untouched stays default
    assert cfg["model"]["vocab"] == 256  # unset keys fall back


def test_parse_rejections():
    with pytest.raises(ConfigError, match=r"unknown section"):
        parse_config_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"model\.flavor"):
        parse_config_text("[model]\nflavor = 3\n")
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
                            "loss_scale = 1e-3\nweight_decay = 0\n")
    assert cfg["train"]["batch_size"] == 1 and cfg["train"]["warmup_ratio"] == 1.0
    for line in ("batch_size = 0", "loss_scale = 0", "steps = -1",
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
    cfg["memory"].update(kind=kind, n=8, k=2, fused_threshold=4)
    cfg["upscale"].update(inserted=1, seed=seed + 1)
    _, model = build_model(cfg)
    return cfg, model


def _dirty_batchnorm(model):
    """Push some forward passes in training mode so running stats move."""
    rng = make_rng(9)
    for _ in range(3):
        toks = rng.integers(0, 64, 10)
        model_forward(toks, model, training=True)


@pytest.mark.parametrize("kind", ["linear", "pkm", "headwise"])
def test_checkpoint_roundtrip_bitwise(kind, tmp_path):
    cfg, model = _small_model(kind)
    if kind in ("linear", "pkm"):
        _dirty_batchnorm(model)  # running stats must survive the trip
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
    want_b = dict(named_buffers(model))
    got_b = dict(named_buffers(loaded))
    assert sorted(want_b) == sorted(got_b)
    for name in want_b:
        assert np.array_equal(want_b[name], got_b[name]), name

    toks = make_rng(4).integers(0, 64, 12)
    a, _ = model_forward(toks, model, training=False)
    b, _ = model_forward(toks, loaded, training=False)
    assert np.array_equal(a, b)


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


def test_checkpoint_rejects_truncated_payload(tmp_path):
    _, model = _small_model("headwise")
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-16])
    with pytest.raises(CheckpointError):
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
    with pytest.raises(CheckpointError):
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
