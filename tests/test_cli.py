"""End-to-end runs of every CLI subcommand through main()."""

import hashlib
import json
import struct

import numpy as np
import pytest

from headmem.checkpoint import load_checkpoint, save_checkpoint
from headmem.cli import main
from headmem.config import build_model, parse_config
from headmem.model import named_params
from headmem.upscale import POLICY_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL_HEAD = """
[model]
vocab = 64
d = 32
heads = 4
d_ff = 48
depth = 2

[memory]
n = 8
k = 2

[upscale]
inserted = 1
"""

SMALL_TRAIN = """
[train]
steps = 60
batch_size = 8
dense_lr = 3e-3
memory_lr = 1e-2
corpus = recall
num_pairs = 32
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_HEAD + SMALL_TRAIN)
    return str(path)


def test_policy_prints_reference_layouts(capsys):
    code, out, _ = run(capsys, "policy", "16", "8")
    assert code == 0
    lines = dict(l.split(": ") for l in out.strip().split("\n"))
    assert lines["top_heavy"] == "8,10,12,14,16,18,20,22"
    assert lines["distributed"] == "1,4,7,10,13,16,19,22"
    assert lines["bottom_heavy"] == "0,2,4,6,8,10,12,14"
    assert lines["llama_pro"] == "2,5,8,11,14,17,20,23"
    code, out, _ = run(capsys, "policy", "32", "16", "top_heavy")
    assert code == 0
    assert out.strip().endswith(",".join(str(i) for i in range(16, 47, 2)))


def test_params_table_ordering(capsys):
    # desk defaults: d=64, n=16, k=4, two inserted blocks
    code, out, _ = run(capsys, "params")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "method,inserted_blocks,trainable_params,total_params"
    rows = {r.split(",")[0]: [int(v) for v in r.split(",")[1:]]
            for r in lines[1:]}
    assert set(rows) == {"dus_copy", "mem_linear", "mem_pkm", "mem_headwise"}
    trainable = {k: v[1] for k, v in rows.items()}
    assert (trainable["mem_headwise"] < trainable["mem_pkm"]
            < trainable["mem_linear"] < trainable["dus_copy"])
    for k, v in rows.items():
        assert v[0] == 2 and v[2] > v[1]


def test_config_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\nwings = 2\n")
    code, _, err = run(capsys, "params", "--config", str(bad))
    assert code == 2
    assert "error:" in err and "model.wings" in err


@pytest.mark.parametrize("section,line", [
    ("train", "batch_size = 0"),
    ("train", "steps = -1"),
    ("train", "warmup_ratio = -0.5"),
    ("train", "warmup_ratio = 1.5"),
    ("train", "dense_lr = nan"),
    ("model", "heads = 0"),
])
def test_out_of_range_train_config_exits_2(capsys, tmp_path, section, line):
    cfg = tmp_path / "range.cfg"
    cfg.write_text(f"[{section}]\n{line}\n")
    code, out, err = run(capsys, "train", "--config", str(cfg),
                         "--out", str(tmp_path / "run"))
    assert code == 2
    key = line.split(" = ")[0]
    assert f"error: {section}.{key} must be" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("case", ["config_is_dir", "corpus_is_dir", "out_is_file"])
def test_unusable_path_exits_2(capsys, tmp_path, case):
    """A path naming a directory where a file is read, or a file where a
    directory is made, exits 2 with an error line."""
    existing = tmp_path / "existing.txt"
    existing.write_text("x")
    cfg = tmp_path / "bytes.cfg"
    cfg.write_text(SMALL_HEAD.replace("vocab = 64", "vocab = 256")
                   + f"\n[train]\ncorpus = bytes\ncorpus_path = {tmp_path}\nsteps = 1\n")
    argv = {"config_is_dir": ["params", "--config", str(tmp_path)],
            "corpus_is_dir": ["train", "--config", str(cfg), "--out", str(tmp_path / "run")],
            "out_is_file": ["params", "--out", str(existing)]}[case]
    code, out, err = run(capsys, *argv)
    assert code == 2 and "error:" in err
    assert "Traceback" not in out + err


def test_missing_corpus_file_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bytes.cfg"
    cfg.write_text(SMALL_HEAD + "\n[train]\ncorpus = bytes\nsteps = 5\n")
    code, _, err = run(capsys, "train", "--config", str(cfg),
                       "--out", str(tmp_path / "run"))
    assert code == 2
    assert "train.corpus_path" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_abort_exits_3(capsys, tmp_path):
    cfg = tmp_path / "explode.cfg"
    cfg.write_text(SMALL_HEAD + "\n[train]\nsteps = 40\nbatch_size = 8\n"
                   "dense_lr = 1e22\nmemory_lr = 1e22\ncorpus = recall\n"
                   "num_pairs = 32\n")
    code, _, err = run(capsys, "train", "--config", str(cfg),
                       "--out", str(tmp_path / "run"))
    assert code == 3
    assert "numeric abort:" in err


def test_train_eval_head_importance_chain(capsys, tmp_path, small_cfg):
    out_dir = tmp_path / "run"
    code, out, _ = run(capsys, "train", "--config", small_cfg,
                       "--out", str(out_dir))
    assert code == 0
    report = (out_dir / "train_report.csv").read_text().strip().split("\n")
    assert report[0] == ("step,loss,lr_inserted_dense,lr_memory_keys_values,"
                         "unique_index_writes")
    assert len(report) == 61
    ckpt = out_dir / "model.ckpt"
    assert ckpt.exists()
    assert "final train loss" in out and "eval loss" in out

    code, out, _ = run(capsys, "eval", "--ckpt", str(ckpt))
    assert code == 0
    eval_a = out
    code, out, _ = run(capsys, "eval", "--ckpt", str(ckpt))
    assert out == eval_a  # deterministic

    hi_dir = tmp_path / "hi"
    code, _, _ = run(capsys, "head-importance", "--ckpt", str(ckpt),
                     "--out", str(hi_dir))
    assert code == 0
    scores = (hi_dir / "head_importance.csv").read_text().strip().split("\n")
    assert scores[0] == "layer,head,importance"
    assert len(scores) == 1 + 3 * 4  # three blocks, four heads
    var = (hi_dir / "head_variance.csv").read_text().strip().split("\n")
    assert var[0] == "layer,variance"
    assert len(var) == 4


def test_train_is_reproducible(capsys, tmp_path, small_cfg):
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, _ = run(capsys, "train", "--config", small_cfg,
                         "--out", str(out_dir))
        assert code == 0
        outs.append((out_dir / "train_report.csv").read_text())
    assert outs[0] == outs[1]


def test_eval_on_missing_checkpoint_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--ckpt", str(tmp_path / "no.ckpt"))
    assert code == 2
    assert "error:" in err


def test_gradcheck_subcommand(capsys):
    code, out, _ = run(capsys, "gradcheck", "--checks", "rms_norm,softmax,ffn")
    assert code == 0
    assert out.count("PASS") == 3 and "FAIL" not in out
    code, _, err = run(capsys, "gradcheck", "--checks", "nonsense")
    assert code == 2
    assert "nonsense" in err


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_bad_gradcheck_tol_exits_2(capsys, tol):
    code, out, err = run(capsys, "gradcheck", "--tol", tol, "--checks", "softmax")
    assert code == 2
    assert "error: tol must be" in err
    assert "FAIL" not in out and "Traceback" not in out + err


REMOVED_KEYS = [
    ("memory", "route = fused"),
    ("memory", "fused_threshold = 4"),
    ("train", "loss_scale = 1"),
    ("train", "loss_scale = 0"),
    ("train", "loss_scale = -1"),
    ("memory", "query_layernorm = true"),
    ("memory", "internal_residual = true"),
    ("memory", "output_projection = false"),
]


@pytest.mark.parametrize("section,line", REMOVED_KEYS, ids=[line for _, line in REMOVED_KEYS])
def test_removed_route_keys_exit_2(capsys, tmp_path, section, line):
    cfg = tmp_path / "route.cfg"
    cfg.write_text(f"[{section}]\n{line}\n")
    code, out, err = run(capsys, "params", "--config", str(cfg))
    assert code == 2
    assert f"unknown key {section}.{line.split(' = ')[0]}" in err
    assert "Traceback" not in out + err


def test_removed_fused_threshold_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["params", "--fused-threshold", "4"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --fused-threshold" in err
    assert "Traceback" not in err


@pytest.fixture
def small_ckpt(tmp_path, small_cfg):
    cfg = parse_config(small_cfg)
    _, model = build_model(cfg)
    path = tmp_path / "small.ckpt"
    save_checkpoint(str(path), model, cfg)
    return str(path)


# flags a subcommand used to accept without reading them
DROPPED_FLAGS = [("gradcheck", "--config"), ("gradcheck", "--out"),
                 ("gradcheck", "--precision"), ("eval", "--out"),
                 ("eval", "--precision"), ("head-importance", "--precision"),
                 ("params", "--seed"), ("params", "--precision")]


@pytest.mark.parametrize("command,flag", DROPPED_FLAGS,
                         ids=[f"{c}{f}" for c, f in DROPPED_FLAGS])
def test_unread_flags_exit_2(capsys, tmp_path, small_cfg, small_ckpt, command, flag):
    """A flag its subcommand never reads is rejected before anything runs."""
    argv = {"gradcheck": ["gradcheck", "--checks", "softmax"],
            "eval": ["eval", "--ckpt", small_ckpt],
            "head-importance": ["head-importance", "--ckpt", small_ckpt,
                                "--out", str(tmp_path / "hi")],
            "params": ["params", "--config", small_cfg]}[command]
    value = {"--config": small_cfg, "--out": str(tmp_path / "out"),
             "--precision": "f64", "--seed": "9"}[flag]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [flag, value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("line,message", [
    ("init_source = preceding", "subsequent block's attention"),
    ("zero_init_copies = true", "zero_init_copies applies to transformer_copy"),
], ids=["init_source", "zero_init_copies"])
def test_upscale_key_memory_blocks_cannot_honour_exits_2(capsys, tmp_path, line, message):
    cfg = tmp_path / "upscale.cfg"
    cfg.write_text(SMALL_HEAD + f"insert_kind = memory_block\n{line}\n"
                   + SMALL_TRAIN.replace("steps = 60", "steps = 1"))
    code, out, err = run(capsys, "train", "--config", str(cfg),
                         "--out", str(tmp_path / "run"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert "Traceback" not in out + err
    assert not (tmp_path / "run" / "model.ckpt").exists()


def test_train_config_error_leaves_no_run_directory(capsys, tmp_path):
    cfg = tmp_path / "upscale.cfg"
    cfg.write_text(SMALL_HEAD + "init_source = average_adjacent\n"
                   + SMALL_TRAIN.replace("steps = 60", "steps = 1"))
    code, out, err = run(capsys, "train", "--config", str(cfg),
                         "--out", str(tmp_path / "run"))
    assert code == 2 and err.startswith("error: ")
    assert "Traceback" not in out + err
    assert not (tmp_path / "run").exists()


# values the library rejects, each with the message it raises
LIBRARY_ERRORS = {
    "k": ("[memory]\nk = 99\n", "k=99 must satisfy 1 <= k <= n=16"),
    "d_heads": ("[model]\nd = 30\nheads = 4\n", "d=30 not divisible by heads=4"),
    "inserted": ("[upscale]\ninserted = 9\n", "inserted count 9 must lie in [0, 4]"),
    "num_pairs": ("[train]\nnum_pairs = 300\n", "num_pairs cannot exceed vocab"),
    "short_corpus": ("[train]\ncorpus = bytes\ncorpus_path = {short}\n",
                     "corpus shorter than one window"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_ERRORS))
def test_library_value_error_exits_2_with_its_message(capsys, tmp_path, case):
    text, message = LIBRARY_ERRORS[case]
    short = tmp_path / "short.txt"
    short.write_bytes(b"too short")
    cfg = tmp_path / "lib.cfg"
    cfg.write_text(text.format(short=short))
    code, out, err = run(capsys, "train", "--config", str(cfg),
                         "--out", str(tmp_path / "run"))
    assert code == 2
    assert err == f"error: {message}\n"
    assert "Traceback" not in out + err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "eval", "head-importance", "gradcheck"])
def test_negative_seed_exits_2_at_parse_time(capsys, tmp_path, command):
    argv = {"train": ["train", "--out", str(tmp_path / "run")],
            "eval": ["eval", "--ckpt", str(tmp_path / "missing.ckpt")],
            "head-importance": ["head-importance", "--ckpt", str(tmp_path / "missing.ckpt"),
                                "--out", str(tmp_path / "run")],
            "gradcheck": ["gradcheck", "--checks", "softmax"]}[command]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--seed", "-1"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "argument --seed: expected a non-negative integer, got '-1'" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("line", ["init_source = preceding", "zero_init_copies = true"],
                         ids=["init_source", "zero_init_copies"])
def test_params_rows_ignore_copy_only_upscale_keys(capsys, tmp_path, line):
    """The memory rows reset the keys only transformer copies read, so a
    config tuned for dus_copy still prints all four rows."""
    cfg = tmp_path / "copy.cfg"
    cfg.write_text(f"[upscale]\n{line}\n")
    code, out, err = run(capsys, "params", "--config", str(cfg))
    assert code == 0 and err == ""
    rows = out.strip().split("\n")
    assert [r.split(",")[0] for r in rows[1:]] == ["dus_copy", "mem_linear",
                                                   "mem_pkm", "mem_headwise"]
    _, default_out, _ = run(capsys, "params")
    assert out == default_out  # counts do not depend on how copies start


def test_params_rows_under_every_policy(capsys, tmp_path):
    """Every placement policy prints the same four rows. A llama_pro tail
    insert has no subsequent block, so there the dus_copy row copies the
    block each insert follows."""
    outs = {}
    for policy in POLICY_NAMES:
        cfg = tmp_path / f"{policy}.cfg"
        cfg.write_text(f"[upscale]\npolicy = {policy}\n")
        code, outs[policy], err = run(capsys, "params", "--config", str(cfg))
        assert code == 0 and err == "", policy
    rows = outs["llama_pro"].strip().split("\n")
    assert [r.split(",")[0] for r in rows[1:]] == ["dus_copy", "mem_linear",
                                                   "mem_pkm", "mem_headwise"]
    assert len(set(outs.values())) == 1


@pytest.mark.parametrize("command", ["bench-topk", "bench-prefill"])
def test_removed_bench_subcommands_exit_2(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"invalid choice: '{command}'" in err
    assert "Traceback" not in err


def _read_header(blob):
    hlen, = struct.unpack_from("<Q", blob, 12)
    return json.loads(blob[20:20 + hlen]), 20 + hlen


def _rewrite_header(blob, edit):
    """A checkpoint blob whose JSON header went through edit(header)."""
    header, end = _read_header(blob)
    edit(header)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:12] + struct.pack("<Q", len(text)) + text + blob[end:]


def _old_route_keys(header):
    """The descriptors and config snapshot files carried while selection had
    two routes."""
    for desc in header["model"]["blocks"]:
        if desc["type"] == "memory":
            desc["route"] = "auto"
            desc["cfg"]["fused_threshold"] = 16
    header["config"]["memory"].update(route="auto", fused_threshold=16)


def _parent_format(header):
    """The descriptor fields and config keys files carried while the RoPE
    base and the loss scale were settable, while the model recorded its
    base depth, while query batchnorm existed, switched off (every
    headwise file has it so), and while the query pipeline had toggles, at
    the values a pkm block always has."""
    header["model"]["base_depth"] = 2
    for desc in header["model"]["blocks"]:
        desc["rope_base"] = 10000.0
        if desc["type"] == "memory":
            desc["toggles"].update(query_batchnorm=False, query_layernorm=True,
                                   internal_residual=True, output_projection=True)
    header["config"]["memory"].update(query_batchnorm=None, query_layernorm=None,
                                      internal_residual=None, output_projection=None)
    header["config"]["train"]["loss_scale"] = 1.0


def _with_tensors(blob, edit):
    """A checkpoint blob whose header and payload went through
    edit(header, payload), with the payload checksum made to match."""
    header, end = _read_header(blob)
    payload = edit(header, blob[end:])
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:12] + struct.pack("<Q", len(text)) + text + payload


def _query_bn_tensors(header, payload):
    """The two learnable query batchnorm tensors of the first memory block
    appended, as files written with query batchnorm on held them."""
    block = next(i for i, d in enumerate(header["model"]["blocks"])
                 if d["type"] == "memory")
    d = header["model"]["d"]
    header["tensors"] += [{"name": f"blocks.{block}.query_bn.{name}", "shape": [d],
                           "dtype": "float32"} for name in ("gamma", "beta")]
    return payload + np.ones(d, "<f4").tobytes() + np.zeros(d, "<f4").tobytes()


def _duplicate_embed(header, payload):
    """A second embed entry, of other bytes, ahead of the file's own."""
    entry = header["tensors"][0]
    assert entry["name"] == "embed" and entry["dtype"] == "float32"
    header["tensors"].insert(0, dict(entry))
    return np.ones(entry["shape"], "<f4").tobytes() + payload


def _first_block(kind, key, value):
    def edit(header):
        desc = next(d for d in header["model"]["blocks"] if d["type"] == kind)
        desc[key] = value
    return edit


def _first_toggle(name, value):
    def edit(header):
        next(d for d in header["model"]["blocks"]
             if d["type"] == "memory")["toggles"][name] = value
    return edit


CHECKPOINT_CASES = {
    "truncated_0": lambda b: b[:0],
    "truncated_10": lambda b: b[:10],
    "truncated_19": lambda b: b[:19],
    "no_model": lambda b: _rewrite_header(b, lambda h: h.pop("model")),
    "no_blocks": lambda b: _rewrite_header(b, lambda h: h["model"].pop("blocks")),
    "no_tensors": lambda b: _rewrite_header(b, lambda h: h.pop("tensors")),
    "no_checksum": lambda b: _rewrite_header(b, lambda h: h.pop("payload_sha256")),
    "bad_dtype": lambda b: _rewrite_header(
        b, lambda h: h["tensors"][0].update(dtype="int8")),
    "old_route_keys": lambda b: _rewrite_header(b, _old_route_keys),
    "parent_format": lambda b: _rewrite_header(b, _parent_format),
    "rope_base_500": lambda b: _rewrite_header(
        b, _first_block("transformer", "rope_base", 500.0)),
    "bn_momentum_0.2": lambda b: _rewrite_header(
        b, _first_block("memory", "bn_momentum", 0.2)),
    "bn_eps_1e-3": lambda b: _rewrite_header(
        b, _first_block("memory", "bn_eps", 1e-3)),
    "query_batchnorm_true": lambda b: _rewrite_header(
        b, _first_toggle("query_batchnorm", True)),
    "query_layernorm_false": lambda b: _rewrite_header(
        b, _first_toggle("query_layernorm", False)),
    "internal_residual_false": lambda b: _rewrite_header(
        b, _first_toggle("internal_residual", False)),
    "output_projection_false": lambda b: _rewrite_header(
        b, _first_toggle("output_projection", False)),
    "output_projection_one": lambda b: _rewrite_header(
        b, _first_toggle("output_projection", 1)),
    "query_bn_tensors": lambda b: _with_tensors(b, _query_bn_tensors),
    "duplicate_tensor": lambda b: _with_tensors(b, _duplicate_embed),
    "rope_base_string": lambda b: _rewrite_header(
        b, _first_block("transformer", "rope_base", "x")),
    "memory_rope_base_zero": lambda b: _rewrite_header(
        b, _first_block("memory", "rope_base", 0)),
    "heads_zero": lambda b: _rewrite_header(
        b, lambda h: h["model"].update(heads=0)),
    "snapshot_missing_key": lambda b: _rewrite_header(
        b, lambda h: h["config"]["train"].pop("num_pairs")),
    "snapshot_list": lambda b: _rewrite_header(
        b, lambda h: h.update(config=[1, 2])),
    "snapshot_mistyped": lambda b: _rewrite_header(
        b, lambda h: h["config"]["train"].update(num_pairs="many")),
    "snapshot_out_of_range": lambda b: _rewrite_header(
        b, lambda h: h["config"]["run"].update(precision="f16")),
    "memory_sizes_mismatch": lambda b: _rewrite_header(
        b, lambda h: next(d for d in h["model"]["blocks"]
                          if d["type"] == "memory")["cfg"].update(n=9)),
}


# cases that load: fields of older files that no longer select anything
LOADS = ("old_route_keys", "parent_format", "bn_momentum_0.2", "bn_eps_1e-3")
# what the error line of a case names
NAMED = {"query_batchnorm_true": "blocks.1 has toggles.query_batchnorm True; "
                                 "a pkm block now always has False",
         "query_layernorm_false": "toggles.query_layernorm False; "
                                  "a pkm block now always has True",
         "internal_residual_false": "toggles.internal_residual False",
         "output_projection_false": "blocks.1 has toggles.output_projection False; "
                                    "a pkm block now always has True",
         "output_projection_one": "toggles.output_projection 1;",
         "query_bn_tensors": "query_bn.beta, blocks.1.query_bn.gamma",
         "duplicate_tensor": "tensor embed appears twice"}


@pytest.fixture
def pkm_cfg(tmp_path):
    # a pkm block holds the parts a headwise block has not: query_ln_gain, w_o
    path = tmp_path / "pkm.cfg"
    path.write_text(SMALL_HEAD.replace("[memory]\n", "[memory]\nkind = pkm\n")
                    + SMALL_TRAIN)
    return str(path)


@pytest.mark.parametrize("case", sorted(CHECKPOINT_CASES))
def test_checkpoint_table_exits_2_or_loads_bitwise(capsys, tmp_path, pkm_cfg, case):
    cfg = parse_config(pkm_cfg)
    _, model = build_model(cfg)
    good = tmp_path / "good.ckpt"
    save_checkpoint(str(good), model, cfg)
    path = tmp_path / f"{case}.ckpt"
    path.write_bytes(CHECKPOINT_CASES[case](good.read_bytes()))
    code, out, err = run(capsys, "eval", "--ckpt", str(path))
    assert "Traceback" not in out + err
    assert "base_depth" not in _read_header(good.read_bytes())[0]["model"]
    if case not in LOADS:
        assert code == 2 and "error:" in err
        assert NAMED.get(case, "") in err
        return
    assert code == 0 and "eval loss:" in out
    loaded, _ = load_checkpoint(str(path))
    want = dict(named_params(model))
    for name, arr in named_params(loaded):
        assert arr.dtype == want[name].dtype and np.array_equal(arr, want[name]), name


def _header_leaves(node, path=()):
    """Paths of every leaf of a JSON tree (empty lists and dicts included)."""
    if isinstance(node, dict) and node:
        for key, child in node.items():
            yield from _header_leaves(child, path + (key,))
    elif isinstance(node, list) and node:
        for i, child in enumerate(node):
            yield from _header_leaves(child, path + (i,))
    else:
        yield path


def _replace_leaf(path, value):
    def edit(header):
        node = header
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return edit


def _fuzz_blobs(good: bytes, kind: str):
    if kind == "truncate":
        for end in np.linspace(0, len(good) - 1, 48).astype(int):
            yield good[:end]
    elif kind == "flip":
        rng = np.random.default_rng(11)
        hlen, = struct.unpack_from("<Q", good, 12)
        for i in range(96):
            # half the flips land in the preamble or header
            pos = int(rng.integers(0, 20 + hlen if i % 2 else len(good)))
            blob = bytearray(good)
            blob[pos] ^= int(rng.integers(1, 256))
            yield bytes(blob)
    else:
        hlen, = struct.unpack_from("<Q", good, 12)
        for path in _header_leaves(json.loads(good[20:20 + hlen])):
            for value in ("x", [1], None, 0, -1, 1e12):
                yield _rewrite_header(good, _replace_leaf(path, value))


@pytest.mark.parametrize("kind", ["truncate", "flip", "leaf"])
def test_checkpoint_fuzz_exits_0_or_2(capsys, tmp_path, pkm_cfg, kind):
    cfg = parse_config(pkm_cfg)
    _, model = build_model(cfg)
    good = tmp_path / "good.ckpt"
    save_checkpoint(str(good), model, cfg)
    path = tmp_path / "fuzzed.ckpt"
    codes = []
    for blob in _fuzz_blobs(good.read_bytes(), kind):
        path.write_bytes(blob)
        codes.append(main(["eval", "--ckpt", str(path)]))
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
    assert set(codes) <= {0, 2}, codes
    assert 2 in codes
