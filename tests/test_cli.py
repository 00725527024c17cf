"""End-to-end runs of every CLI subcommand through main()."""

import numpy as np
import pytest

from headmem.cli import main


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
fused_threshold = 4

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
    ("train", "loss_scale = 0"),
    ("train", "loss_scale = -1"),
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


def test_bench_topk_csv(capsys, tmp_path, small_cfg):
    out_dir = tmp_path / "bench"
    code, _, _ = run(capsys, "bench-topk", "--config", small_cfg,
                     "--tokens", "1,4", "--repeats", "2",
                     "--out", str(out_dir))
    assert code == 0
    lines = (out_dir / "bench_topk.csv").read_text().strip().split("\n")
    assert lines[0] == "n,k,tokens,two_stage_ns,fused_ns,equal"
    assert len(lines) == 3
    for row in lines[1:]:
        n, k, tokens, a_ns, b_ns, equal = row.split(",")
        assert (n, k) == ("8", "2")
        assert int(a_ns) > 0 and int(b_ns) > 0
        assert equal == "true"


def test_bench_prefill_csv(capsys, tmp_path, small_cfg):
    out_dir = tmp_path / "bench"
    code, _, _ = run(capsys, "bench-prefill", "--config", small_cfg,
                     "--lengths", "8,16", "--repeats", "2",
                     "--out", str(out_dir))
    assert code == 0
    lines = (out_dir / "bench_prefill.csv").read_text().strip().split("\n")
    assert lines[0] == "length,block_kind,forward_ns,mac_count"
    rows = [l.split(",") for l in lines[1:]]
    kinds = {r[1] for r in rows}
    assert kinds == {"transformer", "memory_headwise"}
    # MAC model is linear in length: doubling tokens doubles the count
    by_kind = {}
    for length, kind, _, macs in rows:
        by_kind.setdefault(kind, {})[int(length)] = int(macs)
    for kind, table in by_kind.items():
        assert table[16] == 2 * table[8], kind


def test_gradcheck_subcommand(capsys):
    code, out, _ = run(capsys, "gradcheck", "--checks", "rms_norm,softmax,ffn")
    assert code == 0
    assert out.count("PASS") == 3 and "FAIL" not in out
    code, _, err = run(capsys, "gradcheck", "--checks", "nonsense")
    assert code == 2
    assert "nonsense" in err
