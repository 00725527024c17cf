"""Tests of the benchmark itself: tiny-size smoke runs and span arithmetic.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def tiny(w):
    lengths = w.lengths and ((4, 5, 6) if max(w.lengths) < 100 else (20, 24, 28))
    return dataclasses.replace(w, d=16, heads=2, d_ff=32, n=4, k=2,
                               batch=min(w.batch, 2), window=min(w.window, 16),
                               lengths=lengths)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_prints_every_metric_with_unit(name, trace, tmp_path, capsys):
    table = {name: tiny(workloads.WORKLOADS[name])}
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--out", str(tmp_path)], workloads=table)
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    printed = {tuple(line.split()[1::2]) for line in lines if line.startswith("metric ")}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert (m["name"], m["unit"]) in printed
    assert any(line.startswith("failed_ratio ") for line in lines)
    assert any(line.startswith("check untraced.mac_accounting pass") for line in lines)


def test_self_time_subtracts_merged_child_cover():
    # [id, parent, name, op, start, end, tag]
    tree = [
        [0, -1, "root", 0, 0, 100, 0],
        [1, 0, "a", 0, 10, 30, 0],
        [2, 0, "b", 0, 25, 50, 0],     # overlaps a by 5
        [3, 0, "c", 0, 90, 120, 0],    # runs past the parent's end
        [4, 1, "leaf", 0, 12, 14, 0],
    ]
    got = spans.self_times(tree)
    assert got[0] == 100 - (50 - 10) - (100 - 90)
    assert got[1] == 20 - 2
    assert got[2] == 25
    assert got[3] == 30
    assert got[4] == 2


def test_tracer_uninstall_restores_every_binding():
    import headmem
    from headmem import layers, memory, model, training
    before = (layers.score_subkeys, memory.select_topk, training.model_forward,
              headmem.model_forward, training.AdamW.step, headmem.GradStore.add)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert layers.score_subkeys is not before[0]
        assert training.model_forward is model.model_forward
    finally:
        tracer.uninstall()
    after = (layers.score_subkeys, memory.select_topk, training.model_forward,
             headmem.model_forward, training.AdamW.step, headmem.GradStore.add)
    assert all(a is b for a, b in zip(before, after))


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "recall-train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
