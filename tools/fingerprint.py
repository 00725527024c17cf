"""Print one `name sha256` line for each output a refactor must keep bitwise.

    python3 tools/fingerprint.py TREE > out.txt

TREE is a checkout of this repository; its src/ goes first on the import
path. Run the script on two checkouts and compare the outputs with `diff`:
equal lines mean equal bits. Every input is made from a fixed seed through
the public headmem API, in f32 and in f64:

  train/<task>/<precision>        15 training steps of the recall task
                                  (headwise memory, and linear memory, which
                                  selects through numerics.topk) and of
                                  128-byte windows (pkm memory), and 4 steps
                                  of 464-byte windows (bytes-464: attention
                                  and weight gradients over several 128-row
                                  chunks), and 3 steps of two 128-byte
                                  windows with pkm at n = 256 (bytes-n256:
                                  value tables of 65,536 rows, each larger
                                  than one optimizer chunk or scatter
                                  block):
                                  losses, learning rates, write counts,
                                  final parameters
  prefill/<lengths>/<precision>   logits of 20 prompts, on the cached-value
                                  path and on the direct path
  prefill-collect/256-512/<precision>
                                  20 collect=True forwards of 10 prompts,
                                  each on both paths: logits, every block's
                                  attention probabilities, and every memory
                                  block's selected ids and weights
  importance/<precision>          head_importance scores on 40 recall
                                  sequences
  gradcheck/<precision>           the `headmem gradcheck` report; its
                                  full-model lines also cover the
                                  trainer's loss_and_grads and evaluate,
                                  which those checks run
  select/<precision>              select_topk ids and weights on [512, 4, 32]
                                  axis scores with k in {1, 4, 8, 32}, each
                                  axis pair in both orders, for
                                  normal, tie-heavy (integer scores, +-0
                                  included) and rounding-collision inputs;
                                  numerics.topk ids and values on flat
                                  [256, 4, 1024] scores, as the linear kind
                                  selects
  upscale/<precision>             build_dus with each init source, with and
                                  without zero_init_copies, and
                                  build_memory_dus with each kind, under
                                  llama_pro, distributed and bottom_heavy
                                  (base depth 4, 2 inserts): every tensor
                                  and the save_checkpoint bytes of each
                                  expansion, the message of each plan a
                                  builder refuses, and the base afterwards
  checkpoint/<precision>          save_checkpoint then load_checkpoint of a
                                  model of each memory kind and a build_dus
                                  model, and of a pkm model built at the
                                  other precision (loaded, it keeps its
                                  dtype), every tensor moved off its init:
                                  the bytes of each file, each loaded
                                  tensor's path, dtype and bytes, and the
                                  loaded trainable flags

The model shape is d=64, H=4, d_ff=256, base depth 4 plus 2 memory blocks
placed by the `distributed` policy. Models are built with
`MemoryLayerKind.defaults(kind)`, which gives each kind's query pipeline
on checkouts from both before and after the kind fixed that pipeline.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

import numpy as np

SEED = 57
STEPS = 15
LONG_STEPS = 4  # bytes-464 steps
WIDE_STEPS = 3  # bytes-n256 steps
PROMPTS = 20


def _sha(arrays) -> str:
    """sha256 over the dtype, shape and bytes of each array in turn."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _text(size: int = 1 << 14) -> np.ndarray:
    """Printable bytes from a seeded order-1 Markov chain."""
    rng = np.random.default_rng([SEED, 1])
    successors = rng.integers(32, 127, (127, 4))
    picks = rng.integers(0, 4, size)
    out, c = np.empty(size, dtype=np.uint8), 32
    for i in range(size):
        c = successors[c, picks[i]]
        out[i] = c
    return out


def _model(hm, kind: str, n: int, k: int):
    base = hm.init_base_model(vocab=256, d=64, heads=4, d_ff=256, depth=4,
                              rng=hm.make_rng(SEED))
    plan = hm.UpscalePlan(policy=hm.PlacementPolicy("distributed", 4, 2),
                          insert_kind="memory_block",
                          memory_kind=hm.MemoryLayerKind.defaults(kind),
                          memory_cfg=hm.MemoryConfig(heads=4, n=n, k=k, d=64),
                          seed=SEED + 1)
    return hm.build_memory_dus(base, plan)


def _train(hm, kind: str, n: int, k: int, corpus, batch: int, steps: int = STEPS) -> str:
    net = _model(hm, kind, n, k)
    groups = hm.build_optim_groups(net, "cpt", dense_lr=3e-3, memory_lr=1e-2)
    rep = hm.train(net, corpus, groups, steps=steps, batch_size=batch, seed=SEED)
    logs = [np.array(x) for x in (rep.losses, rep.lr_inserted_dense,
                                  rep.lr_memory_keys_values, rep.unique_index_writes)]
    return _sha(logs + [a for _, a in hm.named_params(net)])


def _read_model(hm):
    """The prefill model: headwise n=32 k=8 with nonzero value tables, so
    memory reads carry signal."""
    net = _model(hm, "headwise", 32, 8)
    rng = np.random.default_rng([SEED, 3])
    for block in net.blocks:
        if isinstance(block, hm.MemoryBlockParams):
            v = block.bank.values.v_base
            v[...] = rng.standard_normal(v.shape) * 0.1
    return net


def _prefill(hm, net, lengths, text: np.ndarray, stream: int) -> str:
    rng = np.random.default_rng([SEED, 2, stream])
    caches = hm.build_value_caches(net)
    out = []
    for length in rng.choice(lengths, PROMPTS):
        start = int(rng.integers(0, text.size - length))
        prompt = text[start:start + length].astype(np.int64)
        out.append(hm.model_forward(prompt, net, value_caches=caches)[0])
        out.append(hm.model_forward(prompt, net)[0])
    return _sha(out)


def _prefill_collect(hm, net, lengths, text: np.ndarray, stream: int) -> str:
    """The caches of collecting forwards, which the backward and the
    perfbench path check read."""
    rng = np.random.default_rng([SEED, 2, stream])
    caches = hm.build_value_caches(net)
    out = []
    for length in rng.choice(lengths, PROMPTS // 2):
        start = int(rng.integers(0, text.size - length))
        prompt = text[start:start + length].astype(np.int64)
        for vc in (caches, None):
            logits, trace = hm.model_forward(prompt, net, value_caches=vc, collect=True)
            out.append(logits)
            for block in trace["blocks"]:
                out.extend(block["attn"]["attn"])
                if "mem" in block:
                    out.extend((block["mem"]["idx"], block["mem"]["w"]))
    return _sha(out)


def _scores(rng, shape, mode: str, dtype):
    """(s_row, s_col) in one of the three input modes of the grid-oracle
    property test: normal, tie-heavy or rounding-collision."""
    if mode == "tie_heavy":
        # integer scores; about half of the zeros are -0
        s_row, s_col = (rng.integers(-2, 3, shape).astype(dtype) for _ in range(2))
        for s in (s_row, s_col):
            s[(s == 0) & (rng.random(shape) < 0.5)] = -0.0
    elif mode == "rounding_collision":
        # scores one ulp apart on one axis round to one sum with a large
        # score on the other axis
        s_row = rng.integers(0, 3, shape).astype(dtype)
        nudge = rng.random(shape) < 0.5
        s_row[nudge] = np.nextafter(s_row[nudge], dtype.type(np.inf))
        s_col = (rng.integers(0, 3, shape) * 64).astype(dtype)
    else:
        s_row, s_col = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
    return s_row, s_col


def _select(hm) -> str:
    """Selection kernels on their own, where ties are common."""
    from headmem.numerics import topk

    dtype = hm.default_dtype()
    rng = np.random.default_rng([SEED, 4])
    out = []
    for mode in ("normal", "tie_heavy", "rounding_collision"):
        s_row, s_col = _scores(rng, (512, 4, 32), mode, dtype)
        for k in (1, 4, 8, 32):
            out.extend(hm.select_topk(s_row, s_col, k))
            out.extend(hm.select_topk(s_col, s_row, k))
        flat, _ = _scores(rng, (256, 4, 1024), mode, dtype)
        out.extend(topk(flat, 8))
    return _sha(out)


def _upscale(hm) -> str:
    """Expansions of one base; copies and means must keep every bit."""
    base = hm.init_base_model(vocab=256, d=64, heads=4, d_ff=256, depth=4,
                              rng=hm.make_rng(SEED))
    cfg = hm.MemoryConfig(heads=4, n=16, k=4, d=64)
    plans = []
    for name in ("llama_pro", "distributed", "bottom_heavy"):
        policy = hm.PlacementPolicy(name, 4, 2)
        plans += [(hm.build_dus, hm.UpscalePlan(
            policy=policy, insert_kind="transformer_copy", init_source=source,
            zero_init_copies=zero))
            for source in hm.INIT_SOURCES for zero in (False, True)]
        plans += [(hm.build_memory_dus, hm.UpscalePlan(
            policy=policy, insert_kind="memory_block",
            memory_kind=hm.MemoryLayerKind.defaults(kind), memory_cfg=cfg,
            seed=SEED + 1))
            for kind in hm.MEMORY_KINDS]
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        for build, plan in plans:
            try:
                net = build(base, plan)
            except ValueError as e:
                h.update(str(e).encode())
                continue
            h.update(_sha(a for _, a in hm.named_params(net)).encode())
            hm.save_checkpoint(path, net)
            with open(path, "rb") as f:
                h.update(f.read())
    h.update(_sha(a for _, a in hm.named_params(base)).encode())
    return h.hexdigest()


def _checkpoint(hm, mode: str) -> str:
    """Checkpoint files and what loads from them, at both precisions."""
    nets = [_model(hm, kind, 16, 4) for kind in hm.MEMORY_KINDS]
    base = hm.init_base_model(vocab=256, d=64, heads=4, d_ff=256, depth=4,
                              rng=hm.make_rng(SEED))
    nets.append(hm.build_dus(base, hm.UpscalePlan(
        policy=hm.PlacementPolicy("distributed", 4, 2),
        insert_kind="transformer_copy", init_source="preceding",
        zero_init_copies=True)))
    with hm.precision("f64" if mode == "f32" else "f32"):
        nets.append(_model(hm, "pkm", 16, 4))
    rng = np.random.default_rng([SEED, 5])
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        for net in nets:
            for _, a in hm.named_params(net):
                a += (0.1 * rng.standard_normal(a.shape)).astype(a.dtype)
            hm.save_checkpoint(path, net)
            with open(path, "rb") as f:
                h.update(f.read())
            loaded, _ = hm.load_checkpoint(path)
            for name, a in hm.named_params(loaded):
                h.update(f"{name} {_sha([a])}".encode())
            h.update(str(loaded.trainable).encode())
    return h.hexdigest()


def fingerprints(hm, mode: str):
    """(name, sha256) of every artifact at the current default precision."""
    from headmem.gradcheck import DEFAULT_TOL, format_report

    text = _text()
    yield (f"train/recall/{mode}",
           _train(hm, "headwise", 16, 4,
                  hm.RecallCorpus(vocab=256, num_pairs=256, seed=SEED + 2), 16))
    yield (f"train/linear/{mode}",
           _train(hm, "linear", 16, 4,
                  hm.RecallCorpus(vocab=256, num_pairs=256, seed=SEED + 2), 16))
    yield (f"train/bytes/{mode}",
           _train(hm, "pkm", 32, 8, hm.ByteCorpus(text, seq_len=128), 8))
    yield (f"train/bytes-464/{mode}",
           _train(hm, "pkm", 32, 8, hm.ByteCorpus(text, seq_len=464), 2, LONG_STEPS))
    yield (f"train/bytes-n256/{mode}",
           _train(hm, "pkm", 256, 8, hm.ByteCorpus(text, seq_len=128), 2, WIDE_STEPS))
    net = _read_model(hm)
    yield f"prefill/8-32/{mode}", _prefill(hm, net, np.arange(8, 33), text, 0)
    yield f"prefill/256-512/{mode}", _prefill(hm, net, np.arange(256, 513, 16), text, 1)
    yield (f"prefill-collect/256-512/{mode}",
           _prefill_collect(hm, net, np.arange(256, 513, 16), text, 2))
    inputs, targets = hm.RecallCorpus(vocab=256, num_pairs=256, seed=SEED + 2).full_sweep()
    report = hm.head_importance(net, list(zip(inputs[:40], targets[:40])))
    yield f"importance/{mode}", _sha([report.scores, report.variance])
    results = hm.run_gradcheck(seed=0, tol=DEFAULT_TOL)
    yield (f"gradcheck/{mode}",
           hashlib.sha256(format_report(results, DEFAULT_TOL).encode()).hexdigest())
    yield f"select/{mode}", _select(hm)
    yield f"upscale/{mode}", _upscale(hm)
    yield f"checkpoint/{mode}", _checkpoint(hm, mode)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", help="repository checkout whose src/ is fingerprinted")
    args = ap.parse_args(argv)
    src = os.path.join(os.path.abspath(args.tree), "src")
    sys.path.insert(0, src)
    import headmem as hm

    if not os.path.abspath(hm.__file__).startswith(src + os.sep):
        print(f"error: headmem imported from {hm.__file__}, not {src}", file=sys.stderr)
        return 2
    for mode in ("f32", "f64"):
        with hm.precision(mode):
            for name, digest in fingerprints(hm, mode):
                print(f"{name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
