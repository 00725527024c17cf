"""The benchmark's workloads: inputs made from the seed, set-up, timed phases.

Every workload is a closed loop with one client: the next training step or
prefill request starts when the previous one has returned. All share one
model shape (d=64, H=4, d_ff=256, base depth 4 plus 2 memory blocks placed by
the `distributed` policy, f32, cpt training mode) and differ in which
modules they load:

  recall-train   criterion-7 recall task, 16 sequences of 2 tokens a step:
                 per-call overhead, fused top-k route, optimizer, backward
                 through frozen blocks.
  bytes-train    pkm memory on 8 windows of 128 bytes a step: arithmetic,
                 two-stage route, full-width dedup scatter, attention.
  prefill-short  cached-value inference on 8-32 token prompts: read path,
                 top-k routes at the fused_threshold boundary (16 tokens).
  prefill-long   cached-value inference on 256-512 token prompts: read path,
                 two-stage route, cached gather, quadratic attention.

headmem only ever receives the generated inputs (token arrays, corpora and
model seeds); the seed is the benchmark's.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import headmem as hm
from headmem import bench, checkpoint, layers, memory, model, training

from spans import OP_CHECK

SETUPS = 9            # set-ups per run; setup_s is their median
WARMUP_STEPS = 3      # training steps run on a spare set-up before timing
WARMUP_REQUESTS = 3   # prefill requests run on a spare set-up before timing
MIN_STEPS = 20        # enough steps for the loss-window check to mean something
CHECK_SHARE = 0.05    # share of prefill requests re-run on the uncached path
CACHED_RTOL = 1e-4    # cached vs uncached logits: |a - b| <= atol + rtol * |b|
CACHED_ATOL = 1e-4
FLIP_WEIGHT_TOL = 1e-3  # selected-weight gap allowed where the two paths' top-k differ
TEXT_BYTES = 1 << 16
# checks on the run as a whole; when one fails, every op of the run counts as
# failed (the others are per-op checks whose failures are counted one by one)
RUN_CHECKS = ("frozen_unchanged", "loss_decreases", "mac_accounting")


@dataclass(frozen=True)
class Workload:
    name: str
    task: str                 # "train" or "prefill"
    memory_kind: str          # memory block kind inserted by the up-scaling
    n: int
    k: int
    corpus: str = ""          # train: "recall" or "bytes"
    batch: int = 0            # train: sequences per step
    window: int = 0           # bytes: tokens per training window
    lengths: tuple = ()       # prefill: prompt lengths, each used equally often
    d: int = 64
    heads: int = 4
    d_ff: int = 256
    depth: int = 4
    inserted: int = 2


WORKLOADS = {w.name: w for w in (
    Workload("recall-train", "train", "headwise", n=16, k=4, corpus="recall", batch=16),
    Workload("bytes-train", "train", "pkm", n=32, k=8, corpus="bytes", batch=8,
             window=128),
    Workload("prefill-short", "prefill", "headwise", n=32, k=8,
             lengths=tuple(range(8, 33))),
    Workload("prefill-long", "prefill", "headwise", n=32, k=8,
             lengths=tuple(range(256, 513, 16))),
)}


# ---------------------------------------------------------------------------
# inputs

def markov_text(seed: int, size: int = TEXT_BYTES) -> np.ndarray:
    """Printable bytes from a seeded order-2 Markov chain.

    Each of the 95 x 95 two-byte contexts draws its successor from 8 seeded
    candidates (repeats make some likelier), so the text has learnable
    structure without any corpus file.
    """
    rng = np.random.default_rng([seed, 1])
    successors = rng.integers(0, 95, (95 * 95, 8)).tolist()
    picks = rng.integers(0, 8, size).tolist()
    a, b = (int(x) for x in rng.integers(0, 95, 2))
    out = bytearray(size)
    for i in range(size):
        c = successors[a * 95 + b][picks[i]]
        out[i] = c + 32
        a, b = b, c
    return np.frombuffer(bytes(out), dtype=np.uint8)


def prompt_stream(seed: int, lengths: tuple, text: np.ndarray, stream: int):
    """Endless prompts: every length once per cycle in seeded order, each a
    window of the seeded text at a seeded offset."""
    rng = np.random.default_rng([seed, 2, stream])
    while True:
        for length in rng.permutation(np.asarray(lengths)):
            start = int(rng.integers(0, text.size - length))
            yield text[start:start + length].astype(np.int64)


# ---------------------------------------------------------------------------
# set-up

@dataclass
class State:
    model: object
    corpus: object = None
    groups: list = field(default_factory=list)
    caches: dict = field(default_factory=dict)


def build_model(w: Workload, seed: int):
    base = hm.init_base_model(vocab=256, d=w.d, heads=w.heads, d_ff=w.d_ff,
                              depth=w.depth, rng=hm.make_rng(seed))
    plan = hm.UpscalePlan(
        policy=hm.PlacementPolicy("distributed", w.depth, w.inserted),
        insert_kind="memory_block",
        memory_kind=layers.MemoryLayerKind.defaults(w.memory_kind),
        memory_cfg=hm.MemoryConfig(heads=w.heads, n=w.n, k=w.k, d=w.d),
        seed=seed + 1)
    return hm.build_memory_dus(base, plan)


def setup(w: Workload, seed: int, text: np.ndarray, out_dir: str) -> State:
    """Everything a run needs before its first op; timed as setup_s.

    prefill: value tables are filled from the seed (standing in for trained
    memory, so reads are not all zero), the model goes through a checkpoint
    round trip, and value caches are built from the loaded copy.
    """
    net = build_model(w, seed)
    if w.task == "train":
        if w.corpus == "recall":
            corpus = training.RecallCorpus(vocab=256, num_pairs=256, seed=seed + 2)
        else:
            corpus = training.ByteCorpus(text, seq_len=w.window)
        groups = training.build_optim_groups(net, "cpt", dense_lr=3e-3, memory_lr=1e-2)
        return State(model=net, corpus=corpus, groups=groups)
    rng = np.random.default_rng([seed, 3])
    for block in net.blocks:
        if isinstance(block, layers.MemoryBlockParams):
            v = block.bank.values.v_base
            v[...] = rng.standard_normal(v.shape) * 0.1
    path = os.path.join(out_dir, f"setup-{os.getpid()}.ckpt")
    try:
        checkpoint.save_checkpoint(path, net)
        loaded, _ = checkpoint.load_checkpoint(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    return State(model=loaded, caches=model.build_value_caches(loaded))


def timed_setups(w: Workload, seed: int, text, out_dir: str):
    """SETUPS independent set-ups; returns (first state, last state, median
    seconds). The first serves warm-up and calibration, the last is timed."""
    first, secs = None, []
    for _ in range(SETUPS):
        t0 = time.perf_counter_ns()
        last = setup(w, seed, text, out_dir)
        secs.append((time.perf_counter_ns() - t0) / 1e9)
        first = first or last
    return first, last, statistics.median(secs)


# ---------------------------------------------------------------------------
# timed phases

@dataclass
class Phase:
    """What one timed phase did: per-op latencies and everything checked."""

    label: str = "untraced"
    op_ns: list = field(default_factory=list)
    tokens: int = 0
    failed: int = 0
    counted_macs: int = 0
    analytic_macs: int = 0
    forward_macs: int = 0
    peak_rss_mb: float = 0.0  # read when the timed ops end, before the checks
    checks: dict = field(default_factory=dict)  # name -> (passed, detail)
    prompts: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.op_ns)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def memory_blocks(net):
    return [b for b in net.blocks if isinstance(b, layers.MemoryBlockParams)]


def lowest_trainable(net) -> int:
    return min(i for i, t in enumerate(net.trainable) if t)


def mac_accounting(phase: Phase, net) -> None:
    """Analytic scoring MACs from lookup_cost against the counted total;
    analytic forward MACs of every block from the bench formulas."""
    phase.analytic_macs = sum(
        phase.tokens * b.cfg.heads
        * memory.lookup_cost(b.cfg, "flat" if b.kind.kind == "linear" else "product")
        for b in memory_blocks(net))
    phase.forward_macs = sum(
        bench.memory_block_macs(b, phase.tokens)
        if isinstance(b, layers.MemoryBlockParams)
        else bench.transformer_block_macs(b, phase.tokens)
        for b in net.blocks)
    phase.checks["mac_accounting"] = (
        phase.counted_macs == phase.analytic_macs,
        f"counted {phase.counted_macs} scoring MACs, analytic {phase.analytic_macs}")


class StepClock:
    """Corpus stand-in that timestamps each batch request.

    train() asks for exactly one batch at the start of every step, so the
    gaps between requests are the step times, taken around the library's
    own loop.
    """

    def __init__(self, corpus, tracer=None):
        self.corpus = corpus
        self.tracer = tracer
        self.starts: list[int] = []
        self.tokens = 0

    def batch(self, rng, batch_size):
        self.starts.append(time.perf_counter_ns())
        if self.tracer is not None:
            self.tracer.op = len(self.starts) - 1
        inputs, targets = self.corpus.batch(rng, batch_size)
        self.tokens += inputs.size
        return inputs, targets


def train_phase(w: Workload, state: State, steps: int, seed: int, tracer=None) -> Phase:
    trainable = {p for g in state.groups for p in g.paths}
    frozen = {p: a.copy() for p, a in model.named_params(state.model) if p not in trainable}
    clock = StepClock(state.corpus, tracer)
    phase = Phase(label="untraced" if tracer is None else "traced")
    try:
        with memory.count_scoring_macs() as counter:
            report = training.train(state.model, clock, state.groups, steps=steps,
                                    batch_size=w.batch, seed=seed)
    except hm.NumericsError as e:
        # train() stops at the first non-finite loss: every step run is lost
        phase.op_ns = np.diff(clock.starts + [time.perf_counter_ns()]).tolist()
        phase.tokens = clock.tokens
        phase.peak_rss_mb = peak_rss_mb()
        phase.failed = phase.attempted
        phase.checks["loss_finite"] = (False, str(e))
        return phase
    phase.op_ns = np.diff(clock.starts + [time.perf_counter_ns()]).tolist()
    phase.tokens = clock.tokens
    phase.counted_macs = counter.total
    phase.peak_rss_mb = peak_rss_mb()

    losses = np.asarray(report.losses)
    finite = np.isfinite(losses)
    phase.failed = int((~finite).sum())
    phase.checks["loss_finite"] = (bool(finite.all()), f"{int(finite.sum())}/{steps} finite")
    after = dict(model.named_params(state.model))
    changed = [p for p, a in frozen.items() if not np.array_equal(after[p], a)]
    phase.checks["frozen_unchanged"] = (
        not changed, f"{len(frozen)} frozen tensors, {len(changed)} changed")
    win = max(3, steps // 5)
    first, last = float(losses[:win].mean()), float(losses[-win:].mean())
    phase.checks["loss_decreases"] = (
        last < first, f"mean loss of first {win} steps {first:.4f}, last {win} {last:.4f}")
    mac_accounting(phase, state.model)
    return phase


def calibrate_steps(w: Workload, state: State, seconds: float, seed: int) -> int:
    """Warm up on a spare set-up and size the timed phase to `seconds`."""
    clock = StepClock(state.corpus)
    training.train(state.model, clock, state.groups, steps=WARMUP_STEPS,
                   batch_size=w.batch, seed=seed)
    step_ns = statistics.median(np.diff(clock.starts).tolist())
    return max(MIN_STEPS, round(seconds * 1e9 / step_ns))


def prefill_phase(state: State, prompts, seed: int, deadline_ns: int | None = None,
                  tracer=None) -> Phase:
    """Requests until the deadline (prompts: an iterator) or over a fixed
    prompt list (deadline_ns None), one at a time."""
    check_rng = np.random.default_rng([seed, 4])
    phase = Phase(label="untraced" if tracer is None else "traced")
    sampled = []
    with memory.count_scoring_macs() as counter:
        for prompt in prompts:
            if tracer is not None:
                tracer.op = len(phase.op_ns)
            t0 = time.perf_counter_ns()
            try:
                logits, _ = model.model_forward(prompt, state.model, training=False,
                                                value_caches=state.caches)
                ok = bool(np.isfinite(logits).all())
            except hm.NumericsError:
                ok = False
            t1 = time.perf_counter_ns()
            phase.op_ns.append(t1 - t0)
            phase.prompts.append(prompt)
            phase.tokens += prompt.size
            phase.failed += not ok
            if ok and check_rng.random() < CHECK_SHARE:
                sampled.append(prompt)
            if deadline_ns is not None and t1 >= deadline_ns:
                break
    phase.counted_macs = counter.total
    phase.peak_rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.op = OP_CHECK
    phase.checks["outputs_finite"] = (
        phase.failed == 0, f"{phase.attempted - phase.failed}/{phase.attempted} finite")

    mismatched, flipped, worst = 0, 0, 0.0
    for prompt in sampled:
        cached, direct, upto, near_tie = compare_paths(state, prompt)
        err = np.abs(cached[:upto] - direct[:upto])
        worst = max(worst, float(err.max(initial=0.0)))
        flipped += upto < prompt.size
        if not near_tie or not np.all(err <= CACHED_ATOL + CACHED_RTOL * np.abs(direct[:upto])):
            mismatched += 1
    phase.failed += mismatched
    phase.checks["cached_matches_uncached"] = (
        mismatched == 0,
        f"{len(sampled)} sampled requests, {mismatched} outside atol {CACHED_ATOL:g} + "
        f"rtol {CACHED_RTOL:g} (max |diff| {worst:.3g}); {flipped} compared only up to "
        f"a near-tie top-k flip")
    mac_accounting(phase, state.model)
    return phase


def compare_paths(state: State, prompt):
    """(cached logits, uncached logits, first position whose top-k slots
    differ between the two paths or the prompt length, whether that flip is
    a near-tie). The collect=True forward does the timed request's
    arithmetic, so its cached logits are the ones that request returned.

    The two paths round differently in f32, so a memory block can pick a
    different k-th slot where two scores nearly tie, and causal attention
    carries that into every later position. Logits are compared before the
    first flip; at the flip the selected weights must still agree within
    FLIP_WEIGHT_TOL, which a near-tie gives and a wrong selection does not.
    """
    cached, cached_trace = model.model_forward(prompt, state.model, training=False,
                                               value_caches=state.caches, collect=True)
    direct, direct_trace = model.model_forward(prompt, state.model, training=False,
                                               collect=True)
    upto, near_tie = prompt.size, True
    for bc, bd in zip(cached_trace["blocks"], direct_trace["blocks"]):
        if "mem" not in bc:
            continue
        differs = np.any(bc["mem"]["idx"] != bd["mem"]["idx"], axis=(1, 2))
        if differs.any() and int(np.argmax(differs)) < upto:
            upto = int(np.argmax(differs))
            gap = np.abs(bc["mem"]["w"][upto] - bd["mem"]["w"][upto]).max()
            near_tie = bool(gap <= FLIP_WEIGHT_TOL)
    return cached, direct, upto, near_tie


def warm_prefill(w: Workload, state: State, seed: int, text) -> None:
    stream = prompt_stream(seed, w.lengths, text, stream=1)
    for _ in range(WARMUP_REQUESTS):
        model.model_forward(next(stream), state.model, training=False,
                            value_caches=state.caches)
