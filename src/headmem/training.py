"""Training loop, optimizer groups, synthetic corpora, head-importance analysis.

The trainer owns one model exclusively. Each step feeds its minibatch to the
model in calls of up to ROWS token rows: short sequences share one forward
and one backward, long ones go one per call. Every operation is a fixed
function of its inputs and the call split depends only on the batch shape,
so a given (seed, config, corpus) always reproduces the same loss curve
bitwise, run to run. The curve is not bitwise equal to summing per-sequence
gradients left to right (the pre-batching trainer): a batched call sums over
rows in another order, which moves losses in the last digits only.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .gradients import GradStore, lm_loss_backward, model_backward
from .model import ModelSpec, model_forward, named_params, trainable_paths
from .numerics import NumericsError, make_rng
from .transformer import lm_loss

# leaf tensor names that form the memory key/value group: these train at a
# fixed learning rate with no weight decay, everything else inserted follows
# the warmup+cosine schedule
MEMORY_TABLE_LEAVES = {"keys", "values", "k_row", "k_col", "v_base", "w_heads"}

SCHEDULES = ("constant", "cosine_with_warmup")

# token rows per forward+backward call. Per-token cost of one call falls
# about tenfold from 2 rows to 128 and is flat beyond, while live
# activations grow with the rows, so a call takes max(1, ROWS // s)
# sequences: sixty-four 2-token recall sequences, or one 128-byte window.
ROWS = 128


def schedule_lr(kind: str, step: int, total_steps: int, max_lr: float,
                warmup_ratio: float = 0.1, min_lr: float = 0.0) -> float:
    """Learning rate at a zero-based step. Warmup is linear from zero over
    ceil(total * ratio) steps; decay is half-cosine down to min_lr."""
    if kind == "constant":
        return max_lr
    if kind != "cosine_with_warmup":
        raise ValueError(f"unknown schedule {kind!r}")
    warm = max(1, math.ceil(total_steps * warmup_ratio))
    if step < warm:
        return max_lr * (step + 1) / warm
    span = max(1, total_steps - warm)
    t = min(1.0, (step - warm) / span)
    return min_lr + 0.5 * (max_lr - min_lr) * (1.0 + math.cos(math.pi * t))


@dataclass
class OptimGroup:
    name: str
    paths: list[str]
    schedule: str = "constant"
    max_lr: float = 1e-3
    weight_decay: float = 0.0
    warmup_ratio: float = 0.1


def build_optim_groups(model: ModelSpec, mode: str = "cpt",
                       dense_lr: float = 1e-3, memory_lr: float = 1e-2,
                       weight_decay: float = 0.01,
                       warmup_ratio: float = 0.1) -> list[OptimGroup]:
    """Split the trainable paths into the two active groups. Frozen base
    parameters belong to no group and are never touched by the optimizer."""
    dense, mem = [], []
    for path in trainable_paths(model, mode):
        leaf = path.rsplit(".", 1)[-1]
        (mem if leaf in MEMORY_TABLE_LEAVES else dense).append(path)
    return [
        OptimGroup("inserted_dense", dense, "cosine_with_warmup", dense_lr,
                   weight_decay, warmup_ratio),
        OptimGroup("memory_keys_values", mem, "constant", memory_lr, 0.0),
    ]


class AdamW:
    """Decoupled-weight-decay adaptive moments, betas (0.9, 0.95), eps 1e-8."""

    def __init__(self, params: dict[str, np.ndarray],
                 betas: tuple[float, float] = (0.9, 0.95), eps: float = 1e-8):
        self.params = params
        self.betas = betas
        self.eps = eps
        self.t = 0
        self.m = {p: np.zeros_like(a) for p, a in params.items()}
        self.v = {p: np.zeros_like(a) for p, a in params.items()}

    def step(self, grads: GradStore, lr_wd: dict[str, tuple[float, float]]):
        self.t += 1
        b1, b2 = self.betas
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for path, arr in self.params.items():
            g = grads.get(path)
            if g is None:
                continue
            lr, wd = lr_wd[path]
            m, v = self.m[path], self.v[path]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            if wd:
                update = update + wd * arr
            arr -= lr * update


# ---------------------------------------------------------------------------
# synthetic corpora

@dataclass
class RecallCorpus:
    """Key->value memorization task: sequences (k1, k2, v) where k2 is a fixed
    random permutation of k1 and v a fixed random token per pair. Every
    position is predictable only by rote lookup, so retrieval capacity is the
    bottleneck rather than pattern generalization."""

    vocab: int = 256
    num_pairs: int = 256
    seed: int = 0
    pairs: np.ndarray = field(init=False)
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.num_pairs > self.vocab:
            raise ValueError("num_pairs cannot exceed vocab")
        rng = make_rng(self.seed)
        k1 = np.arange(self.num_pairs)
        k2 = rng.permutation(self.num_pairs)
        self.pairs = np.stack([k1, k2], axis=1)
        self.values = rng.integers(0, self.vocab, self.num_pairs)

    @property
    def seq_len(self) -> int:
        return 3

    def batch(self, rng, batch_size: int):
        idx = rng.integers(0, self.num_pairs, batch_size)
        seqs = np.concatenate([self.pairs[idx], self.values[idx, None]], axis=1)
        return seqs[:, :-1], seqs[:, 1:]

    def full_sweep(self):
        """All pairs once, in index order; the deterministic eval set."""
        seqs = np.concatenate([self.pairs, self.values[:, None]], axis=1)
        return seqs[:, :-1], seqs[:, 1:]


@dataclass
class ByteCorpus:
    """Byte-level language modeling over a flat buffer; windows are sampled
    uniformly. vocab is always 256."""

    data: np.ndarray
    seq_len: int = 64

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.uint8)
        if self.data.size < self.seq_len + 1:
            raise ValueError("corpus shorter than one window")

    @classmethod
    def from_file(cls, path: str, seq_len: int = 64) -> "ByteCorpus":
        with open(path, "rb") as f:
            return cls(np.frombuffer(f.read(), dtype=np.uint8), seq_len)

    @property
    def vocab(self) -> int:
        return 256

    def batch(self, rng, batch_size: int):
        starts = rng.integers(0, self.data.size - self.seq_len, batch_size)
        seqs = np.stack([self.data[s:s + self.seq_len + 1] for s in starts])
        seqs = seqs.astype(np.int64)
        return seqs[:, :-1], seqs[:, 1:]


# ---------------------------------------------------------------------------
# loss / gradient plumbing

def loss_and_grads(model: ModelSpec, inputs: np.ndarray, targets: np.ndarray,
                   allowed: set[str] | None = None, counter: dict | None = None,
                   loss_scale: float = 1.0):
    """Scalar loss plus parameter gradients, in one forward and one backward.

    inputs, targets: one sequence [s] or B equal-length sequences [B, s].
    The loss is the mean next-token loss over all B*s tokens, which equals
    the mean of the per-sequence losses; the gradients are its gradients
    times loss_scale, for the allowed paths only.
    """
    targets = np.asarray(targets)
    if targets.shape != np.shape(inputs):
        raise ValueError(f"targets shape {targets.shape} does not match inputs "
                         f"{np.shape(inputs)}")
    logits, caches = model_forward(inputs, model, training=True, collect=True)
    logits = logits.reshape(-1, model.vocab)
    targets = targets.reshape(-1)
    loss = lm_loss(logits, targets)
    dlogits = lm_loss_backward(logits, targets)
    if loss_scale != 1.0:
        dlogits = dlogits * loss_scale
    grads = model_backward(dlogits, caches, model, allowed=allowed,
                           counter=counter)
    return loss, grads


def _calls(batch: int, seq_len: int) -> list[slice]:
    """Sequence ranges of a [batch, seq_len] minibatch, one per model call."""
    per_call = max(1, ROWS // seq_len)
    return [slice(i, min(i + per_call, batch)) for i in range(0, batch, per_call)]


@dataclass
class TrainReport:
    """Per-step log. unique_index_writes counts, for each call of the step,
    the unique value-table slots each memory block wrote, summed over the
    blocks and the step's calls."""

    steps: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    lr_inserted_dense: list[float] = field(default_factory=list)
    lr_memory_keys_values: list[float] = field(default_factory=list)
    unique_index_writes: list[int] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("empty report")
        return self.losses[-1]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("step,loss,lr_inserted_dense,lr_memory_keys_values,"
                  "unique_index_writes\n")
        for i in range(len(self.steps)):
            buf.write(f"{self.steps[i]},{self.losses[i]:.10g},"
                      f"{self.lr_inserted_dense[i]:.10g},"
                      f"{self.lr_memory_keys_values[i]:.10g},"
                      f"{self.unique_index_writes[i]}\n")
        return buf.getvalue()


def train(model: ModelSpec, corpus, groups: list[OptimGroup], steps: int,
          batch_size: int = 16, seed: int = 0,
          loss_scale: float = 1.0) -> TrainReport:
    """Seeded stochastic training. A non-finite loss aborts immediately;
    parameters outside the given groups are never written to.

    Each step's [batch_size, s] minibatch runs in calls of max(1, ROWS // s)
    sequences; the step's loss and gradient are the means over its
    sequences.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not loss_scale > 0:
        raise ValueError(f"loss_scale must be > 0, got {loss_scale}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    allowed = {p for g in groups for p in g.paths}
    by_path = dict(named_params(model))
    missing = allowed - set(by_path)
    if missing:
        raise ValueError(f"group paths not in model: {sorted(missing)[:3]}")
    params = {p: by_path[p] for g in groups for p in g.paths}
    opt = AdamW(params)
    rng = make_rng(seed)
    report = TrainReport()
    group_of = {p: g for g in groups for p in g.paths}
    for step in range(steps):
        inputs, targets = corpus.batch(rng, batch_size)
        batch = inputs.shape[0]
        counter: dict = {}
        mean_loss = 0.0
        acc: GradStore | None = None
        for part in _calls(*inputs.shape):
            # a call's mean loss enters the step mean weighted by its share
            # of the sequences; the weight rides on the loss scale
            share = (part.stop - part.start) / batch
            loss, grads = loss_and_grads(model, inputs[part], targets[part],
                                         allowed=allowed, counter=counter,
                                         loss_scale=loss_scale * share)
            mean_loss += loss * share
            if acc is None:
                acc = grads
            else:
                for path, g in grads.items():
                    acc.add(path, g)
        if not np.isfinite(mean_loss):
            raise NumericsError(f"non-finite loss {mean_loss} at step {step}")
        if loss_scale != 1.0:
            for g in acc.values():
                g /= loss_scale
        lr_wd = {}
        lrs = {"inserted_dense": 0.0, "memory_keys_values": 0.0}
        for g in groups:
            lr = schedule_lr(g.schedule, step, steps, g.max_lr, g.warmup_ratio)
            lrs[g.name] = lr
            for p in g.paths:
                lr_wd[p] = (lr, g.weight_decay)
        opt.step(acc, lr_wd)
        report.steps.append(step)
        report.losses.append(float(mean_loss))
        report.lr_inserted_dense.append(lrs.get("inserted_dense", 0.0))
        report.lr_memory_keys_values.append(lrs.get("memory_keys_values", 0.0))
        report.unique_index_writes.append(int(counter.get("writes", 0)))
    return report


def evaluate(model: ModelSpec, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean next-token loss over a stack of sequences [B, s] (or one [s]),
    inference mode, in calls of max(1, ROWS // s) sequences."""
    if inputs.ndim == 1:
        inputs, targets = inputs[None], targets[None]
    total = 0.0
    for part in _calls(*inputs.shape):
        logits, _ = model_forward(inputs[part], model, training=False)
        loss = lm_loss(logits.reshape(-1, model.vocab), targets[part].reshape(-1))
        total += loss * (part.stop - part.start)
    return total / inputs.shape[0]


# ---------------------------------------------------------------------------
# head importance

@dataclass
class HeadImportanceReport:
    scores: np.ndarray      # [layers, heads], signed
    variance: np.ndarray    # [layers], variance across heads within a layer

    def scores_csv(self) -> str:
        buf = io.StringIO()
        buf.write("layer,head,importance\n")
        for layer in range(self.scores.shape[0]):
            for head in range(self.scores.shape[1]):
                buf.write(f"{layer},{head},{self.scores[layer, head]:.17g}\n")
        return buf.getvalue()

    def variance_csv(self) -> str:
        buf = io.StringIO()
        buf.write("layer,variance\n")
        for layer in range(self.variance.shape[0]):
            buf.write(f"{layer},{self.variance[layer]:.17g}\n")
        return buf.getvalue()


def head_importance(model: ModelSpec, dataset) -> HeadImportanceReport:
    """Per-layer, per-head mean inner product between each head's attention
    output and the loss gradient at that output.

    dataset is an iterable of (inputs, targets) pairs. For each sequence the
    per-position inner products are averaged over positions first, then
    averaged over the dataset; values are signed (no absolute value taken).
    """
    n_layers = len(model.blocks)
    per_seq = []
    for inputs, targets in dataset:
        logits, caches = model_forward(inputs, model, training=False,
                                       collect=True)
        probes: dict = {}
        model_backward(lm_loss_backward(logits, targets), caches, model,
                       allowed=set(), probes=probes)
        seq = np.empty((n_layers, model.heads), dtype=np.float64)
        for i in range(n_layers):
            ctx, dctx = probes[f"blocks.{i}.attn"]
            per_pos = np.sum(ctx * dctx, axis=2)       # [heads, positions]
            seq[i] = per_pos.mean(axis=1)
        per_seq.append(seq)
    if not per_seq:
        raise ValueError("empty dataset")
    # correctly-rounded sum: the dataset mean is then exactly invariant
    # under duplicating the dataset
    stacked = np.stack(per_seq)
    scores = np.empty((n_layers, model.heads), dtype=np.float64)
    for i in range(n_layers):
        for h in range(model.heads):
            scores[i, h] = math.fsum(stacked[:, i, h]) / len(per_seq)
    variance = scores.var(axis=1)
    return HeadImportanceReport(scores=scores, variance=variance)
