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
from .transformer import check_targets, lm_loss

# leaf tensor names that form the memory key/value group: these train at a
# fixed learning rate with no weight decay, everything else inserted follows
# the warmup+cosine schedule
MEMORY_TABLE_LEAVES = {"keys", "values", "k_row", "k_col", "v_base", "w_heads"}

# token rows per forward+backward call. Per-token cost of one call falls
# about tenfold from 2 rows to 128 and is flat beyond, while live
# activations grow with the rows, so a call takes max(1, ROWS // s)
# sequences: sixty-four 2-token recall sequences, or one 128-byte window.
ROWS = 128

ADAM_BETAS = (0.9, 0.95)  # AdamW moment decay rates
ADAM_EPS = 1e-8  # AdamW denominator floor


def schedule_lr(kind: str, step: int, total_steps: int, max_lr: float,
                warmup_ratio: float = 0.1) -> float:
    """Learning rate at a zero-based step. Warmup is linear from zero over
    ceil(total * ratio) steps; decay is half-cosine down to zero."""
    if kind == "constant":
        return max_lr
    if kind != "cosine_with_warmup":
        raise ValueError(f"unknown schedule {kind!r}")
    warm = max(1, math.ceil(total_steps * warmup_ratio))
    if step < warm:
        return max_lr * (step + 1) / warm
    span = max(1, total_steps - warm)
    t = min(1.0, (step - warm) / span)
    return 0.5 * max_lr * (1.0 + math.cos(math.pi * t))


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
    """Decoupled-weight-decay adaptive moments, betas (0.9, 0.95), eps 1e-8.

    A step writes its temporaries into two scratch buffers per dtype, as
    long as the largest parameter and shared by all of them: the same
    operations in the same order as the expression form, bit for bit.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        self.params = params
        self.t = 0
        self.m = {p: np.zeros_like(a) for p, a in params.items()}
        self.v = {p: np.zeros_like(a) for p, a in params.items()}
        size: dict[np.dtype, int] = {}
        for a in params.values():
            size[a.dtype] = max(size.get(a.dtype, 0), a.size)
        self.scratch = {dt: (np.empty(n, dt), np.empty(n, dt)) for dt, n in size.items()}

    def step(self, grads: GradStore, lr_wd: dict[str, tuple[float, float]]):
        self.t += 1
        b1, b2 = ADAM_BETAS
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for path, arr in self.params.items():
            g = grads.get(path)
            if g is None:
                continue
            lr, wd = lr_wd[path]
            m, v = self.m[path], self.v[path]
            s, u = (b[:arr.size].reshape(arr.shape) for b in self.scratch[arr.dtype])
            m *= b1
            m += np.multiply(1.0 - b1, g, out=s)
            v *= b2
            np.multiply(1.0 - b2, g, out=s)
            v += np.multiply(s, g, out=s)
            # update u = (m / c1) / (sqrt(v / c2) + eps) [+ wd * arr]
            np.sqrt(np.divide(v, c2, out=s), out=s)
            s += ADAM_EPS
            np.divide(np.divide(m, c1, out=u), s, out=u)
            if wd:
                u += np.multiply(wd, arr, out=s)
            arr -= np.multiply(lr, u, out=u)


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
        if self.seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {self.seq_len}")
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
                   grads: GradStore | None = None, loss_scale: float = 1.0):
    """Scalar loss plus parameter gradients, in one forward and one backward.

    inputs, targets: one sequence [s] or B equal-length sequences [B, s].
    The loss is the mean next-token loss over all B*s tokens, which equals
    the mean of the per-sequence losses. Its gradients times loss_scale are
    added into grads (None: a fresh GradStore()), for the paths it keeps;
    returns (loss, grads).
    """
    targets = np.asarray(targets)
    check_targets(targets, np.shape(inputs), model.vocab)
    logits, caches = model_forward(inputs, model, training=True, collect=True)
    logits = logits.reshape(-1, model.vocab)
    targets = targets.reshape(-1)
    loss = lm_loss(logits, targets)
    dlogits = lm_loss_backward(logits, targets)
    dlogits *= loss_scale
    grads = GradStore() if grads is None else grads
    return loss, model_backward(dlogits, caches, model, grads)


def _calls(batch: int, seq_len: int) -> list[slice]:
    """Sequence ranges of a [batch, seq_len] minibatch, one per model call."""
    per_call = max(1, ROWS // seq_len)
    return [slice(i, min(i + per_call, batch)) for i in range(0, batch, per_call)]


@dataclass
class TrainReport:
    """Per-step log, entry i for step i. unique_index_writes counts, for
    each call of the step, the unique value-table slots each memory block
    wrote, summed over the blocks and the step's calls."""

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
        for i in range(len(self.losses)):
            buf.write(f"{i},{self.losses[i]:.10g},"
                      f"{self.lr_inserted_dense[i]:.10g},"
                      f"{self.lr_memory_keys_values[i]:.10g},"
                      f"{self.unique_index_writes[i]}\n")
        return buf.getvalue()


def train(model: ModelSpec, corpus, groups: list[OptimGroup], steps: int,
          batch_size: int = 16, seed: int = 0) -> TrainReport:
    """Seeded stochastic training. A non-finite loss aborts immediately;
    parameters outside the given groups are never written to.

    Each step's [batch_size, s] minibatch runs in calls of max(1, ROWS // s)
    sequences; the step's loss and gradient are the means over its
    sequences.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
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
    for step in range(steps):
        inputs, targets = corpus.batch(rng, batch_size)
        batch = inputs.shape[0]
        mean_loss = 0.0
        grads = GradStore(allowed)
        for part in _calls(*inputs.shape):
            # a call's mean loss enters the step mean weighted by its share
            # of the sequences; the weight rides on the loss scale
            share = (part.stop - part.start) / batch
            loss, _ = loss_and_grads(model, inputs[part], targets[part], grads,
                                     loss_scale=share)
            mean_loss += loss * share
        if not np.isfinite(mean_loss):
            raise NumericsError(f"non-finite loss {mean_loss} at step {step}")
        lr_wd = {}
        lrs = {"inserted_dense": 0.0, "memory_keys_values": 0.0}
        for g in groups:
            lr = schedule_lr(g.schedule, step, steps, g.max_lr, g.warmup_ratio)
            lrs[g.name] = lr
            for p in g.paths:
                lr_wd[p] = (lr, g.weight_decay)
        opt.step(grads, lr_wd)
        report.losses.append(float(mean_loss))
        report.lr_inserted_dense.append(lrs["inserted_dense"])
        report.lr_memory_keys_values.append(lrs["memory_keys_values"])
        report.unique_index_writes.append(grads.writes)
    return report


def evaluate(model: ModelSpec, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean next-token loss over a stack of sequences [B, s] (or one [s]),
    inference mode, in calls of max(1, ROWS // s) sequences."""
    inputs, targets = np.asarray(inputs), np.asarray(targets)
    check_targets(targets, inputs.shape, model.vocab)
    if inputs.ndim not in (1, 2) or inputs.size == 0:
        raise ValueError(f"expected inputs [s] or [B, s] with s, B >= 1, "
                         f"got shape {inputs.shape}")
    if inputs.ndim == 1:
        inputs, targets = inputs[None], targets[None]
    total, batch = 0.0, inputs.shape[0]
    for part in _calls(*inputs.shape):
        logits, _ = model_forward(inputs[part], model, training=False)
        loss = lm_loss(logits.reshape(-1, model.vocab), targets[part].reshape(-1))
        # weighted by the call's share of sequences: one call's weight is
        # exactly 1, so a batch that fits one call returns its loss unrounded
        total += loss * ((part.stop - part.start) / batch)
    return total


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

    dataset is an iterable of (inputs, targets) pairs, each one sequence
    [s]. For each sequence the per-position inner products are averaged
    over positions first, then averaged over the dataset; values are signed
    (no absolute value taken).
    """
    n_layers = len(model.blocks)
    per_seq = []
    for inputs, targets in dataset:
        targets = np.asarray(targets)
        if np.ndim(inputs) != 1 or targets.shape != np.shape(inputs):
            raise ValueError(f"expected inputs and targets of one sequence [s], "
                             f"got shapes {np.shape(inputs)} and {targets.shape}")
        check_targets(targets, np.shape(inputs), model.vocab)
        logits, caches = model_forward(inputs, model, training=False,
                                       collect=True)
        probes: dict = {}
        model_backward(lm_loss_backward(logits, targets), caches, model,
                       GradStore(set(), probes))
        seq = np.empty((n_layers, model.heads), dtype=np.float64)
        for i in range(n_layers):
            ctx, dctx = probes[f"blocks.{i}.attn"]  # [1, heads, positions, d_h]
            seq[i] = np.sum(ctx * dctx, axis=-1)[0].mean(axis=-1)
        per_seq.append(seq)
    if not per_seq:
        raise ValueError("empty dataset")
    # correctly-rounded sum: the dataset mean is then exactly invariant
    # under duplicating the dataset
    columns = np.stack(per_seq).reshape(len(per_seq), n_layers * model.heads).T
    scores = np.array([math.fsum(col) / len(per_seq)
                       for col in columns]).reshape(n_layers, model.heads)
    variance = scores.var(axis=1)
    return HeadImportanceReport(scores=scores, variance=variance)
