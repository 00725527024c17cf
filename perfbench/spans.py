"""Span tracing for the traced benchmark run.

Spans are recorded by wrappers that the benchmark installs over headmem's
public functions for the length of the traced phase; nothing in the library
changes and an untraced run installs no wrapper at all. A span is a list
[id, parent id, name, op id, start ns, end ns, tag]: op id is the training
step or prefill request the span belongs to (OP_SETUP while setting up,
OP_CHECK while checking outputs) and tag is a per-call number the wrapper
derives from the arguments (analytic MACs of a block forward, block index of
a block backward).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "headmem"
OP_SETUP = -1   # op id of spans recorded while setting up
OP_CHECK = -2   # op id of spans recorded while checking outputs

# (module, attribute, span name). Class methods are given as "Class.method".
# Every headmem module that binds the same function object under the same
# name is patched, so calls from one module into another are seen too.
SPAN_TARGETS = (
    ("training", "loss_and_grads", "training.loss_and_grads"),
    ("training", "AdamW.step", "training.adamw_step"),
    ("training", "RecallCorpus.batch", "training.corpus_batch"),
    ("training", "ByteCorpus.batch", "training.corpus_batch"),
    ("model", "model_forward", "model.forward"),
    ("model", "build_value_caches", "model.build_value_caches"),
    ("transformer", "transformer_block_forward", "transformer.block_forward"),
    ("transformer", "causal_attention", "transformer.causal_attention"),
    ("layers", "memory_block_forward", "layers.memory_block_forward"),
    ("memory", "score_subkeys", "memory.score_subkeys"),
    ("memory", "select_topk", "memory.select_topk"),
    ("memory", "fused_cartesian_topk", "memory.route_fused"),
    ("memory", "two_stage_topk", "memory.route_two_stage"),
    ("memory", "aggregate_values_cached", "memory.aggregate_values_cached"),
    ("gradients", "model_backward", "gradients.model_backward"),
    ("gradients", "transformer_block_backward", "gradients.transformer_block_backward"),
    ("gradients", "memory_block_backward", "gradients.memory_block_backward"),
    ("gradients", "attention_backward", "gradients.attention_backward"),
    ("gradients", "dedup_scatter_backward", "gradients.dedup_scatter_backward"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
)


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover (ns).

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or out-of-range children are not counted twice.
    """
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))
    out = {}
    for s in spans:
        start, end = s[4], s[5]
        covered, cursor = 0, start
        for c_start, c_end in sorted(children.get(s[0], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[s[0]] = (end - start) - covered
    return out


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = OP_SETUP
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, tag_fn=None, after=None):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(tracer.spans), tracer.stack[-1] if tracer.stack else -1,
                   name, tracer.op, 0, 0,
                   tag_fn(args, kwargs) if tag_fn else 0]
            tracer.spans.append(rec)
            tracer.stack.append(rec[0])
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                tracer.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _grad_add(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(store, path, g):
            counts["grad_offered"] += g.size
            if store.allowed is None or path in store.allowed:
                counts["grad_kept"] += g.size
            return fn(store, path, g)
        return wrapper

    def _scatter_counts(self, args, kwargs, result):
        idx = args[1] if len(args) > 1 else kwargs["idx"]
        self.counts["scatter_contributions"] += idx.size
        self.counts["scatter_writes"] += np.unique(idx).size

    def _tags(self):
        bench = importlib.import_module(f"{PACKAGE}.bench")

        def transformer_macs(args, kwargs):
            return bench.transformer_block_macs(args[1], args[0].shape[0])

        def memory_macs(args, kwargs):
            return bench.memory_block_macs(args[1], args[0].shape[0])

        def block_index(args, kwargs):
            prefix = args[4] if len(args) > 4 else kwargs["prefix"]
            return int(prefix.rsplit(".", 1)[1])

        return {"transformer.block_forward": transformer_macs,
                "layers.memory_block_forward": memory_macs,
                "gradients.transformer_block_backward": block_index,
                "gradients.memory_block_backward": block_index}

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target; calls made while installed record spans."""
        tags = self._tags()
        afters = {"gradients.dedup_scatter_backward": self._scatter_counts}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, attr, span_name in SPAN_TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._span(span_name, getattr(cls, meth)))
                continue
            original = getattr(mod, attr)
            wrapped = self._span(span_name, original, tags.get(span_name),
                                 afters.get(span_name))
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._patch(m, attr, wrapped)
        store = importlib.import_module(f"{PACKAGE}.gradients").GradStore
        self._patch(store, "add", self._grad_add(store.add))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def dump(self) -> dict:
        """Spans in a compact, self-describing form for the trace file."""
        names = sorted({s[2] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        return {"fields": ["id", "parent", "name", "op", "start_ns", "end_ns", "tag"],
                "names": names,
                "spans": [[s[0], s[1], code[s[2]], s[3], s[4], s[5], s[6]]
                          for s in self.spans]}


BLOCK_BACKWARDS = ("gradients.transformer_block_backward",
                   "gradients.memory_block_backward")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, lowest_trainable: int) -> dict:
    """Per-layer figures per op (set-up spans: per traced set-up).

    A layer a workload never calls reads 0. frozen_backward is the backward
    time of blocks below the lowest trainable one, whose gradients are all
    dropped.
    """
    selfs = self_times(tracer.spans)
    total, own, calls, tags, setup = Counter(), Counter(), Counter(), Counter(), Counter()
    frozen = 0
    for s in tracer.spans:
        name, dur = s[2], s[5] - s[4]
        if s[3] < 0:
            if s[3] == OP_SETUP:
                setup[name] += dur
            continue
        total[name] += dur
        own[name] += selfs[s[0]]
        calls[name] += 1
        tags[name] += s[6]
        if name in BLOCK_BACKWARDS and s[6] < lowest_trainable:
            frozen += dur

    def ms(ns):
        return ns / n_ops / 1e6

    def mac_rate(name):
        return _ratio(tags[name], total[name] / 1e9)

    c = tracer.counts
    return {
        "training.loss_and_grads.calls": calls["training.loss_and_grads"] / n_ops,
        "model.forward.ms": ms(total["model.forward"]),
        "gradients.grad_kept_ratio": _ratio(c["grad_kept"], c["grad_offered"]),
        "gradients.frozen_backward.ms": ms(frozen),
        "memory.select_topk.ms": ms(total["memory.select_topk"]),
        "memory.route_fused.calls": calls["memory.route_fused"] / n_ops,
        "memory.route_two_stage.calls": calls["memory.route_two_stage"] / n_ops,
        "memory.score_subkeys.ms": ms(total["memory.score_subkeys"]),
        "gradients.dedup_scatter_backward.ms": ms(total["gradients.dedup_scatter_backward"]),
        "gradients.scatter.writes": c["scatter_writes"] / n_ops,
        "gradients.scatter.contributions": c["scatter_contributions"] / n_ops,
        "gradients.scatter.dedup_ratio": _ratio(c["scatter_writes"],
                                                c["scatter_contributions"]),
        "memory.aggregate_values_cached.ms": ms(total["memory.aggregate_values_cached"]),
        "transformer.causal_attention.ms": ms(total["transformer.causal_attention"]),
        "gradients.attention_backward.ms": ms(total["gradients.attention_backward"]),
        "transformer.block_forward.self_ms": ms(own["transformer.block_forward"]),
        "layers.memory_block_forward.self_ms": ms(own["layers.memory_block_forward"]),
        "gradients.transformer_block_backward.self_ms":
            ms(own["gradients.transformer_block_backward"]),
        "gradients.memory_block_backward.self_ms":
            ms(own["gradients.memory_block_backward"]),
        "gradients.model_backward.ms": ms(total["gradients.model_backward"]),
        "transformer.block_forward.mac_per_s": mac_rate("transformer.block_forward"),
        "layers.memory_block_forward.mac_per_s": mac_rate("layers.memory_block_forward"),
        "training.adamw_step.ms": ms(total["training.adamw_step"]),
        "training.corpus_batch.ms": ms(total["training.corpus_batch"]),
        "checkpoint.load.ms": setup["checkpoint.load"] / 1e6,
        "checkpoint.save.ms": setup["checkpoint.save"] / 1e6,
        "model.build_value_caches.ms": setup["model.build_value_caches"] / 1e6,
    }
