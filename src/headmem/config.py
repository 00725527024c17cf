"""Experiment configuration: INI-style sections, strict schema, builders.

Unknown sections or keys are rejected so a typo never silently falls back
to a default. Every key has a desk-scale default; an empty file is a valid
experiment.
"""

from __future__ import annotations

import configparser
import dataclasses
import os

from .layers import MEMORY_KINDS, MemoryLayerKind
from .memory import MemoryConfig
from .model import ModelSpec, init_base_model
from .numerics import make_rng
from .training import RecallCorpus, ByteCorpus, build_optim_groups
from .upscale import INIT_SOURCES, INSERT_KINDS, POLICY_NAMES, PlacementPolicy, UpscalePlan, build_dus, build_memory_dus


class ConfigError(Exception):
    """Invalid experiment configuration; maps to CLI exit code 2."""


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


@dataclasses.dataclass(frozen=True)
class Range:
    """Admitted numbers: lo <= v (lo < v when lo_open) and v <= hi; a None
    bound is open-ended. NaN is never admitted."""

    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False

    def admits(self, v) -> bool:
        above = self.lo is None or (v > self.lo if self.lo_open else v >= self.lo)
        return above and (self.hi is None or v <= self.hi)

    def __str__(self) -> str:
        if self.hi is not None:
            return f"in [{self.lo}, {self.hi}]"
        return f"{'>' if self.lo_open else '>='} {self.lo}"


_NONNEG = Range(0)
_POSITIVE = Range(1)

# section -> key -> (type, default[, range]); None default means "absent
# unless set"; a range is checked on every value a config file sets
SCHEMA = {
    "model": {
        "vocab": (int, 256, _POSITIVE), "d": (int, 64, _POSITIVE),
        "heads": (int, 4, _POSITIVE), "d_ff": (int, 256, _POSITIVE),
        "depth": (int, 4, _NONNEG), "seed": (int, 0, _NONNEG),
    },
    "memory": {
        "kind": (str, "headwise"), "n": (int, 16, _POSITIVE), "k": (int, 4, _POSITIVE),
        "fused_threshold": (int, 16, _NONNEG), "route": (str, "auto"),
        "query_batchnorm": (_bool, None), "query_layernorm": (_bool, None),
        "internal_residual": (_bool, None), "output_projection": (_bool, None),
    },
    "upscale": {
        "policy": (str, "distributed"), "inserted": (int, 2, _NONNEG),
        "insert_kind": (str, "memory_block"),
        "init_source": (str, "subsequent"),
        "zero_init_copies": (_bool, False), "seed": (int, 0, _NONNEG),
    },
    "train": {
        "mode": (str, "cpt"), "steps": (int, 2000, _NONNEG),
        "batch_size": (int, 16, _POSITIVE),
        "dense_lr": (float, 3e-3, _NONNEG),
        "memory_lr": (float, 1e-2, _NONNEG),
        "weight_decay": (float, 0.01, _NONNEG),
        "warmup_ratio": (float, 0.1, Range(0, 1)),
        "loss_scale": (float, 1.0, Range(0, lo_open=True)),
        "seed": (int, 7, _NONNEG),
        "corpus": (str, "recall"), "corpus_seed": (int, 5, _NONNEG),
        "num_pairs": (int, 256, _POSITIVE), "corpus_path": (str, ""),
        "seq_len": (int, 64, _POSITIVE),
    },
    "run": {
        "precision": (str, "f32"),
    },
}

_CHOICES = {
    ("memory", "kind"): MEMORY_KINDS,
    ("memory", "route"): ("auto", "two_stage", "fused"),
    ("upscale", "policy"): POLICY_NAMES,
    ("upscale", "insert_kind"): INSERT_KINDS,
    ("upscale", "init_source"): INIT_SOURCES,
    ("train", "mode"): ("cpt", "sft"),
    ("train", "corpus"): ("recall", "bytes"),
    ("run", "precision"): ("f32", "f64"),
}


def default_config() -> dict:
    return {sect: {key: spec[1] for key, spec in keys.items()}
            for sect, keys in SCHEMA.items()}


def parse_config_text(text: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from e
    cfg = default_config()
    for sect in parser.sections():
        if sect not in SCHEMA:
            raise ConfigError(f"unknown section [{sect}]")
        for key, raw in parser.items(sect):
            if key not in SCHEMA[sect]:
                raise ConfigError(f"unknown key {sect}.{key}")
            conv, _, *limits = SCHEMA[sect][key]
            try:
                val = conv(raw)
            except ValueError as e:
                raise ConfigError(f"bad value for {sect}.{key}: {raw!r}") from e
            if limits and not limits[0].admits(val):
                raise ConfigError(f"{sect}.{key} must be {limits[0]}, got {raw!r}")
            cfg[sect][key] = val
    for (sect, key), allowed in _CHOICES.items():
        val = cfg[sect][key]
        if val is not None and val not in allowed:
            raise ConfigError(
                f"{sect}.{key} must be one of {list(allowed)}, got {val!r}")
    return cfg


def parse_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as f:
        return parse_config_text(f.read())


def memory_layer_kind(cfg: dict) -> MemoryLayerKind:
    m = cfg["memory"]
    lk = MemoryLayerKind.defaults(m["kind"])
    overrides = {name: m[name] for name in
                 ("query_batchnorm", "query_layernorm", "internal_residual",
                  "output_projection") if m[name] is not None}
    return dataclasses.replace(lk, **overrides) if overrides else lk


def memory_config(cfg: dict) -> MemoryConfig:
    m, mo = cfg["memory"], cfg["model"]
    try:
        return MemoryConfig(heads=mo["heads"], n=m["n"], k=m["k"],
                            d=mo["d"], fused_threshold=m["fused_threshold"])
    except ValueError as e:
        raise ConfigError(str(e)) from e


def build_base(cfg: dict) -> ModelSpec:
    mo = cfg["model"]
    rng = make_rng(mo["seed"])
    try:
        return init_base_model(vocab=mo["vocab"], d=mo["d"], heads=mo["heads"],
                               d_ff=mo["d_ff"], depth=mo["depth"], rng=rng)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def build_plan(cfg: dict, insert_kind: str | None = None) -> UpscalePlan:
    up = cfg["upscale"]
    kind = insert_kind if insert_kind is not None else up["insert_kind"]
    try:
        policy = PlacementPolicy(up["policy"], cfg["model"]["depth"],
                                 up["inserted"])
        if kind == "memory_block":
            return UpscalePlan(policy=policy, insert_kind=kind,
                               memory_kind=memory_layer_kind(cfg),
                               memory_cfg=memory_config(cfg),
                               seed=up["seed"])
        return UpscalePlan(policy=policy, insert_kind=kind,
                           init_source=up["init_source"],
                           zero_init_copies=up["zero_init_copies"],
                           seed=up["seed"])
    except ValueError as e:
        raise ConfigError(str(e)) from e


def build_model(cfg: dict):
    """Base model plus the expanded model the config describes."""
    base = build_base(cfg)
    plan = build_plan(cfg)
    try:
        if plan.insert_kind == "memory_block":
            model = build_memory_dus(base, plan)
        else:
            model = build_dus(base, plan)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return base, model


def build_corpus(cfg: dict):
    tr, mo = cfg["train"], cfg["model"]
    if tr["corpus"] == "recall":
        try:
            return RecallCorpus(vocab=mo["vocab"], num_pairs=tr["num_pairs"],
                                seed=tr["corpus_seed"])
        except ValueError as e:
            raise ConfigError(str(e)) from e
    if not tr["corpus_path"]:
        raise ConfigError("train.corpus_path is required when train.corpus = bytes")
    if not os.path.exists(tr["corpus_path"]):
        raise ConfigError(f"train.corpus_path not found: {tr['corpus_path']}")
    if mo["vocab"] != 256:
        raise ConfigError("byte corpus requires model.vocab = 256")
    try:
        return ByteCorpus.from_file(tr["corpus_path"], tr["seq_len"])
    except ValueError as e:
        raise ConfigError(str(e)) from e


def build_groups(cfg: dict, model: ModelSpec):
    tr = cfg["train"]
    return build_optim_groups(model, tr["mode"], dense_lr=tr["dense_lr"],
                              memory_lr=tr["memory_lr"],
                              weight_decay=tr["weight_decay"],
                              warmup_ratio=tr["warmup_ratio"])
