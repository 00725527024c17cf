"""Experiment configuration: INI-style sections, strict schema, builders.

Unknown sections or keys are rejected so a typo never silently falls back
to a default. Every key has a desk-scale default; an empty file is a valid
experiment.
"""

from __future__ import annotations

import configparser
import dataclasses
import os

from .layers import MEMORY_KINDS, MEMORY_TOGGLES, MemoryLayerKind
from .memory import MemoryConfig
from .model import ModelSpec, init_base_model
from .numerics import make_rng
from .training import RecallCorpus, ByteCorpus, build_optim_groups
from .upscale import INIT_SOURCES, INSERT_KINDS, POLICY_NAMES, PlacementPolicy, UpscalePlan, build_dus, build_memory_dus


class ConfigError(Exception):
    """A config this module rejects itself: malformed text, an unknown
    section or key, a value of the wrong type or out of its range, a bad
    checkpoint snapshot, or a missing corpus path. Values the library
    rejects (k > n, d not divisible by heads, ...) raise the library's
    ValueError unwrapped. The CLI maps both to exit code 2."""


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


@dataclasses.dataclass(frozen=True)
class Range:
    """Admitted numbers: lo <= v and v <= hi; a None hi is open-ended. NaN
    is never admitted."""

    lo: float
    hi: float | None = None

    def admits(self, v) -> bool:
        return v >= self.lo and (self.hi is None or v <= self.hi)

    def __str__(self) -> str:
        if self.hi is not None:
            return f"in [{self.lo}, {self.hi}]"
        return f">= {self.lo}"


_NONNEG = Range(0)
_POSITIVE = Range(1)

# section -> key -> (type, default[, limit]); None default means "absent
# unless set"; a limit (a Range, or a tuple of the admitted choices) is
# checked on every value a config file sets
SCHEMA = {
    "model": {
        "vocab": (int, 256, _POSITIVE), "d": (int, 64, _POSITIVE),
        "heads": (int, 4, _POSITIVE), "d_ff": (int, 256, _POSITIVE),
        "depth": (int, 4, _NONNEG), "seed": (int, 0, _NONNEG),
    },
    "memory": {
        "kind": (str, "headwise", MEMORY_KINDS),
        "n": (int, 16, _POSITIVE), "k": (int, 4, _POSITIVE),
        **{name: (_bool, None) for name in MEMORY_TOGGLES},
    },
    "upscale": {
        "policy": (str, "distributed", POLICY_NAMES),
        "inserted": (int, 2, _NONNEG),
        "insert_kind": (str, "memory_block", INSERT_KINDS),
        "init_source": (str, "subsequent", INIT_SOURCES),
        "zero_init_copies": (_bool, False), "seed": (int, 0, _NONNEG),
    },
    "train": {
        "mode": (str, "cpt", ("cpt", "sft")), "steps": (int, 2000, _NONNEG),
        "batch_size": (int, 16, _POSITIVE),
        "dense_lr": (float, 3e-3, _NONNEG),
        "memory_lr": (float, 1e-2, _NONNEG),
        "weight_decay": (float, 0.01, _NONNEG),
        "warmup_ratio": (float, 0.1, Range(0, 1)),
        "seed": (int, 7, _NONNEG),
        "corpus": (str, "recall", ("recall", "bytes")),
        "corpus_seed": (int, 5, _NONNEG),
        "num_pairs": (int, 256, _POSITIVE), "corpus_path": (str, ""),
        "seq_len": (int, 64, _POSITIVE),
    },
    "run": {
        "precision": (str, "f32", ("f32", "f64")),
    },
}


def default_config() -> dict:
    return {sect: {key: spec[1] for key, spec in keys.items()}
            for sect, keys in SCHEMA.items()}


def _check_value(sect: str, key: str, val) -> None:
    """Range or choice check of one value of its schema type."""
    for limit in SCHEMA[sect][key][2:]:
        if isinstance(limit, Range) and not limit.admits(val):
            raise ConfigError(f"{sect}.{key} must be {limit}, got {val!r}")
        if isinstance(limit, tuple) and val not in limit:
            raise ConfigError(f"{sect}.{key} must be one of {list(limit)}, got {val!r}")


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
            try:
                val = SCHEMA[sect][key][0](raw)
            except ValueError as e:
                raise ConfigError(f"bad value for {sect}.{key}: {raw!r}") from e
            _check_value(sect, key, val)
            cfg[sect][key] = val
    return cfg


def config_from_snapshot(snapshot) -> dict:
    """The config a checkpoint header carries, checked like a config file:
    every SCHEMA key must be there with a value of its type. Keys SCHEMA no
    longer has (older files carry memory.route, memory.fused_threshold and
    train.loss_scale) are dropped."""
    cfg = default_config()
    for sect, keys in SCHEMA.items():
        for key, (conv, default, *_) in keys.items():
            try:
                val = snapshot[sect][key]
            except (KeyError, TypeError):
                raise ConfigError(f"config snapshot has no {sect}.{key}") from None
            json_types = {float: (int, float), _bool: (bool,)}.get(conv, (conv,))
            if not (val is None and default is None or type(val) in json_types):
                raise ConfigError(f"config snapshot {sect}.{key} has the wrong type: {val!r}")
            _check_value(sect, key, val)
            cfg[sect][key] = val
    return cfg


def parse_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as f:
        return parse_config_text(f.read())


def memory_layer_kind(cfg: dict) -> MemoryLayerKind:
    m = cfg["memory"]
    lk = MemoryLayerKind.defaults(m["kind"])
    overrides = {name: m[name] for name in MEMORY_TOGGLES if m[name] is not None}
    return dataclasses.replace(lk, **overrides) if overrides else lk


def memory_config(cfg: dict) -> MemoryConfig:
    m, mo = cfg["memory"], cfg["model"]
    return MemoryConfig(heads=mo["heads"], n=m["n"], k=m["k"], d=mo["d"])


def build_base(cfg: dict) -> ModelSpec:
    mo = cfg["model"]
    return init_base_model(vocab=mo["vocab"], d=mo["d"], heads=mo["heads"],
                           d_ff=mo["d_ff"], depth=mo["depth"], rng=make_rng(mo["seed"]))


def build_plan(cfg: dict) -> UpscalePlan:
    up = cfg["upscale"]
    policy = PlacementPolicy(up["policy"], cfg["model"]["depth"], up["inserted"])
    memory = up["insert_kind"] == "memory_block"
    return UpscalePlan(policy=policy, insert_kind=up["insert_kind"],
                       init_source=up["init_source"],
                       zero_init_copies=up["zero_init_copies"],
                       memory_kind=memory_layer_kind(cfg) if memory else None,
                       memory_cfg=memory_config(cfg) if memory else None,
                       seed=up["seed"])


def build_model(cfg: dict):
    """Base model plus the expanded model the config describes."""
    base = build_base(cfg)
    plan = build_plan(cfg)
    build = build_memory_dus if plan.insert_kind == "memory_block" else build_dus
    return base, build(base, plan)


def build_corpus(cfg: dict):
    tr, mo = cfg["train"], cfg["model"]
    if tr["corpus"] == "recall":
        return RecallCorpus(vocab=mo["vocab"], num_pairs=tr["num_pairs"],
                            seed=tr["corpus_seed"])
    if not tr["corpus_path"]:
        raise ConfigError("train.corpus_path is required when train.corpus = bytes")
    if not os.path.exists(tr["corpus_path"]):
        raise ConfigError(f"train.corpus_path not found: {tr['corpus_path']}")
    if mo["vocab"] != 256:
        raise ConfigError("byte corpus requires model.vocab = 256")
    return ByteCorpus.from_file(tr["corpus_path"], tr["seq_len"])


def build_groups(cfg: dict, model: ModelSpec):
    tr = cfg["train"]
    return build_optim_groups(model, tr["mode"], dense_lr=tr["dense_lr"],
                              memory_lr=tr["memory_lr"],
                              weight_decay=tr["weight_decay"],
                              warmup_ratio=tr["warmup_ratio"])
