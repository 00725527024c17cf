"""Binary checkpoints: JSON header + raw little-endian tensor payload.

Layout: 8-byte magic, u32 format version, u64 header length, UTF-8 JSON
header, then every tensor's bytes back to back in header order. The header
carries the config snapshot, per-block structure descriptors, the tensor
table (name, shape, dtype), and a sha256 of the payload. Loading rebuilds
the model so that saved and reloaded forward passes agree bitwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct

import numpy as np

from .layers import MemoryLayerKind
from .memory import MemoryConfig
from .model import (
    ModelSpec,
    init_base_model,
    init_transformer_block,
    named_params,
    tensor_slots,
)
from .transformer import ROPE_BASE, TransformerBlockParams
from .upscale import init_memory_block

MAGIC = b"HDMEMCK\x00"
FORMAT_VERSION = 1

_DTYPES = {"float32": np.float32, "float64": np.float64}

# descriptor fields of files written while these were settable; a file may
# still carry one, at the constant's value
_FIXED = {"rope_base": ROPE_BASE}

# toggles files carried while the query pipeline was settable, each with the
# value it must hold in a (linear or pkm, headwise) block: query batchnorm is
# gone, and the kind now fixes the rest
_RETIRED_TOGGLES = {
    "query_batchnorm": (False, False),
    "query_layernorm": (True, False),
    "internal_residual": (True, False),
    "output_projection": (True, False),
}


class CheckpointError(Exception):
    """Corrupt or incompatible checkpoint file."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckpointError(f"malformed header: {what}")


def _size(v, what: str, lo: int = 1) -> int:
    _require(type(v) is int and v >= lo, f"{what} {v!r} is not an integer >= {lo}")
    return v


def _block_descriptor(block) -> dict:
    if isinstance(block, TransformerBlockParams):
        return {"type": "transformer"}
    cfg = block.cfg
    return {"type": "memory", "toggles": dataclasses.asdict(block.kind),
            "cfg": {"heads": cfg.heads, "n": cfg.n, "k": cfg.k, "d": cfg.d}}


def save_checkpoint(path: str, model: ModelSpec, config: dict | None = None):
    tensors = list(named_params(model))
    table = [{"name": name, "shape": list(arr.shape), "dtype": arr.dtype.name}
             for name, arr in tensors]
    for entry in table:
        if entry["dtype"] not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {entry['dtype']}")
    payload = b"".join(np.ascontiguousarray(arr).astype(arr.dtype, copy=False)
                       .tobytes() for _, arr in tensors)
    header = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "model": {
            "vocab": model.vocab, "d": model.d, "heads": model.heads,
            "d_ff": model.d_ff, "trainable": list(model.trainable),
            "blocks": [_block_descriptor(b) for b in model.blocks],
        },
        "tensors": table,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        f.write(payload)


def _read_tensors(header: dict, payload: memoryview) -> dict[str, np.ndarray]:
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise CheckpointError("payload checksum mismatch")
    out, offset = {}, 0
    for entry in header["tensors"]:
        if entry["dtype"] not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {entry['dtype']!r}")
        dtype = np.dtype(_DTYPES[entry["dtype"]]).newbyteorder("<")
        shape = tuple(_size(n, f"a size of {entry['name']}", 0) for n in entry["shape"])
        nbytes = math.prod(shape) * dtype.itemsize
        if offset + nbytes > len(payload):
            raise CheckpointError(f"payload truncated at {entry['name']}")
        arr = np.frombuffer(payload[offset:offset + nbytes], dtype=dtype)
        out[entry["name"]] = arr.reshape(shape).astype(dtype.base, copy=True)
        offset += nbytes
    if offset != len(payload):
        raise CheckpointError("trailing bytes after last tensor")
    return out


class _ZeroDraws:
    """The rng of the load skeleton. Every slot then takes the file's
    tensor, so the draws are zeros; a draw larger than the whole payload is
    refused, so header sizes cannot make the skeleton outgrow the file."""

    def __init__(self, limit: int):
        self.limit = limit

    def standard_normal(self, shape) -> np.ndarray:
        _require(math.prod(shape) <= self.limit,
                 f"sizes give a {shape} tensor, larger than the payload")
        # float32: the draw is cast to the default dtype and then discarded
        return np.zeros(shape, dtype=np.float32)


def _fill(node, tensors: dict, prefix: str = ""):
    """Puts each file tensor, dtype kept, into the slot of the same path,
    after checking it has that slot's shape."""
    for path, owner, name in tensor_slots(node, prefix):
        try:
            arr = tensors.pop(path)
        except KeyError:
            raise CheckpointError(f"missing tensor {path}") from None
        want = getattr(owner, name).shape
        _require(arr.shape == want, f"{path} has shape {arr.shape}, expected {want}")
        setattr(owner, name, arr)
    return node


def _skeleton_block(desc: dict, prefix: str, sizes: dict, rng: _ZeroDraws):
    d, heads = sizes["d"], sizes["heads"]
    for key, value in _FIXED.items():
        if key in desc:
            _require(desc[key] == value, f"{prefix} {key} {desc[key]!r} is not {value}")
    if desc["type"] == "transformer":
        block = init_transformer_block(d, heads, sizes["d_ff"], rng)
    elif desc["type"] == "memory":
        toggles = dict(desc["toggles"])
        lk = MemoryLayerKind(toggles.pop("kind"))
        # files written while query batchnorm existed may also carry its
        # bn_momentum and bn_eps, which are ignored
        for name, value in toggles.items():
            _require(name in _RETIRED_TOGGLES, f"{prefix} has unknown toggle {name!r}")
            want = _RETIRED_TOGGLES[name][lk.kind == "headwise"]
            if value is not want:
                raise CheckpointError(f"{prefix} has toggles.{name} {value!r}; a "
                                      f"{lk.kind} block now always has {want}")
        # older files carry selection-route fields in cfg too; they are ignored
        cfg = MemoryConfig(**{key: _size(desc["cfg"][key], f"{prefix} cfg.{key}")
                              for key in ("heads", "n", "k", "d")})
        _require((cfg.heads, cfg.d) == (heads, d),
                 f"{prefix} memory sizes differ from the model's")
        # a memory block copies only the attention and gain of its source,
        # so the source's FFN width is irrelevant
        block = init_memory_block(init_transformer_block(d, heads, 1, rng), lk, cfg, rng)
    else:
        raise CheckpointError(f"unknown block type {desc['type']!r}")
    return block


def load_checkpoint(path: str):
    """Returns (model, config snapshot or None)."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from e
    if blob[:8] != MAGIC:
        raise CheckpointError("bad magic; not a checkpoint file")
    if len(blob) < 20:
        raise CheckpointError("file truncated inside the fixed-size preamble")
    version, = struct.unpack_from("<I", blob, 8)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {version}")
    hlen, = struct.unpack_from("<Q", blob, 12)
    header_end = 20 + hlen
    if header_end > len(blob):
        raise CheckpointError("header truncated")
    try:
        header = json.loads(blob[20:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"unreadable header: {e}") from e
    try:
        # a view: the payload is hashed and read in place, not copied
        return _build_model(header, memoryview(blob)[header_end:])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"malformed header: {type(e).__name__} {e}") from e


def _build_model(header: dict, payload: memoryview):
    """The header's model, built by the library's own constructors from zero
    draws, then filled from the file block by block, so a header that
    disagrees with the payload fails before the next block is allocated."""
    tensors = _read_tensors(header, payload)
    batchnorm = sorted(name for name in tensors if ".query_bn." in name)
    if batchnorm:
        raise CheckpointError("query batchnorm was removed, so a file with its "
                              f"tensors cannot load: {', '.join(batchnorm)}")
    info = header["model"]
    # older files also record base_depth, which is ignored
    sizes = {key: _size(info[key], f"model.{key}") for key in ("vocab", "d", "heads", "d_ff")}
    rng = _ZeroDraws(sum(arr.size for arr in tensors.values()))
    shell = _fill(init_base_model(sizes["vocab"], sizes["d"], sizes["heads"],
                                  sizes["d_ff"], 0, rng), tensors)
    blocks = [_fill(_skeleton_block(desc, f"blocks.{i}", sizes, rng), tensors,
                    f"blocks.{i}") for i, desc in enumerate(info["blocks"])]
    trainable = info["trainable"]
    _require(type(trainable) is list and all(type(t) is bool for t in trainable),
             "model.trainable is not a list of booleans")
    model = dataclasses.replace(shell, blocks=blocks, trainable=trainable)
    if tensors:
        raise CheckpointError(f"unused tensors in file: {sorted(tensors)[:3]}")
    return model, header["config"]
