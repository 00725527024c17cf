"""Binary checkpoints: JSON header + raw little-endian tensor payload.

Layout: 8-byte magic, u32 format version, u64 header length, UTF-8 JSON
header, then every tensor's bytes back to back in header order. The header
carries the config snapshot, per-block structure descriptors, the tensor
table (name, shape, dtype), and a sha256 of the payload. Loading rebuilds
the model so that saved and reloaded forward passes agree bitwise.

Both directions stream tensor by tensor. Saving hashes the model's own
arrays, then writes each one to the file; loading checks the whole tensor
table against the file's size, then reads each tensor straight into its
own array and hashes it as it arrives. Neither forms the payload as one
object, so a round trip costs the model plus one skeleton block.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
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
    return {"type": "memory", "toggles": dataclasses.asdict(block.kind),
            "cfg": dataclasses.asdict(block.cfg)}


def save_checkpoint(path: str, model: ModelSpec, config: dict | None = None):
    tensors = list(named_params(model))
    table = [{"name": name, "shape": list(arr.shape), "dtype": arr.dtype.name}
             for name, arr in tensors]
    for entry in table:
        if entry["dtype"] not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {entry['dtype']}")
    # C order, little-endian: the model's own arrays on a little-endian machine
    arrays = [np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
              for _, arr in tensors]
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(arr)
    header = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "model": {
            "vocab": model.vocab, "d": model.d, "heads": model.heads,
            "d_ff": model.d_ff, "trainable": list(model.trainable),
            "blocks": [_block_descriptor(b) for b in model.blocks],
        },
        "tensors": table,
        "payload_sha256": digest.hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(blob)) + blob)
        for arr in arrays:
            f.write(arr.data)


def _tensor_table(header: dict, payload_size: int) -> dict:
    """name: (dtype, shape) of each file tensor in order, checked against
    each other and against the payload's size before any is allocated."""
    table, offset = {}, 0
    for entry in header["tensors"]:
        name = entry["name"]
        if name in table:
            raise CheckpointError(f"tensor {name} appears twice in the table")
        if entry["dtype"] not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {entry['dtype']!r}")
        dtype = np.dtype(_DTYPES[entry["dtype"]]).newbyteorder("<")
        shape = tuple(_size(n, f"a size of {name}", 0) for n in entry["shape"])
        offset += math.prod(shape) * dtype.itemsize
        if offset > payload_size:
            raise CheckpointError(f"payload truncated at {name}")
        table[name] = dtype, shape
    if offset != payload_size:
        raise CheckpointError("trailing bytes after last tensor")
    return table


def _read_tensors(f, header: dict, payload_size: int) -> dict[str, np.ndarray]:
    """Each tensor read from the file straight into an array of its own and
    hashed as it arrives; the checksum is compared after the last one."""
    want = header["payload_sha256"]
    digest, out = hashlib.sha256(), {}
    for name, (dtype, shape) in _tensor_table(header, payload_size).items():
        arr = np.empty(shape, dtype)
        if f.readinto(arr) != arr.nbytes:  # the file shrank while being read
            raise CheckpointError(f"payload truncated at {name}")
        digest.update(arr)
        out[name] = arr
    if digest.hexdigest() != want:
        raise CheckpointError("payload checksum mismatch")
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
        keys = [f.name for f in dataclasses.fields(MemoryConfig)]
        cfg = MemoryConfig(**{key: _size(desc["cfg"][key], f"{prefix} cfg.{key}")
                              for key in keys})
        _require((cfg.heads, cfg.d) == (heads, d),
                 f"{prefix} memory sizes differ from the model's")
        # a memory block copies only the attention and gain of its source,
        # so the source's FFN width is irrelevant
        block = init_memory_block(init_transformer_block(d, heads, 1, rng), lk, cfg, rng)
    else:
        raise CheckpointError(f"unknown block type {desc['type']!r}")
    return block


def _read_header(f) -> tuple[dict, int]:
    """The header, and the size of the payload that follows it."""
    preamble = f.read(20)
    if preamble[:8] != MAGIC:
        raise CheckpointError("bad magic; not a checkpoint file")
    if len(preamble) < 20:
        raise CheckpointError("file truncated inside the fixed-size preamble")
    version, hlen = struct.unpack_from("<IQ", preamble, 8)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {version}")
    payload_size = os.fstat(f.fileno()).st_size - 20 - hlen
    if payload_size < 0:
        raise CheckpointError("header truncated")
    try:
        return json.loads(f.read(hlen).decode("utf-8")), payload_size
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"unreadable header: {e}") from e


def load_checkpoint(path: str):
    """Returns (model, config snapshot or None)."""
    try:
        with open(path, "rb") as f:
            header, payload_size = _read_header(f)
            try:
                tensors = _read_tensors(f, header, payload_size)
                return _build_model(header, tensors)
            except (KeyError, TypeError, ValueError) as e:
                raise CheckpointError(f"malformed header: {type(e).__name__} {e}") from e
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from e


def _build_model(header: dict, tensors: dict[str, np.ndarray]):
    """The header's model, built by the library's own constructors from zero
    draws, then filled with the file's tensors block by block, so a header
    that disagrees with them fails before the next block is allocated."""
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
