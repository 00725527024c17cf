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

from .layers import (
    BatchNorm,
    HeadwiseBank,
    LinearMemoryBank,
    MemoryBlockParams,
    MemoryLayerKind,
    PkmBank,
)
from .memory import MemoryConfig, ProductKeyBank, ValueBank
from .model import ModelSpec, named_buffers, named_params
from .transformer import AttentionParams, FfnParams, TransformerBlockParams

MAGIC = b"HDMEMCK\x00"
FORMAT_VERSION = 1

_DTYPES = {"float32": np.float32, "float64": np.float64}


class CheckpointError(Exception):
    """Corrupt or incompatible checkpoint file."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckpointError(f"malformed header: {what}")


def _size(v, what: str, lo: int = 1) -> int:
    _require(type(v) is int and v >= lo, f"{what} {v!r} is not an integer >= {lo}")
    return v


def _positive(v, what: str, hi: float = math.inf) -> float:
    _require(type(v) in (int, float) and 0 < v <= hi and v < math.inf,
             f"{what} {v!r} is not in (0, {hi}]")
    return v


def _block_descriptor(block) -> dict:
    if isinstance(block, TransformerBlockParams):
        return {"type": "transformer", "rope_base": block.attn.rope_base}
    toggles = dataclasses.asdict(block.kind)
    cfg = block.cfg
    desc = {"type": "memory", "toggles": toggles, "rope_base": block.attn.rope_base,
            "cfg": {"heads": cfg.heads, "n": cfg.n, "k": cfg.k, "d": cfg.d}}
    if block.query_bn is not None:
        desc["bn_momentum"] = block.query_bn.momentum
        desc["bn_eps"] = block.query_bn.eps
    return desc


def save_checkpoint(path: str, model: ModelSpec, config: dict | None = None):
    tensors = list(named_params(model)) + list(named_buffers(model))
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
            "d_ff": model.d_ff, "base_depth": model.base_depth,
            "trainable": list(model.trainable),
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


def _read_tensors(header: dict, payload: bytes) -> dict[str, np.ndarray]:
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


def _take(tensors: dict, name: str, *shape: int) -> np.ndarray:
    """Pops a tensor, which must have the shape the header's numbers give."""
    try:
        arr = tensors.pop(name)
    except KeyError:
        raise CheckpointError(f"missing tensor {name}") from None
    _require(arr.shape == shape, f"{name} has shape {arr.shape}, expected {shape}")
    return arr


def _load_attention(tensors, prefix, d, heads, rope_base, with_projection):
    return AttentionParams(
        w_q=_take(tensors, f"{prefix}.w_q", d, d),
        w_k=_take(tensors, f"{prefix}.w_k", d, d),
        w_v=_take(tensors, f"{prefix}.w_v", d, d),
        w_o=_take(tensors, f"{prefix}.w_o", d, d) if with_projection else None,
        heads=heads, rope_base=rope_base)


def _load_block(desc: dict, tensors: dict, prefix: str, sizes: dict):
    d, heads = sizes["d"], sizes["heads"]
    rope_base = _positive(desc["rope_base"], f"{prefix} rope_base")
    if desc["type"] == "transformer":
        attn = _load_attention(tensors, f"{prefix}.attn", d, heads, rope_base, True)
        f = sizes["d_ff"]
        ffn = FfnParams(w_gate=_take(tensors, f"{prefix}.ffn.w_gate", d, f),
                        w_up=_take(tensors, f"{prefix}.ffn.w_up", d, f),
                        w_down=_take(tensors, f"{prefix}.ffn.w_down", f, d))
        return TransformerBlockParams(
            attn=attn, ffn=ffn, attn_gain=_take(tensors, f"{prefix}.attn_gain", d),
            ffn_gain=_take(tensors, f"{prefix}.ffn_gain", d))
    if desc["type"] != "memory":
        raise CheckpointError(f"unknown block type {desc['type']!r}")
    lk = MemoryLayerKind(**desc["toggles"])
    _require(all(type(v) is bool for v in dataclasses.astuple(lk)[1:]),
             f"{prefix} toggles are not booleans")
    # older files carry selection-route fields in cfg too; they are ignored
    cfg = MemoryConfig(**{key: _size(desc["cfg"][key], f"{prefix} cfg.{key}")
                          for key in ("heads", "n", "k", "d")})
    _require((cfg.heads, cfg.d) == (heads, d), f"{prefix} memory sizes differ from the model's")
    attn = _load_attention(tensors, f"{prefix}.attn", d, heads, rope_base,
                           lk.output_projection)
    n, N, d_h, d_p = cfg.n, cfg.N, cfg.d_h, cfg.d_p
    if lk.kind == "linear":
        bank = LinearMemoryBank(w_q=_take(tensors, f"{prefix}.bank.w_q", d, d),
                                keys=_take(tensors, f"{prefix}.bank.keys", heads, N, d_h),
                                values=_take(tensors, f"{prefix}.bank.values", N, d))
    else:
        pk = ProductKeyBank(k_row=_take(tensors, f"{prefix}.bank.pk.k_row", heads, n, d_p),
                            k_col=_take(tensors, f"{prefix}.bank.pk.k_col", heads, n, d_p))
        if lk.kind == "pkm":
            bank = PkmBank(w_q=_take(tensors, f"{prefix}.bank.w_q", d, d), pk=pk,
                           values=_take(tensors, f"{prefix}.bank.values", N, d))
        else:
            values = ValueBank(
                v_base=_take(tensors, f"{prefix}.bank.values.v_base", N, d_h),
                w_heads=_take(tensors, f"{prefix}.bank.values.w_heads", heads, d_h, d_h))
            bank = HeadwiseBank(pk=pk, values=values)
    query_bn = None
    if lk.query_batchnorm:
        query_bn = BatchNorm(
            gamma=_take(tensors, f"{prefix}.query_bn.gamma", d),
            beta=_take(tensors, f"{prefix}.query_bn.beta", d),
            running_mean=_take(tensors, f"{prefix}.query_bn.running_mean", d),
            running_var=_take(tensors, f"{prefix}.query_bn.running_var", d),
            momentum=_positive(desc.get("bn_momentum", 0.1), f"{prefix} bn_momentum", 1),
            eps=_positive(desc.get("bn_eps", 1e-5), f"{prefix} bn_eps"))
    query_ln_gain = (_take(tensors, f"{prefix}.query_ln_gain", d)
                     if lk.query_layernorm else None)
    return MemoryBlockParams(kind=lk, cfg=cfg, attn=attn,
                             norm_gain=_take(tensors, f"{prefix}.norm_gain", d),
                             bank=bank, query_bn=query_bn,
                             query_ln_gain=query_ln_gain)


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
        return _build_model(header, blob[header_end:])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"malformed header: {type(e).__name__} {e}") from e


def _build_model(header: dict, payload: bytes):
    tensors = _read_tensors(header, payload)
    info = header["model"]
    sizes = {key: _size(info[key], f"model.{key}", 0 if key == "base_depth" else 1)
             for key in ("vocab", "d", "heads", "d_ff", "base_depth")}
    blocks = [_load_block(desc, tensors, f"blocks.{i}", sizes)
              for i, desc in enumerate(info["blocks"])]
    vocab, d = sizes["vocab"], sizes["d"]
    model = ModelSpec(**sizes, embed=_take(tensors, "embed", vocab, d),
                      unembed=_take(tensors, "unembed", d, vocab),
                      final_gain=_take(tensors, "final_gain", d),
                      blocks=blocks, trainable=list(info["trainable"]))
    if tensors:
        raise CheckpointError(f"unused tensors in file: {sorted(tensors)[:3]}")
    return model, header["config"]
