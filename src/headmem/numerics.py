"""Dense kernels shared by every layer.

Tensors are plain numpy arrays (row-major, float32 by default). A global
precision switch flips newly created parameters and activations to float64,
which the gradient verifier relies on. All ops here are bit-deterministic for
a fixed precision and input: no threading knobs, and top-k breaks ties by
ascending position so equal scores never reorder. Products that contract
over token rows or positions run in CHUNK-wide pieces (chunked_matmul), so
their bits do not depend on the BLAS thread count either. Top-k over
float32 is one SIMD np.sort of packed uint64 words in one buffer
(packed_topk): an order-reversing map of the score, written a block of
rows at a time into each high 32-bit word, above a tie-break word (the
position, for topk) in the low one; the top k read back from the sorted
words. float64 takes a stable np.argsort of the negated scores.

Importing this module on glibc makes one mallopt call (_keep_freed_heap), so
the memory one forward frees serves the next instead of going back to the
kernel; glibc's own MALLOC_*_ variables or glibc.malloc tunables, when set,
take precedence, and off glibc nothing happens. Kernels on the prefill path
write into buffers they own (topk's packed keys, the attention softmax)
rather than allocating one array per operation.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys

import numpy as np


CHUNK = 128  # width of every contraction over token rows or positions

# glibc mallopt parameters (malloc.h) and the values _keep_freed_heap sets
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20  # the largest glibc accepts on 64-bit hosts
TRIM_THRESHOLD = 128 << 20


def _keep_freed_heap() -> None:
    """Keep freed heap memory in the process for the next allocation.

    glibc returns the free top of the heap to the kernel once it exceeds
    M_TRIM_THRESHOLD, and serves blocks above a self-adjusting mmap
    threshold by fresh mappings; the threshold only rises as large mapped
    blocks are freed. In a process that has freed none, each 512-token
    prefill faulted its temporaries back in (about 900 minor faults a
    request); with a fixed 32 MiB mmap threshold and a 128 MiB trim
    threshold it takes none. Skipped off glibc and when the
    environment already sets glibc's MALLOC_*_ variables or a glibc.malloc
    tunable, so the user's own setting wins.
    """
    env = os.environ
    if (any(var.startswith("MALLOC_") and var.endswith("_") for var in env)
            or "glibc.malloc." in env.get("GLIBC_TUNABLES", "")):
        return
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):  # not glibc
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_keep_freed_heap()


class NumericsError(RuntimeError):
    """A computation produced NaN or Inf (hard abort, never silent)."""


_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)
_MODES = {"f32": _F32, "f64": _F64}

_default_dtype = _F32


def set_default_dtype(mode: str) -> None:
    """Select the creation dtype for parameters and activations: 'f32' or 'f64'."""
    global _default_dtype
    if mode not in _MODES:
        raise ValueError(f"unknown precision mode {mode!r}, expected 'f32' or 'f64'")
    _default_dtype = _MODES[mode]


def default_dtype() -> np.dtype:
    return _default_dtype


@contextlib.contextmanager
def precision(mode: str):
    """Context manager form of set_default_dtype, restoring the previous mode."""
    global _default_dtype
    before = _default_dtype
    set_default_dtype(mode)
    try:
        yield
    finally:
        _default_dtype = before


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 stream. Same seed, same stream, on every platform."""
    return np.random.default_rng(seed)


def gaussian(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """N(0, std^2) init in the current default dtype."""
    draw = rng.standard_normal(shape)
    # in place: one array per tensor, not three; a Python float keeps a
    # float32 draw in float32 arithmetic
    draw *= float(std)
    return draw.astype(_default_dtype, copy=False)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=_default_dtype)


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=_default_dtype)


def assert_finite(x: np.ndarray, what: str = "tensor") -> None:
    if not np.isfinite(x).all():
        raise NumericsError(f"{what} contains NaN/Inf")


def softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Max-subtracted softmax over the last axis; rows of the result sum to
    1. out=x computes in place, bit for bit as into a fresh array."""
    if x.shape[-1] == 0:
        raise ValueError("softmax over an empty axis")
    e = np.subtract(x, np.max(x, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def chunked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with the contracted axis summed in CHUNK-wide pieces, left to
    right. An axis of at most CHUNK is one plain product, bit for bit.
    With OpenBLAS, one product over 400-464 rows gave different bits at one
    and at two threads; CHUNK-wide pieces gave equal bits at every length."""
    out = a[..., :CHUNK] @ b[..., :CHUNK, :]
    for j in range(CHUNK, a.shape[-1], CHUNK):
        out += a[..., j:j + CHUNK] @ b[..., j:j + CHUNK, :]
    return out


# index of a uint64's high 32-bit word among its two words in memory
_HIGH = 1 if sys.byteorder == "little" else 0


def _flip(b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """b ^ ~((b >> 31) | sign bit) into out: float32 bits to keys that
    ascend, as uint32, while the scores descend, and (an involution) back."""
    t = np.right_shift(b, 31)
    t |= np.int32(-0x80000000)
    np.invert(t, out=t)
    return np.bitwise_xor(b, t, out=out)


_KEY_BLOCK = 1 << 14  # scores of each array per block of _write_keys


def _write_keys(scores, high: np.ndarray) -> None:
    """Write the key of each score (plus 0.0, so that -0 ties +0; NaN keys
    are -1, the largest as uint32) into high [len(scores), *shape], a block
    of leading rows at a time: at most _KEY_BLOCK scores of each array go
    into one buffer that every block reuses, and are flipped from there."""
    lead = high.shape[1]
    step = max(1, _KEY_BLOCK * lead // max(scores[0].size, 1))
    buf = np.empty((len(scores), min(step, lead)) + high.shape[2:], np.float32)
    for r0 in range(0, lead, step):
        h = high[:, r0:r0 + step]
        folded = buf[:, :h.shape[1]]
        for s, f in zip(scores, folded):
            np.add(s[r0:r0 + step], np.float32(0.0), out=f)
        _flip(folded.view(np.int32), h)
        h[np.isnan(folded)] = -1


def packed_topk(scores, low, k: int):
    """(low words, scores) of the k largest scores of each array in scores
    along its last axis, by one sort of packed uint64 words.

    scores: float32 arrays of one shape with at least two axes; they stack
    on a new first axis of the packed words and of both results. Each word
    holds the key of its score in the high half, which ascends as the
    score descends (NaN last), and low, broadcast to the scores' shape, in
    the low half, which ranks equal scores. The keys go straight into the
    high halves, a block of rows at a time (_write_keys), so the scores
    are never copied whole; a short input is one block. Both results are
    C-contiguous and cover the sorted words' first k columns: the low
    words as uint32, and the scores read back from the keys, exact for
    every non-NaN score (-0 reads back as +0).
    """
    packed = np.empty((len(scores),) + scores[0].shape, np.uint64)
    words = packed.view(np.uint32).reshape(packed.shape + (2,))
    high, packed_low = words[..., _HIGH].view(np.int32), words[..., 1 - _HIGH]
    _write_keys(scores, high)
    packed_low[...] = low
    packed.sort(axis=-1)
    top = high[..., :k]
    vals = _flip(top, np.empty(top.shape, np.int32)).view(np.float32)
    return packed_low[..., :k].copy(), vals  # a copy frees the packed words


def topk(scores: np.ndarray, k: int):
    """(positions, values) of the k largest entries along the last axis.

    Descending by score, exact ties to the ascending position:
    np.lexsort((positions, -scores)) cut to k. float32 packs a uint64 per
    entry, descending key in the high word and position in the low word;
    float64 takes a stable np.argsort of -scores. The values are gathered
    from scores, so they keep its bits, -0 and NaN payloads included. Both
    results are C-contiguous; scores is left as it is.
    """
    c = scores.shape[-1]
    if not 1 <= k <= c:
        raise ValueError(f"k={k} out of range for axis of size {c}")
    if scores.dtype == np.float32 and c <= 1 << 32:
        rows = scores if scores.ndim > 1 else scores[None]
        low, _ = packed_topk((rows,), np.arange(c, dtype=np.uint32), k)
        order = low[0].astype(np.intp)
    else:
        order = np.argsort(-scores, axis=-1, kind="stable")[..., :k]
    # one flat gather: position j of row r is element r * c + j (a strided
    # scores is copied flat first)
    order = np.ascontiguousarray(order).reshape(-1, k)
    flat = order + np.arange(0, order.shape[0] * c, c)[:, None]
    shape = scores.shape[:-1] + (k,)
    return order.reshape(shape), scores.reshape(-1)[flat].reshape(shape)
