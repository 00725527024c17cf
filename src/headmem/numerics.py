"""Dense kernels shared by every layer.

Tensors are plain numpy arrays (row-major, float32 by default). A global
precision switch flips newly created parameters and activations to float64,
which the gradient verifier relies on. All ops here are bit-deterministic for
a fixed precision and input: no threading knobs, no data-dependent branching,
and top-k breaks ties by ascending index so equal scores never reorder.
"""

from __future__ import annotations

import contextlib

import numpy as np


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


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax; rows of the result sum to 1."""
    if x.shape[axis] == 0:
        raise ValueError("softmax over an empty axis")
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def topk(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of the k largest entries along the last axis.

    Descending by score; exact ties resolve to the ascending index (stable
    argsort over negated scores), so the result is a deterministic function
    of the input. Works on any leading batch shape.
    """
    c = scores.shape[-1]
    if not 1 <= k <= c:
        raise ValueError(f"k={k} out of range for axis of size {c}")
    order = np.argsort(-scores, axis=-1, kind="stable")
    idx = order[..., :k]
    vals = np.take_along_axis(scores, idx, axis=-1)
    return idx, vals
