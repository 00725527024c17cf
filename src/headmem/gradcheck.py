"""Central finite-difference verification of the hand-derived backwards.

Every check builds a small float64 scenario, computes analytic gradients,
then perturbs sampled coordinates by +-h and compares (f(x+h) - f(x-h)) / 2h
against the analytic value. Relative error uses a small floor so coordinates
whose true gradient is near zero are compared absolutely:

    rel = |analytic - numeric| / max(|analytic|, |numeric|, 1e-4)

Selection routing is piecewise constant; with h = 1e-5 and generic random
inputs a perturbation never crosses a selection boundary, so the comparison
is exact differentiation territory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .gradients import (
    GradStore,
    attention_backward,
    ffn_backward,
    lm_loss_backward,
    memory_block_backward,
    model_backward,
    rms_norm_backward,
    softmax_backward,
    transformer_block_backward,
)
from .layers import MemoryLayerKind, memory_block_forward
from .memory import MemoryConfig
from .model import (
    init_attention,
    init_base_model,
    init_transformer_block,
    model_forward,
    named_params,
)
from .numerics import make_rng, precision, softmax
from .transformer import (
    FfnParams,
    causal_attention,
    ffn_forward,
    lm_loss,
    rms_norm_fwd,
    transformer_block_forward,
)
from .upscale import PlacementPolicy, UpscalePlan, build_memory_dus, init_memory_block

DEFAULT_H = 1e-5
DEFAULT_TOL = 1e-4
_REL_FLOOR = 1e-4


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    coords: int
    worst_param: str
    worst_coord: tuple
    params: tuple = ()  # names of every parameter that contributed coords

    def ok(self, tol: float = DEFAULT_TOL) -> bool:
        return self.max_rel_err < tol


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), _REL_FLOOR)


def central_difference(loss_fn, arr: np.ndarray, coord: tuple, h: float) -> float:
    orig = arr[coord]
    arr[coord] = orig + h
    lp = loss_fn()
    arr[coord] = orig - h
    lm = loss_fn()
    arr[coord] = orig
    return (lp - lm) / (2.0 * h)


def _sample_coords(rng, shape, count: int) -> list[tuple]:
    size = int(np.prod(shape))
    if size <= count:
        picks = np.arange(size)
    else:
        picks = rng.choice(size, size=count, replace=False)
    return [tuple(int(v) for v in np.unravel_index(p, shape)) for p in picks]


def _fd_compare(name: str, loss_fn, targets, rng=None,
                coords_per_param: int | None = None) -> CheckResult:
    """targets: iterable of (param name, array, analytic gradient array)."""
    max_rel, worst_param, worst_coord, total = 0.0, "", (), 0
    seen = []
    for pname, arr, analytic in targets:
        seen.append(pname)
        if coords_per_param is None:
            coords = [tuple(int(v) for v in c) for c in np.ndindex(arr.shape)]
        else:
            coords = _sample_coords(rng, arr.shape, coords_per_param)
        for c in coords:
            numeric = central_difference(loss_fn, arr, c, DEFAULT_H)
            r = rel_err(float(analytic[c]), numeric)
            total += 1
            if r > max_rel:
                max_rel, worst_param, worst_coord = r, pname, c
    return CheckResult(name, max_rel, total, worst_param, worst_coord,
                       params=tuple(seen))


def _walk_targets(node, grads: GradStore, prefix: str) -> list:
    """Every parameter the model walk yields for node, with its analytic
    gradient from a backward that named node's tensors under prefix."""
    return [(path, arr, grads[f"{prefix}.{path}"]) for path, arr in named_params(node)]


def _fill_value_tables(node, rng, scale: float) -> None:
    """Nonzero value tables (zero at init), so retrieval carries gradient
    into the tables and the weights that read them."""
    for path, arr in named_params(node):
        if path.endswith(("values", "v_base")):
            arr[...] = scale * rng.standard_normal(arr.shape)


def _check_block(name: str, forward, backward, p, x: np.ndarray, r: np.ndarray,
                 x_name: str = "x") -> CheckResult:
    """All coordinates of x and of every parameter the walk yields for p,
    under the loss sum(forward(x, p) * r); backward has the signature of
    the library's block backwards."""
    loss = lambda: float(np.sum(forward(x, p)[0] * r))
    _, cache = forward(x, p)
    grads = GradStore()
    dx = backward(r, cache, p, grads, "p")
    return _fd_compare(name, loss, [(x_name, x, dx)] + _walk_targets(p, grads, "p"))


# ---------------------------------------------------------------------------
# layer-level checks (all coordinates, float64)

def check_rms_norm(seed: int = 0) -> CheckResult:
    rng = make_rng(seed)
    x = rng.standard_normal((5, 7))
    gain = rng.standard_normal(7)
    r = rng.standard_normal((5, 7))
    loss = lambda: float(np.sum(rms_norm_fwd(x, gain)[0] * r))
    _, cache = rms_norm_fwd(x, gain)
    dx, dgain = rms_norm_backward(r, cache)
    return _fd_compare("rms_norm", loss, [("x", x, dx), ("gain", gain, dgain)])


def check_softmax(seed: int = 0) -> CheckResult:
    rng = make_rng(seed)
    x = rng.standard_normal((4, 9))
    r = rng.standard_normal((4, 9))
    loss = lambda: float(np.sum(softmax(x) * r))
    y = softmax(x)
    dx = softmax_backward(y, r)
    return _fd_compare("softmax", loss, [("x", x, dx)])


def check_attention(seed: int = 0, with_projection: bool = True) -> CheckResult:
    rng = make_rng(seed)
    with precision("f64"):
        p = init_attention(16, 2, rng, with_projection=with_projection)
    xn = rng.standard_normal((6, 16))
    r = rng.standard_normal((6, 16))
    name = "attention_projected" if with_projection else "attention_raw_heads"
    return _check_block(name, causal_attention, attention_backward, p, xn, r, x_name="xn")


def check_ffn(seed: int = 0) -> CheckResult:
    rng = make_rng(seed)
    p = FfnParams(w_gate=rng.standard_normal((10, 14)) * 0.3,
                  w_up=rng.standard_normal((10, 14)) * 0.3,
                  w_down=rng.standard_normal((14, 10)) * 0.3)
    z = rng.standard_normal((5, 10))
    r = rng.standard_normal((5, 10))
    return _check_block("ffn", ffn_forward, ffn_backward, p, z, r, x_name="z")


def check_transformer_block(seed: int = 0) -> CheckResult:
    rng = make_rng(seed)
    with precision("f64"):
        p = init_transformer_block(16, 2, 24, rng)
    x = rng.standard_normal((5, 16))
    r = rng.standard_normal((5, 16))
    return _check_block("transformer_block", transformer_block_forward,
                        transformer_block_backward, p, x, r)


def _memory_block_fixture(kind: str, seed: int):
    rng = make_rng(seed)
    with precision("f64"):
        cfg = MemoryConfig(heads=2, n=6, k=3, d=12)
        source = init_transformer_block(12, 2, 16, rng)
        p = init_memory_block(source, MemoryLayerKind(kind), cfg, rng)
    _fill_value_tables(p, rng, 1.0)
    return p, cfg, rng


def check_memory_block(kind: str, seed: int = 0, batch: int = 1) -> CheckResult:
    """batch > 1 stacks that many 5-token sequences into one call, which
    exercises per-sequence attention over token rows."""
    p, cfg, rng = _memory_block_fixture(kind, seed)
    x = rng.standard_normal((batch * 5, cfg.d))
    r = rng.standard_normal((batch * 5, cfg.d))
    name = f"memory_block_{kind}" + (f"_batch{batch}" if batch > 1 else "")
    return _check_block(name, partial(memory_block_forward, seq_len=5),
                        memory_block_backward, p, x, r)


def check_full_model(kind: str = "headwise", seed: int = 0,
                     coords_per_param: int = 6, batch: int = 0) -> CheckResult:
    """Loss-level check over an expanded model; samples coordinates from
    every parameter tensor, memory tables and attention and FFN included.
    batch 0 feeds one 9-token sequence [9]; batch B >= 1 feeds [B, 9]."""
    rng = make_rng(seed)
    with precision("f64"):
        base = init_base_model(vocab=41, d=32, heads=4, d_ff=48, depth=2, rng=rng)
        cfg = MemoryConfig(heads=4, n=8, k=3, d=32)
        plan = UpscalePlan(policy=PlacementPolicy("distributed", 2, 2),
                           insert_kind="memory_block",
                           memory_kind=MemoryLayerKind(kind),
                           memory_cfg=cfg, seed=seed + 1)
        model = build_memory_dus(base, plan)
    _fill_value_tables(model, rng, 0.1)
    shape = (batch, 9) if batch else (9,)
    tokens = rng.integers(0, model.vocab, shape)
    targets_tok = rng.integers(0, model.vocab, shape).reshape(-1)

    def loss():
        logits, _ = model_forward(tokens, model, training=True)
        return lm_loss(logits.reshape(-1, model.vocab), targets_tok)

    logits, caches = model_forward(tokens, model, training=True, collect=True)
    logits = logits.reshape(-1, model.vocab)
    grads = model_backward(lm_loss_backward(logits, targets_tok), caches, model,
                           GradStore())
    fd_rng = make_rng(seed + 7)
    targets = [(path, arr, grads[path]) for path, arr in named_params(model)]
    name = f"full_model_{kind}" + (f"_batch{batch}" if batch else "")
    return _fd_compare(name, loss, targets, rng=fd_rng, coords_per_param=coords_per_param)


LAYER_CHECKS = {
    "rms_norm": check_rms_norm,
    "softmax": check_softmax,
    "attention_projected": partial(check_attention, with_projection=True),
    "attention_raw_heads": partial(check_attention, with_projection=False),
    "ffn": check_ffn,
    "transformer_block": check_transformer_block,
    "memory_block_linear": partial(check_memory_block, "linear"),
    "memory_block_pkm": partial(check_memory_block, "pkm"),
    "memory_block_headwise": partial(check_memory_block, "headwise"),
    "memory_block_linear_batch3": partial(check_memory_block, "linear", batch=3),
    "memory_block_pkm_batch3": partial(check_memory_block, "pkm", batch=3),
    "memory_block_headwise_batch3": partial(check_memory_block, "headwise", batch=3),
    "full_model_linear": partial(check_full_model, "linear"),
    "full_model_pkm": partial(check_full_model, "pkm"),
    "full_model_headwise": partial(check_full_model, "headwise"),
    "full_model_headwise_batch3": partial(check_full_model, "headwise", batch=3),
}


def run_gradcheck(seed: int = 0, tol: float = DEFAULT_TOL,
                  checks=None) -> list[CheckResult]:
    """Run the full registry (checks None) or the registered names in
    checks; returns one result per check."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be a finite number > 0, got {tol}")
    names = list(LAYER_CHECKS) if checks is None else checks
    unknown = [n for n in names if n not in LAYER_CHECKS]
    if unknown:
        raise ValueError(f"unknown gradcheck names: {', '.join(unknown)}")
    return [LAYER_CHECKS[n](seed=seed) for n in names]


def format_report(results: list[CheckResult], tol: float = DEFAULT_TOL) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.ok(tol) else "FAIL"
        lines.append(
            f"{status} {res.name}: max rel err {res.max_rel_err:.3e} over "
            f"{res.coords} coords (worst: {res.worst_param}{list(res.worst_coord)})")
    return "\n".join(lines)
