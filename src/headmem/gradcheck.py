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

import numpy as np

from .gradients import (
    GradStore,
    attention_backward,
    batchnorm_backward,
    ffn_backward,
    lm_loss_backward,
    memory_block_backward,
    model_backward,
    rms_norm_backward,
    softmax_backward,
    transformer_block_backward,
)
from .layers import (
    MemoryLayerKind,
    batchnorm_query,
    init_batchnorm,
    memory_block_forward,
)
from .memory import MemoryConfig
from .model import init_base_model, model_forward, named_params
from .numerics import make_rng, precision, rms_norm, softmax
from .transformer import (
    FfnParams,
    causal_attention,
    ffn_forward,
    lm_loss,
    rms_norm_fwd,
    transformer_block_forward,
)
from .upscale import PlacementPolicy, UpscalePlan, build_memory_dus

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


def _fd_compare(name: str, loss_fn, targets, h: float, rng=None,
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
            numeric = central_difference(loss_fn, arr, c, h)
            r = rel_err(float(analytic[c]), numeric)
            total += 1
            if r > max_rel:
                max_rel, worst_param, worst_coord = r, pname, c
    return CheckResult(name, max_rel, total, worst_param, worst_coord,
                       params=tuple(seen))


# ---------------------------------------------------------------------------
# layer-level checks (all coordinates, float64)

def check_rms_norm(seed: int = 0, h: float = DEFAULT_H) -> CheckResult:
    rng = make_rng(seed)
    x = rng.standard_normal((5, 7))
    gain = rng.standard_normal(7)
    r = rng.standard_normal((5, 7))
    loss = lambda: float(np.sum(rms_norm(x, gain) * r))
    _, cache = rms_norm_fwd(x, gain)
    dx, dgain = rms_norm_backward(r, cache)
    return _fd_compare("rms_norm", loss, [("x", x, dx), ("gain", gain, dgain)], h)


def check_softmax(seed: int = 0, h: float = DEFAULT_H) -> CheckResult:
    rng = make_rng(seed)
    x = rng.standard_normal((4, 9))
    r = rng.standard_normal((4, 9))
    loss = lambda: float(np.sum(softmax(x, axis=-1) * r))
    y = softmax(x, axis=-1)
    dx = softmax_backward(y, r)
    return _fd_compare("softmax", loss, [("x", x, dx)], h)


def check_batchnorm(seed: int = 0, h: float = DEFAULT_H,
                    training: bool = True) -> CheckResult:
    rng = make_rng(seed)
    with precision("f64"):
        bn = init_batchnorm(6)
        bn.gamma[...] = rng.standard_normal(6)
        bn.beta[...] = rng.standard_normal(6)
        bn.running_mean[...] = rng.standard_normal(6) * 0.1
        bn.running_var[...] = 1.0 + 0.1 * rng.random(6)
    x = rng.standard_normal((8, 6))
    r = rng.standard_normal((8, 6))

    def loss():
        out, _ = batchnorm_query(x, bn, training)
        return float(np.sum(out * r))

    _, cache = batchnorm_query(x, bn, training)
    dx, dgamma, dbeta = batchnorm_backward(r, cache)
    name = "batchnorm_train" if training else "batchnorm_eval"
    return _fd_compare(name, loss, [("x", x, dx), ("gamma", bn.gamma, dgamma),
                                    ("beta", bn.beta, dbeta)], h)


def check_attention(seed: int = 0, h: float = DEFAULT_H,
                    project_output: bool = True) -> CheckResult:
    from .model import init_attention
    rng = make_rng(seed)
    with precision("f64"):
        p = init_attention(16, 2, rng, with_projection=project_output)
    xn = rng.standard_normal((6, 16))
    r = rng.standard_normal((6, 16))

    def loss():
        out, _ = causal_attention(xn, p, project_output=project_output)
        return float(np.sum(out * r))

    _, cache = causal_attention(xn, p, project_output=project_output)
    grads = GradStore()
    dxn = attention_backward(r, cache, p, grads, "attn")
    targets = [("xn", xn, dxn), ("w_q", p.w_q, grads["attn.w_q"]),
               ("w_k", p.w_k, grads["attn.w_k"]), ("w_v", p.w_v, grads["attn.w_v"])]
    if project_output:
        targets.append(("w_o", p.w_o, grads["attn.w_o"]))
    name = "attention_projected" if project_output else "attention_raw_heads"
    return _fd_compare(name, loss, targets, h)


def check_ffn(seed: int = 0, h: float = DEFAULT_H) -> CheckResult:
    rng = make_rng(seed)
    p = FfnParams(w_gate=rng.standard_normal((10, 14)) * 0.3,
                  w_up=rng.standard_normal((10, 14)) * 0.3,
                  w_down=rng.standard_normal((14, 10)) * 0.3)
    z = rng.standard_normal((5, 10))
    r = rng.standard_normal((5, 10))

    def loss():
        out, _ = ffn_forward(z, p)
        return float(np.sum(out * r))

    _, cache = ffn_forward(z, p)
    grads = GradStore()
    dz = ffn_backward(r, cache, p, grads, "ffn")
    return _fd_compare("ffn", loss, [
        ("z", z, dz), ("w_gate", p.w_gate, grads["ffn.w_gate"]),
        ("w_up", p.w_up, grads["ffn.w_up"]), ("w_down", p.w_down, grads["ffn.w_down"]),
    ], h)


def check_transformer_block(seed: int = 0, h: float = DEFAULT_H) -> CheckResult:
    from .model import init_transformer_block
    rng = make_rng(seed)
    with precision("f64"):
        p = init_transformer_block(16, 2, 24, rng)
    x = rng.standard_normal((5, 16))
    r = rng.standard_normal((5, 16))

    def loss():
        out, _ = transformer_block_forward(x, p)
        return float(np.sum(out * r))

    _, cache = transformer_block_forward(x, p)
    grads = GradStore()
    dx = transformer_block_backward(r, cache, p, grads, "b")
    targets = [("x", x, dx)]
    targets += [(k, arr, grads[f"b.{k}"]) for k, arr in (
        ("attn.w_q", p.attn.w_q), ("attn.w_o", p.attn.w_o),
        ("attn_gain", p.attn_gain), ("ffn.w_gate", p.ffn.w_gate),
        ("ffn.w_down", p.ffn.w_down), ("ffn_gain", p.ffn_gain))]
    return _fd_compare("transformer_block", loss, targets, h)


def _memory_block_fixture(kind: str, toggles: MemoryLayerKind | None, seed: int):
    from .upscale import _init_memory_block
    from .model import init_transformer_block
    rng = make_rng(seed)
    with precision("f64"):
        cfg = MemoryConfig(heads=2, n=6, k=3, d=12, fused_threshold=3)
        source = init_transformer_block(12, 2, 16, rng)
        lk = toggles if toggles is not None else MemoryLayerKind.defaults(kind)
        p = _init_memory_block(source, lk, cfg, rng)
        # nonzero values so value-table and weight gradients are exercised
        if kind == "headwise":
            p.bank.values.v_base[...] = rng.standard_normal(p.bank.values.v_base.shape)
        else:
            p.bank.values[...] = rng.standard_normal(p.bank.values.shape)
    return p, cfg, rng


def check_memory_block(kind: str, seed: int = 0, h: float = DEFAULT_H,
                       toggles: MemoryLayerKind | None = None,
                       name: str | None = None, batch: int = 1) -> CheckResult:
    """batch > 1 stacks that many 5-token sequences into one call, which
    exercises per-sequence attention and query batchnorm over token rows."""
    p, cfg, rng = _memory_block_fixture(kind, toggles, seed)
    x = rng.standard_normal((batch * 5, cfg.d))
    r = rng.standard_normal((batch * 5, cfg.d))

    def loss():
        out, _ = memory_block_forward(x, p, training=True, seq_len=5)
        return float(np.sum(out * r))

    _, cache = memory_block_forward(x, p, training=True, seq_len=5)
    grads = GradStore()
    dx = memory_block_backward(r, cache, p, grads, "m")
    targets = [("x", x, dx), ("norm_gain", p.norm_gain, grads["m.norm_gain"]),
               ("attn.w_q", p.attn.w_q, grads["m.attn.w_q"]),
               ("attn.w_v", p.attn.w_v, grads["m.attn.w_v"])]
    if kind == "headwise":
        targets += [("k_row", p.bank.pk.k_row, grads["m.bank.pk.k_row"]),
                    ("k_col", p.bank.pk.k_col, grads["m.bank.pk.k_col"]),
                    ("v_base", p.bank.values.v_base, grads["m.bank.values.v_base"]),
                    ("w_heads", p.bank.values.w_heads, grads["m.bank.values.w_heads"])]
    else:
        targets += [("w_q", p.bank.w_q, grads["m.bank.w_q"]),
                    ("values", p.bank.values, grads["m.bank.values"])]
        if kind == "pkm":
            targets += [("k_row", p.bank.pk.k_row, grads["m.bank.pk.k_row"]),
                        ("k_col", p.bank.pk.k_col, grads["m.bank.pk.k_col"])]
        else:
            targets += [("keys", p.bank.keys, grads["m.bank.keys"])]
        if p.query_bn is not None:
            targets += [("bn.gamma", p.query_bn.gamma, grads["m.query_bn.gamma"]),
                        ("bn.beta", p.query_bn.beta, grads["m.query_bn.beta"])]
    return _fd_compare(name or f"memory_block_{kind}", loss, targets, h)


def check_full_model(kind: str = "headwise", seed: int = 0, h: float = DEFAULT_H,
                     coords_per_param: int = 6, batch: int = 0) -> CheckResult:
    """Loss-level check over an expanded model; samples coordinates from
    every parameter tensor, memory tables and attention and FFN included.
    batch 0 feeds one 9-token sequence [9]; batch B >= 1 feeds [B, 9]."""
    rng = make_rng(seed)
    with precision("f64"):
        base = init_base_model(vocab=41, d=32, heads=4, d_ff=48, depth=2, rng=rng)
        cfg = MemoryConfig(heads=4, n=8, k=3, d=32, fused_threshold=4)
        plan = UpscalePlan(policy=PlacementPolicy("distributed", 2, 2),
                           insert_kind="memory_block",
                           memory_kind=MemoryLayerKind.defaults(kind),
                           memory_cfg=cfg, seed=seed + 1)
        model = build_memory_dus(base, plan)
    # seed the tables so retrieval carries gradient
    for path, arr in named_params(model):
        if arr.size and (path.endswith("v_base") or path.endswith(".values")):
            arr[...] = 0.1 * rng.standard_normal(arr.shape)
    shape = (batch, 9) if batch else (9,)
    tokens = rng.integers(0, model.vocab, shape)
    targets_tok = rng.integers(0, model.vocab, shape).reshape(-1)

    def loss():
        logits, _ = model_forward(tokens, model, training=True)
        return lm_loss(logits.reshape(-1, model.vocab), targets_tok)

    logits, caches = model_forward(tokens, model, training=True, collect=True)
    logits = logits.reshape(-1, model.vocab)
    grads = model_backward(lm_loss_backward(logits, targets_tok), caches, model)
    fd_rng = make_rng(seed + 7)
    targets = [(path, arr, grads[path]) for path, arr in named_params(model)]
    name = f"full_model_{kind}" + (f"_batch{batch}" if batch else "")
    return _fd_compare(name, loss, targets, h,
                       rng=fd_rng, coords_per_param=coords_per_param)


LAYER_CHECKS = {
    "rms_norm": check_rms_norm,
    "softmax": check_softmax,
    "batchnorm_train": lambda seed=0, h=DEFAULT_H: check_batchnorm(seed, h, True),
    "batchnorm_eval": lambda seed=0, h=DEFAULT_H: check_batchnorm(seed, h, False),
    "attention_projected": lambda seed=0, h=DEFAULT_H: check_attention(seed, h, True),
    "attention_raw_heads": lambda seed=0, h=DEFAULT_H: check_attention(seed, h, False),
    "ffn": check_ffn,
    "transformer_block": check_transformer_block,
    "memory_block_linear": lambda seed=0, h=DEFAULT_H: check_memory_block("linear", seed, h),
    "memory_block_pkm": lambda seed=0, h=DEFAULT_H: check_memory_block("pkm", seed, h),
    "memory_block_headwise": lambda seed=0, h=DEFAULT_H: check_memory_block("headwise", seed, h),
    "memory_block_headwise_all_toggles": lambda seed=0, h=DEFAULT_H: check_memory_block(
        "headwise", seed, h,
        toggles=MemoryLayerKind("headwise", query_batchnorm=True, query_layernorm=True,
                                internal_residual=True, output_projection=True),
        name="memory_block_headwise_all_toggles"),
    "memory_block_linear_batch3": lambda seed=0, h=DEFAULT_H: check_memory_block(
        "linear", seed, h, name="memory_block_linear_batch3", batch=3),
    "memory_block_pkm_batch3": lambda seed=0, h=DEFAULT_H: check_memory_block(
        "pkm", seed, h, name="memory_block_pkm_batch3", batch=3),
    "memory_block_headwise_batch3": lambda seed=0, h=DEFAULT_H: check_memory_block(
        "headwise", seed, h, name="memory_block_headwise_batch3", batch=3),
    "full_model_headwise": lambda seed=0, h=DEFAULT_H: check_full_model("headwise", seed, h),
    "full_model_headwise_batch3": lambda seed=0, h=DEFAULT_H: check_full_model(
        "headwise", seed, h, batch=3),
}


def run_gradcheck(seed: int = 0, h: float = DEFAULT_H, tol: float = DEFAULT_TOL,
                  checks=None) -> list[CheckResult]:
    """Run the full registry, a subset of registered names, or a custom
    dict of name -> check fn; returns one result per check."""
    if checks is None:
        registry = LAYER_CHECKS
    elif isinstance(checks, dict):
        registry = checks
    else:
        unknown = [n for n in checks if n not in LAYER_CHECKS]
        if unknown:
            raise ValueError(f"unknown gradcheck names: {', '.join(unknown)}")
        registry = {n: LAYER_CHECKS[n] for n in checks}
    return [fn(seed=seed, h=h) for fn in registry.values()]


def format_report(results: list[CheckResult], tol: float = DEFAULT_TOL) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.ok(tol) else "FAIL"
        lines.append(
            f"{status} {res.name}: max rel err {res.max_rel_err:.3e} over "
            f"{res.coords} coords (worst: {res.worst_param}{list(res.worst_coord)})")
    return "\n".join(lines)
