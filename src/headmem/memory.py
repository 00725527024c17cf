"""Product-key retrieval core.

Each attention head owns two small sub-key banks of n keys. A head query of
width d_h splits into a row half and a column half (d_p = d_h / 2 each); the
additive pair score sigma(i, j) = S_row[i] + S_col[j] ranges over an n x n
grid of N = n^2 composite slots addressed by the flat id i * n + j.

Every layer scores all heads in one call and selects with one route,
two_stage_topk: the top m = min(k + 1, n) ranks of each axis, then the top
k of the candidate sums, ranked by (descending rounded sum, ascending flat
id) as a scan of the whole grid ranks them. Let r, c be the axis scores in
descending order. Sums round monotonically, so the pair of ranks (a, b) is
matched or beaten by the (a + 1)(b + 1) - 1 other pairs (a', b') with
a' <= a and b' <= b. Only the staircase of pairs with (a + 1)(b + 1) <= k
can hold the top k, then: 20 candidates at k = 8 instead of k^2 = 64.
A tie can still reach past it: two row scores that differ can round to one
sum with the same column score, and the tie goes to the smaller flat id.
Every pair outside the staircase, those past the per-axis top m included,
is at or past one of its corners, the minimal pairs outside it ((0, 8),
(1, 4), (2, 2), (4, 1) and (8, 0) at k = 8), so its sum is at most that
corner's. Where the k-th selected sum is strictly above every corner sum,
the selection is exact; every other (token, head) is re-selected from its
full grid. The final top-k breaks ties by the flat ids, so candidate
order is free. For float32 both axes sort in one buffer of
packed uint64 words and the candidates in another, and the ids and sums
are read back from the sorted words (numerics.packed_topk).
fused_cartesian_topk materializes the full additive grid and takes a single
top-k; it is the reference the tests compare against.

Values live in one shared table of d_h-wide rows plus a small per-head
transform, so H heads cost N * d_h + H * d_h^2 parameters instead of
H * N * d_h. A per-head cache of pre-transformed rows makes inference a pure
gather. It is the same map only in exact arithmetic: pooling before or
after the transform rounds differently, so cached and direct logits differ
in the last bits (by up to 3.1e-6 in float32 and 5.5e-15 in float64 on
tools/fingerprint.py's prefill model, prompts of 32 and 512 tokens).
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass

import numpy as np

from .numerics import gaussian, packed_topk, softmax, topk, zeros


@dataclass(frozen=True)
class MemoryConfig:
    """Retrieval hyperparameters; derived sizes are properties.

    heads: attention heads H (each head addresses its own key banks)
    n: sub-keys per axis, giving N = n^2 composite slots per head
    k: retrieved slots per token per head
    d: model width; the per-head value width is d_h = d / heads
    """

    heads: int
    n: int
    k: int
    d: int

    def __post_init__(self):
        if self.heads < 1 or self.n < 1 or self.d < 1:
            raise ValueError("heads, n and d must be positive")
        if self.d % self.heads != 0:
            raise ValueError(f"d={self.d} not divisible by heads={self.heads}")
        if (self.d // self.heads) % 2 != 0:
            raise ValueError("per-head width d/heads must be even to split row/col")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k={self.k} must satisfy 1 <= k <= n={self.n}")

    @property
    def N(self) -> int:
        return self.n * self.n

    @property
    def d_h(self) -> int:
        return self.d // self.heads

    @property
    def d_p(self) -> int:
        return self.d_h // 2


@dataclass
class ProductKeyBank:
    k_row: np.ndarray  # [H, n, d_p]
    k_col: np.ndarray  # [H, n, d_p]


@dataclass
class ValueBank:
    """Shared slot table plus per-head output transforms.

    v_base rows are zero at model init so a fresh memory layer contributes
    exactly nothing; w_heads mixes each head's pooled row into its slice.
    """

    v_base: np.ndarray  # [N, d_h]
    w_heads: np.ndarray  # [H, d_h, d_h]


def init_product_keys(cfg: MemoryConfig, rng: np.random.Generator) -> ProductKeyBank:
    std = 1.0 / np.sqrt(cfg.d_p)
    return ProductKeyBank(
        k_row=gaussian(rng, (cfg.heads, cfg.n, cfg.d_p), std),
        k_col=gaussian(rng, (cfg.heads, cfg.n, cfg.d_p), std),
    )


def init_value_bank(cfg: MemoryConfig, rng: np.random.Generator) -> ValueBank:
    # v_base stays zero: retrieval output is identically zero until training
    # writes into the table, which is what makes fresh blocks identity maps.
    return ValueBank(
        v_base=zeros((cfg.N, cfg.d_h)),
        w_heads=gaussian(rng, (cfg.heads, cfg.d_h, cfg.d_h), 1.0 / np.sqrt(cfg.d_h)),
    )


def unflatten_index(idx, n: int):
    idx = np.asarray(idx)
    if np.any(idx < 0) or np.any(idx >= n * n):
        raise ValueError(f"flat index out of range for n={n}")
    return idx // n, idx % n


# ---------------------------------------------------------------------------
# scoring-cost instrumentation

class MacCounter:
    """Multiply-accumulate tally for key-scoring matmuls."""

    def __init__(self):
        self.total = 0

    def add(self, macs: int) -> None:
        self.total += macs


_active_counter: MacCounter | None = None


@contextlib.contextmanager
def count_scoring_macs():
    """Collect the exact MAC count of every key scoring executed inside."""
    global _active_counter
    counter = MacCounter()
    before = _active_counter
    _active_counter = counter
    try:
        yield counter
    finally:
        _active_counter = before


def record_scoring_macs(macs: int) -> None:
    if _active_counter is not None:
        _active_counter.add(macs)


# ---------------------------------------------------------------------------
# scoring and selection

def head_scores(q: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """q [rows, H, w] against per-head keys [H, m, w] -> [rows, H, m], as one
    batched matmul over heads. Every key scoring runs here, so this is where
    its MACs are counted."""
    scores = (q.swapaxes(0, 1) @ keys.swapaxes(1, 2)).swapaxes(0, 1)
    record_scoring_macs(scores.size * q.shape[-1])
    return scores


def score_subkeys(q: np.ndarray, bank: ProductKeyBank):
    """Axis scores of head queries q [rows, H, d_h] against their sub-key
    banks, every head at once -> (S_row, S_col), each [rows, H, n]."""
    d_p = bank.k_row.shape[-1]
    return head_scores(q[..., :d_p], bank.k_row), head_scores(q[..., d_p:], bank.k_col)


@functools.cache
def staircase(k: int, m: int):
    """Rank pairs (row rank, col rank) of the two-stage selection's
    candidates and corners, as read-only intp arrays (rows, cols, corner
    rows, corner cols).

    The candidates are the pairs with (a + 1)(b + 1) <= k. On row rank a
    the first col rank outside them is k // (a + 1); it is a corner, a
    minimal pair outside, where it drops below the one on row rank a - 1.
    Only corners with both ranks below m, the ranks read per axis, exist.
    """
    cand = [(a, b) for a in range(k) for b in range(k // (a + 1))]
    corners = [(a, k // (a + 1)) for a in range(m)
               if k // (a + 1) < m and (a == 0 or k // a > k // (a + 1))]
    ranks = [np.array(pairs, dtype=np.intp).reshape(-1, 2).T.copy()
             for pairs in (cand, corners)]
    for r in ranks:
        r.flags.writeable = False
    return (*ranks[0], *ranks[1])


def two_stage_topk(s_row: np.ndarray, s_col: np.ndarray, k: int):
    """Exact top-k over all n^2 additive pair scores via per-axis pre-selection.

    s_row, s_col: [..., n] with any leading shape. Returns (flat ids [..., k],
    softmax weights [..., k]). Candidates are the staircase of rank pairs
    (a, b) with (a + 1)(b + 1) <= k (see the module docstring); the final
    top-k breaks ties by the flat ids, so ties fall (descending sum,
    ascending flat id) as in a scan of the whole grid. Where a corner pair
    outside the staircase could reach the k-th sum, the selection is redone
    over the full grid.

    float32 scores, with flat ids that fit 32 bits, sort both axes in one
    call of numerics.packed_topk, which writes each score's key straight
    into the high words of its packed uint64 buffer a block of rows at a
    time, so the axis scores are never copied whole; the candidates sort
    in another call. The ids and scores are read back from the sorted
    words. Other scores take numerics.topk
    per axis and rank the candidates by np.lexsort((flat ids, -sums)).
    """
    if s_row.shape != s_col.shape:
        raise ValueError(f"axis score shapes differ: {s_row.shape} vs {s_col.shape}")
    n = s_row.shape[-1]
    if k > n:
        raise ValueError(f"two-stage selection needs k <= n, got k={k}, n={n}")
    m = min(k + 1, n)
    rows, cols, corner_rows, corner_cols = staircase(k, m)
    packable = s_row.dtype == np.float32 and n * n <= 1 << 32
    if packable:
        (ri, ci), (rv, cv) = packed_topk((s_row, s_col), np.arange(n, dtype=np.uint32), m)
    else:
        (ri, rv), (ci, cv) = topk(s_row, m), topk(s_col, m)
    sums = rv[..., rows] + cv[..., cols]
    flat = ri[..., rows] * n + ci[..., cols]
    if packable:
        idx, vals = packed_topk((sums,), flat, k)
        idx, vals = idx[0].astype(np.intp), vals[0]
    else:
        order = np.lexsort((flat, -sums), axis=-1)[..., :k]
        idx = np.take_along_axis(flat, order, -1)
        vals = np.take_along_axis(sums, order, -1)
    if corner_rows.size:
        # rank-major views, so each corner sum is one long elementwise add
        reach = np.max(rv.T[corner_rows] + cv.T[corner_cols], axis=0)
        safe = reach.T < vals[..., -1]  # False where a NaN takes part
        if not safe.all():
            redo = ~safe
            idx[redo], vals[redo] = _grid_topk(s_row[redo], s_col[redo], k)
    return idx, softmax(vals, out=vals)


def _grid_topk(s_row: np.ndarray, s_col: np.ndarray, k: int):
    """(flat ids, sums) of the top-k of each row's materialized n x n grid."""
    s, n = s_row.shape
    grid = (s_row[:, :, None] + s_col[:, None, :]).reshape(s, n * n)
    return topk(grid, k)


def fused_cartesian_topk(s_row: np.ndarray, s_col: np.ndarray, k: int):
    """Reference selection: one top-k over the materialized n x n grid.

    Same selected set, same order, same weights as two_stage_topk (a grid
    position is its flat id, so topk's ties by position fall by flat id).
    No layer calls it; tests compare against it.
    """
    s, n = s_row.shape
    if s_col.shape != (s, n):
        raise ValueError(f"axis score shapes differ: {s_row.shape} vs {s_col.shape}")
    if k > n * n:
        raise ValueError(f"k={k} exceeds slot count {n * n}")
    idx, vals = _grid_topk(s_row, s_col, k)
    return idx, softmax(vals)


def select_topk(s_row: np.ndarray, s_col: np.ndarray, k: int):
    """The selection every product-key layer runs: two_stage_topk over axis
    scores of any leading shape, typically [rows, H, n]."""
    return two_stage_topk(s_row, s_col, k)


# ---------------------------------------------------------------------------
# value aggregation

def aggregate_values(idx: np.ndarray, w: np.ndarray, bank: ValueBank) -> np.ndarray:
    """Weighted slot pooling then per-head transform, heads concatenated.

    idx [rows, H, k] are flat slot ids and w [rows, H, k] their weights,
    each (row, head) summing to 1. For row r and head h: pooled = sum_k w *
    v_base[idx]; the output slice is w_heads[h] @ pooled. Returns
    [rows, H * d_h].
    """
    rows, heads, _ = idx.shape
    pooled = np.einsum("shk,shkd->shd", w, bank.v_base[idx])
    out = np.einsum("hij,shj->shi", bank.w_heads, pooled)
    return out.reshape(rows, heads * bank.v_base.shape[1])


def build_value_cache(bank: ValueBank) -> np.ndarray:
    """Each head transform applied to the whole table (inference path):
    [H, N, d_h] with row h = v_base @ w_heads[h].T."""
    return np.einsum("nd,hed->hne", bank.v_base, bank.w_heads)


def aggregate_values_cached(idx: np.ndarray, w: np.ndarray,
                            v_cached: np.ndarray) -> np.ndarray:
    """Gather-and-pool over the [H, N, d_h] rows of build_value_cache.
    Returns [rows, H * d_h]. This is aggregate_values' map in exact
    arithmetic, but it pools transformed rows instead of transforming the
    pooled row, so the bits differ at the rounding level.

    One take over the [H * N, d_h] rows, with h * N added to head h's ids,
    gathers what v_cached[h, idx[:, h]] does; the view copies nothing on
    the C-contiguous cache."""
    rows, heads, _ = idx.shape
    slots, d_h = v_cached.shape[1:]
    flat = idx + np.arange(0, heads * slots, slots)[:, None]
    gathered = np.take(v_cached.reshape(-1, d_h), flat, axis=0)  # [rows, H, k, d_h]
    out = np.einsum("shk,shkd->shd", w, gathered)
    return out.reshape(rows, heads * v_cached.shape[-1])


# ---------------------------------------------------------------------------
# accounting

PARAM_SCHEMES = ("naive_headwise", "factorized", "flat_keys", "product_keys")


def param_count(cfg: MemoryConfig, scheme: str) -> int:
    """Exact parameter counts for value and key storage schemes.

    naive_headwise: one private d_h-wide table per head, H * N * d_h
    factorized: shared table + per-head transforms, N * d_h + H * d_h^2
    flat_keys: one full-width key per slot per head, H * N * (2 * d_p)
    product_keys: 2n sub-keys of width d_p per head, H * 2 * n * d_p
    """
    if scheme == "naive_headwise":
        return cfg.heads * cfg.N * cfg.d_h
    if scheme == "factorized":
        return cfg.N * cfg.d_h + cfg.heads * cfg.d_h * cfg.d_h
    if scheme == "flat_keys":
        return cfg.heads * cfg.N * 2 * cfg.d_p
    if scheme == "product_keys":
        return cfg.heads * 2 * cfg.n * cfg.d_p
    raise ValueError(f"unknown scheme {scheme!r}, expected one of {PARAM_SCHEMES}")


def slot_count(cfg: MemoryConfig, blocks: int) -> int:
    """Total addressable slots across heads and memory blocks: H * N * blocks."""
    if blocks < 0:
        raise ValueError("blocks must be >= 0")
    return cfg.heads * cfg.N * blocks


def lookup_cost(cfg: MemoryConfig, scheme: str) -> int:
    """Exact key-scoring multiply-accumulates per token per head.

    flat: N dot products of width 2 * d_p. product: 2n dot products of width
    d_p, an n-fold (sqrt(N)) reduction. Matches the instrumented counter.
    """
    if scheme == "flat":
        return cfg.N * 2 * cfg.d_p
    if scheme == "product":
        return 2 * cfg.n * cfg.d_p
    raise ValueError(f"unknown scheme {scheme!r}, expected 'flat' or 'product'")
