"""Walk through product-key retrieval and show that the two-stage
selection, the fused grid reference and a brute-force scan of every
composite slot agree exactly.

A head scores n row sub-keys and n column sub-keys; every (row, col) pair
is one of n^2 addressable slots whose score is the sum of its halves. The
two-stage route, the one every layer runs, pre-selects the top ranks of
each axis and searches the staircase of rank pairs (a, b) with
(a + 1)(b + 1) <= k, re-scanning the grid where a tie could reach past it;
the fused reference scans the whole n^2 grid at once. Both must return the same slots, same order, same softmax weights,
including under ties, and selecting all heads in one call must equal
selecting each head on its own.
"""

import numpy as np

from headmem import (
    fused_cartesian_topk,
    make_rng,
    select_topk,
    two_stage_topk,
    unflatten_index,
)


def brute_force(s_row, s_col, k):
    # rank every slot: descending score, ascending flat id on ties
    s, n = s_row.shape
    sums = (s_row[:, :, None] + s_col[:, None, :]).reshape(s, n * n)
    flat = np.broadcast_to(np.arange(n * n), sums.shape)
    order = np.lexsort((flat, -sums), axis=-1)
    return order[:, :k]


def main():
    rng = make_rng(0)
    n, k, tokens = 8, 3, 5

    s_row = rng.standard_normal((tokens, n))
    s_col = rng.standard_normal((tokens, n))

    idx_ts, w_ts = two_stage_topk(s_row, s_col, k)
    idx_fu, w_fu = fused_cartesian_topk(s_row, s_col, k)
    idx_bf = brute_force(s_row, s_col, k)

    print(f"n={n} sub-keys per axis, {n * n} slots, k={k}, {tokens} tokens")
    print("two-stage == brute force:", np.array_equal(idx_ts, idx_bf))
    print("fused     == brute force:", np.array_equal(idx_fu, idx_bf))
    print("weights identical:       ", np.array_equal(w_ts, w_fu))
    print()

    print("token 0 winners (flat id -> row, col -> score, weight):")
    for j in range(k):
        fid = int(idx_ts[0, j])
        r, c = unflatten_index(np.array([fid]), n)
        score = s_row[0, r[0]] + s_col[0, c[0]]
        print(f"  slot {fid:2d} -> ({r[0]}, {c[0]}) -> "
              f"{score:+.4f}, weight {w_ts[0, j]:.4f}")
    print()

    # ties are where selection kernels usually disagree; force a lot of them
    # by quantizing scores to integers
    s_row_t = rng.integers(-2, 3, (tokens, n)).astype(np.float64)
    s_col_t = rng.integers(-2, 3, (tokens, n)).astype(np.float64)
    idx_ts, w_ts = two_stage_topk(s_row_t, s_col_t, k)
    idx_fu, w_fu = fused_cartesian_topk(s_row_t, s_col_t, k)
    idx_bf = brute_force(s_row_t, s_col_t, k)
    grid = (s_row_t[:, :, None] + s_col_t[:, None, :]).reshape(tokens, n * n)
    dup = sum(len(row) - len(np.unique(row)) for row in grid)
    print(f"tie-heavy grid: {dup} duplicated scores across {tokens} tokens")
    print("two-stage == brute force:", np.array_equal(idx_ts, idx_bf))
    print("fused     == brute force:", np.array_equal(idx_fu, idx_bf))
    print("weights identical:       ", np.array_equal(w_ts, w_fu))
    print()

    # layers select every head in one call over [tokens, heads, n] scores;
    # each head's slice must come out as if it had been selected alone
    heads = 4
    for tokens in (4, 64):
        s_row = rng.standard_normal((tokens, heads, n))
        s_col = rng.standard_normal((tokens, heads, n))
        idx, w = select_topk(s_row, s_col, k)
        same = True
        for h in range(heads):
            ref_idx, ref_w = fused_cartesian_topk(s_row[:, h], s_col[:, h], k)
            same &= np.array_equal(idx[:, h], ref_idx) and np.array_equal(w[:, h], ref_w)
        print(f"{heads} heads selected in one call at {tokens:2d} tokens "
              f"== per-head fused reference: {same}")


if __name__ == "__main__":
    main()
