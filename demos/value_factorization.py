"""Show why the value store is factorized, and that the cached inference
path reproduces the direct path.

Naive head-wise storage gives every head a private table of n^2 value rows.
Factorized storage keeps one shared table plus a small per-head transform,
so the table is paid for once while each head still reads its own view.
The transform can be folded into the table ahead of time (a per-head cached
table) which turns inference into a plain gather.
"""

import numpy as np

from headmem import (
    MemoryConfig,
    MemoryLayerKind,
    aggregate_values,
    aggregate_values_cached,
    build_value_cache,
    make_rng,
    param_count,
    slot_count,
)
from headmem.layers import retrieve
from headmem.model import init_transformer_block
from headmem.upscale import init_memory_block


def main():
    # a desk-sized config first, then the scale where factorization pays off
    small = MemoryConfig(heads=4, n=16, k=4, d=64)
    big = MemoryConfig(heads=32, n=64, k=4, d=2048)

    print("parameter counts, values only (naive vs factorized):")
    for name, cfg in (("small", small), ("big", big)):
        naive = param_count(cfg, "naive_headwise")
        fact = param_count(cfg, "factorized")
        print(f"  {name}: H={cfg.heads} n={cfg.n} d_h={cfg.d_h}  "
              f"naive {naive:>9,}  factorized {fact:>9,}  "
              f"ratio {naive / fact:.1f}x")
    print(f"addressable slots at big scale, 8 memory blocks: "
          f"{slot_count(big, 8):,}")
    print()

    # run one real lookup of a head-wise memory block both ways; its
    # queries are the raw head outputs, so any [tokens, d] rows will do
    rng = make_rng(1)
    block = init_memory_block(init_transformer_block(small.d, small.heads, 128, rng),
                              MemoryLayerKind("headwise"), small, rng)
    values = block.bank.values
    values.v_base[...] = rng.standard_normal(values.v_base.shape)
    q = rng.standard_normal((6, small.d))
    _, read = retrieve(q, block)
    idx, w = read["idx"], read["w"]

    direct = aggregate_values(idx, w, values)
    cache = build_value_cache(values)
    cached = aggregate_values_cached(idx, w, cache)

    print(f"direct path:  pool {small.k} shared rows, then apply the head "
          f"transform  -> {direct.shape}")
    print(f"cached path:  gather from {cache.shape} pre-transformed "
          f"tables -> {cached.shape}")
    print(f"max |direct - cached| = {np.abs(direct - cached).max():.3e}")

    # the cache trades memory for per-token work: it is exactly the naive
    # table footprint, materialized once instead of stored as parameters
    print(f"cache entries = naive table size: "
          f"{cache.size == param_count(small, 'naive_headwise')}")


if __name__ == "__main__":
    main()
