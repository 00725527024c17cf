"""Count what a memory read costs: flat against product keys, and one
memory block against the transformer block it replaces.

Product keys score 2n sub-keys instead of n^2 full keys, an n-fold saving
that the instrumented counter and the analytic cost agree on. The block
table gives analytic multiply-accumulates per prompt length; wall-clock
time is measured by the benchmark under perfbench/, not here.
"""

from headmem import (
    MEMORY_KINDS,
    MemoryConfig,
    MemoryLayerKind,
    count_scoring_macs,
    lookup_cost,
    make_rng,
)
from headmem.bench import memory_block_macs, transformer_block_macs
from headmem.layers import init_bank
from headmem.memory import score_subkeys
from headmem.model import init_transformer_block
from headmem.upscale import init_memory_block


def main():
    cfg = MemoryConfig(heads=4, n=32, k=8, d=64)
    print(f"scoring cost per token per head at n={cfg.n}, d_p={cfg.d_p}:")
    print(f"  flat keys    {lookup_cost(cfg, 'flat'):>6,} MACs")
    print(f"  product keys {lookup_cost(cfg, 'product'):>6,} MACs "
          f"({cfg.N * 2 * cfg.d_p // (2 * cfg.n * cfg.d_p)}x fewer)")

    # the counter sees what the code actually multiplies
    rng = make_rng(0)
    bank = init_bank("headwise", cfg, rng)
    q = rng.standard_normal((10, cfg.heads, cfg.d_h))
    with count_scoring_macs() as counter:
        score_subkeys(q, bank.pk)  # every head in one call
    want = 10 * cfg.heads * lookup_cost(cfg, "product")
    print(f"  instrumented {counter.total:,} MACs for 10 tokens x "
          f"{cfg.heads} heads, analytic {want:,}: equal {counter.total == want}")
    print()

    # one transformer block against a memory block of each kind in its place
    rng = make_rng(1)
    tblock = init_transformer_block(d=64, heads=4, d_ff=192, rng=rng)
    mblocks = {kind: init_memory_block(tblock, MemoryLayerKind(kind), cfg, rng)
               for kind in MEMORY_KINDS}
    print("forward MACs per block, d=64 (attention scores left out):")
    print("length  " + "".join(f"{name:>14}" for name in ("transformer", *mblocks)))
    for length in (32, 128, 512):
        counts = [transformer_block_macs(tblock, length)]
        counts += [memory_block_macs(p, length) for p in mblocks.values()]
        print(f"{length:>6}  " + "".join(f"{c:>14,}" for c in counts))


if __name__ == "__main__":
    main()
