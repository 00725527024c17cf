"""Time the two-stage selection against the fused grid reference and
compare block cost models with wall-clock forward times.

Product keys score 2n sub-keys instead of n^2 full keys, an n-fold saving
that the instrumented counter and the analytic cost agree on. Layers run
only the two-stage route; the fused scan is timed as the reference it is
checked against.
"""

from headmem import (
    MemoryConfig,
    MemoryLayerKind,
    count_scoring_macs,
    lookup_cost,
    make_rng,
)
from headmem.bench import bench_prefill, bench_topk
from headmem.layers import init_headwise_bank
from headmem.memory import score_subkeys
from headmem.model import init_transformer_block
from headmem.upscale import _init_memory_block


def main():
    cfg = MemoryConfig(heads=4, n=32, k=8, d=64)
    print(f"scoring cost per token per head at n={cfg.n}, d_p={cfg.d_p}:")
    print(f"  flat keys    {lookup_cost(cfg, 'flat'):>6,} MACs")
    print(f"  product keys {lookup_cost(cfg, 'product'):>6,} MACs "
          f"({cfg.N * 2 * cfg.d_p // (2 * cfg.n * cfg.d_p)}x fewer)")

    # the counter sees what the code actually multiplies
    rng = make_rng(0)
    bank = init_headwise_bank(cfg, rng)
    q = rng.standard_normal((10, cfg.heads, cfg.d_h))
    with count_scoring_macs() as counter:
        score_subkeys(q, bank.pk)  # every head in one call
    want = 10 * cfg.heads * lookup_cost(cfg, "product")
    print(f"  instrumented {counter.total:,} MACs for 10 tokens x "
          f"{cfg.heads} heads, analytic {want:,}")
    print()

    print("two-stage selection vs fused reference, n=32 k=8 (best-of-5 wall clock):")
    print("tokens  two-stage    fused     fused/two-stage")
    for row in bench_topk(n=32, k=8, token_counts=(1, 4, 16, 64, 256, 1024)):
        assert row.equal
        ratio = row.fused_ns / row.two_stage_ns
        print(f"{row.tokens:>6}  {row.two_stage_ns / 1e3:>8.1f}us "
              f"{row.fused_ns / 1e3:>8.1f}us   {ratio:>6.2f}")
    print("(results checked equal at every size)")
    print()

    # one transformer block vs one memory block, analytic MACs alongside time
    rng = make_rng(1)
    tblock = init_transformer_block(d=64, heads=4, d_ff=192, rng=rng)
    mblock = _init_memory_block(tblock, MemoryLayerKind.defaults("headwise"),
                                cfg, rng)
    rows = bench_prefill({"transformer": tblock, "memory": mblock},
                         lengths=(32, 128, 512))
    print("prefill, d=64 (forward wall clock vs analytic MACs):")
    print("length  kind         time       MACs")
    for r in rows:
        print(f"{r.length:>6}  {r.block_kind:<11} {r.forward_ns / 1e6:>6.2f}ms "
              f"{r.mac_count:>10,}")


if __name__ == "__main__":
    main()
