"""Deepen a trained-looking stack with memory blocks without changing a
single output logit.

Each inserted block copies the attention of the base block after it (the
one before it when inserted at the very end) and starts with all-zero
value tables, so its residual contribution is exactly zero. The expanded
model computes the base model's function until training moves the tables.
"""

import numpy as np

from headmem import (
    MemoryConfig,
    MemoryLayerKind,
    PlacementPolicy,
    UpscalePlan,
    build_memory_dus,
    init_base_model,
    make_rng,
    model_forward,
    policy_indices,
)
from headmem.layers import MemoryBlockParams


def layout(model):
    return "".join("M" if isinstance(b, MemoryBlockParams) else "T"
                   for b in model.blocks)


def main():
    rng = make_rng(7)
    base = init_base_model(vocab=64, d=32, heads=4, d_ff=96, depth=4, rng=rng)
    tokens = make_rng(8).integers(0, 64, 24)
    base_logits, _ = model_forward(tokens, base)
    print(f"base stack: {layout(base)}  ({len(base.blocks)} blocks)")
    print()

    cfg = MemoryConfig(heads=4, n=8, k=2, d=32)
    print("policy            layout    max |logit drift|")
    for name in ("bottom_heavy", "distributed", "top_heavy", "llama_pro"):
        plan = UpscalePlan(
            policy=PlacementPolicy(name, base_depth=4, inserted=2),
            insert_kind="memory_block",
            memory_kind=MemoryLayerKind("headwise"),
            memory_cfg=cfg,
            seed=3,
        )
        grown = build_memory_dus(base, plan)
        logits, _ = model_forward(tokens, grown)
        drift = np.abs(logits - base_logits).max()
        print(f"{name:<16}  {layout(grown)}    {drift:.1e}")
    print()

    # where each policy puts its inserts, over a deeper stack
    print("insert positions for an 8-deep base, 4 inserts:")
    for name in ("bottom_heavy", "distributed", "top_heavy", "llama_pro"):
        pos = policy_indices(PlacementPolicy(name, base_depth=8, inserted=4))
        print(f"  {name:<16} {pos}")
    print()

    # only the new blocks may train; the base stays frozen
    plan = UpscalePlan(
        policy=PlacementPolicy("distributed", base_depth=4, inserted=2),
        insert_kind="memory_block",
        memory_kind=MemoryLayerKind("headwise"),
        memory_cfg=cfg,
        seed=3,
    )
    grown = build_memory_dus(base, plan)
    marks = ["train" if t else "frozen" for t in grown.trainable]
    print("trainability after expansion:")
    for i, (b, m) in enumerate(zip(grown.blocks, marks)):
        print(f"  block {i}: {type(b).__name__:<22} {m}")


if __name__ == "__main__":
    main()
