"""Head-wise memory layers and memory-block depth up-scaling for a compact
numpy decoder stack: exact product-key retrieval, factorized value storage,
identity-preserving expansion, hand-derived training, and analysis tools."""

from .numerics import (
    NumericsError,
    default_dtype,
    make_rng,
    precision,
    set_default_dtype,
)
from .memory import (
    MemoryConfig,
    ProductKeyBank,
    ValueBank,
    aggregate_values,
    aggregate_values_cached,
    build_value_cache,
    count_scoring_macs,
    fused_cartesian_topk,
    lookup_cost,
    param_count,
    select_topk,
    slot_count,
    two_stage_topk,
    unflatten_index,
)
from .layers import (
    MEMORY_KINDS,
    MemoryBlockParams,
    MemoryLayerKind,
    memory_block_forward,
)
from .transformer import (
    AttentionParams,
    FfnParams,
    TransformerBlockParams,
    causal_attention,
    lm_loss,
    transformer_block_forward,
)
from .model import (
    ModelSpec,
    build_value_caches,
    init_base_model,
    model_forward,
    named_params,
    param_count_total,
    trainable_paths,
)
from .upscale import (
    INIT_SOURCES,
    INSERT_KINDS,
    POLICY_NAMES,
    PlacementPolicy,
    UpscalePlan,
    build_dus,
    build_memory_dus,
    neighbor_base_indices,
    policy_indices,
)
from .gradients import (
    GradStore,
    dedup_scatter_backward,
    lm_loss_backward,
    model_backward,
    weight_grad_backward,
)
from .gradcheck import CheckResult, run_gradcheck
from .training import (
    AdamW,
    ByteCorpus,
    HeadImportanceReport,
    OptimGroup,
    RecallCorpus,
    TrainReport,
    build_optim_groups,
    evaluate,
    head_importance,
    loss_and_grads,
    train,
)
from .config import ConfigError, default_config, parse_config, parse_config_text
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint

__version__ = "0.1.0"
