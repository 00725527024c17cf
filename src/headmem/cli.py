"""Command-line front end.

Subcommands: train, eval, params, policy, head-importance, gradcheck.
Exit codes: 0 success, 1 gradcheck failure, 2 configuration error,
3 numeric abort. Every emitted CSV has a header row.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import (
    ConfigError,
    build_corpus,
    build_groups,
    build_model,
    config_from_snapshot,
    default_config,
    parse_config,
)
from .gradcheck import DEFAULT_TOL, format_report, run_gradcheck
from .layers import MEMORY_KINDS
from .model import named_params, param_count_total, trainable_paths
from .numerics import NumericsError, make_rng, set_default_dtype
from .training import RecallCorpus, evaluate, head_importance, train
from .upscale import POLICY_NAMES, PlacementPolicy, policy_indices


def _seed(raw: str) -> int:
    """argparse type of --seed: a non-negative integer."""
    if not (raw.isascii() and raw.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {raw!r}")
    return int(raw)


_SHARED_FLAGS = {
    "config": dict(help="experiment config file (INI sections)"),
    "out": dict(help="output directory for CSV/checkpoint artifacts"),
    "seed": dict(type=_seed, help="override the subcommand's sampling seed"),
    "precision": dict(choices=("f32", "f64"),
                      help="floating-point width for newly built tensors"),
}


def _add_shared(sp, *names, out_default=None):
    """The shared flags a subcommand reads, and no others."""
    for name in names:
        default = out_default if name == "out" else None
        sp.add_argument(f"--{name}", default=default, **_SHARED_FLAGS[name])


def _load_config(args) -> dict:
    return parse_config(args.config) if args.config else default_config()


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    print(f"wrote {path}")


def _emit(args, filename: str, csv: str) -> None:
    """Write csv to filename under --out, or print it when --out is unset."""
    if args.out:
        _write(os.path.join(_ensure_out(args), filename), csv)
    else:
        print(csv, end="")


def _eval_set(cfg: dict, corpus, seed: int):
    """Deterministic evaluation sequences for a corpus."""
    if isinstance(corpus, RecallCorpus):
        return corpus.full_sweep()
    rng = make_rng(seed)
    batches = [corpus.batch(rng, cfg["train"]["batch_size"]) for _ in range(4)]
    return (np.concatenate([b[0] for b in batches]),
            np.concatenate([b[1] for b in batches]))


def cmd_train(args) -> int:
    cfg = _load_config(args)
    set_default_dtype(args.precision or cfg["run"]["precision"])
    if args.seed is not None:
        cfg["train"]["seed"] = args.seed
    base, model = build_model(cfg)
    corpus = build_corpus(cfg)
    groups = build_groups(cfg, model)
    out = _ensure_out(args)
    report = train(model, corpus, groups, steps=cfg["train"]["steps"],
                   batch_size=cfg["train"]["batch_size"],
                   seed=cfg["train"]["seed"])
    _write(os.path.join(out, "train_report.csv"), report.to_csv())
    ckpt = os.path.join(out, "model.ckpt")
    save_checkpoint(ckpt, model, cfg)
    print(f"wrote {ckpt}")
    ev_in, ev_tg = _eval_set(cfg, corpus, cfg["train"]["seed"] + 1)
    final = evaluate(model, ev_in, ev_tg)
    base_loss = evaluate(base, ev_in, ev_tg)
    print(f"steps: {len(report.losses)}")
    if report.losses:
        print(f"final train loss: {report.final_loss:.6f}")
    print(f"eval loss: {final:.6f} (frozen base alone: {base_loss:.6f})")
    return 0


def _load_checkpoint_eval_set(args):
    """(model, eval inputs, eval targets) for --ckpt. The corpus comes from
    --config when given, else from the checkpoint's config snapshot, else
    from the defaults."""
    cfg = _load_config(args)
    model, snapshot = load_checkpoint(args.ckpt)
    if args.config is None and snapshot is not None:
        cfg = config_from_snapshot(snapshot)
    corpus = build_corpus(cfg)
    if corpus.vocab != model.vocab:
        raise ConfigError("corpus vocab does not match checkpoint vocab")
    seed = args.seed if args.seed is not None else cfg["train"]["seed"] + 1
    return (model, *_eval_set(cfg, corpus, seed))


def cmd_eval(args) -> int:
    model, ev_in, ev_tg = _load_checkpoint_eval_set(args)
    print(f"eval loss: {evaluate(model, ev_in, ev_tg):.6f} "
          f"over {ev_in.shape[0]} sequences")
    return 0


def cmd_params(args) -> int:
    cfg = _load_config(args)
    lines = ["method,inserted_blocks,trainable_params,total_params"]
    variants = [("dus_copy", "transformer_copy", None)]
    variants += [(f"mem_{kind}", "memory_block", kind) for kind in MEMORY_KINDS]
    for method, insert_kind, kind in variants:
        vcfg = copy.deepcopy(cfg)
        if kind is not None:
            vcfg["memory"]["kind"] = kind
            vcfg["upscale"]["init_source"] = "subsequent"
            vcfg["upscale"]["zero_init_copies"] = False
        elif vcfg["upscale"]["policy"] == "llama_pro":
            # each insert copies the block it follows; a tail insert has no
            # subsequent block, and the counts do not depend on the source
            vcfg["upscale"]["init_source"] = "preceding"
        vcfg["upscale"]["insert_kind"] = insert_kind
        _, model = build_model(vcfg)
        keep = trainable_paths(model, "cpt")
        trainable = sum(arr.size for path, arr in named_params(model) if path in keep)
        lines.append(f"{method},{vcfg['upscale']['inserted']},{trainable},"
                     f"{param_count_total(model)}")
    _emit(args, "params.csv", "\n".join(lines) + "\n")
    return 0


def cmd_policy(args) -> int:
    names = [args.policy] if args.policy else list(POLICY_NAMES)
    for name in names:
        policy = PlacementPolicy(name, args.depth, args.inserted)
        idx = policy_indices(policy)
        print(f"{name}: {','.join(str(i) for i in idx)}")
    return 0


def cmd_head_importance(args) -> int:
    model, ev_in, ev_tg = _load_checkpoint_eval_set(args)
    dataset = [(ev_in[i], ev_tg[i]) for i in range(ev_in.shape[0])]
    report = head_importance(model, dataset)
    out = _ensure_out(args)
    _write(os.path.join(out, "head_importance.csv"), report.scores_csv())
    _write(os.path.join(out, "head_variance.csv"), report.variance_csv())
    return 0


def cmd_gradcheck(args) -> int:
    tol = args.tol
    checks = args.checks.split(",") if args.checks else None
    results = run_gradcheck(seed=args.seed if args.seed is not None else 0,
                            tol=tol, checks=checks)
    print(format_report(results, tol))
    return 0 if all(r.ok(tol) for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="headmem",
        description="Memory-augmented depth up-scaling toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("train", help="train an expanded model, write report + checkpoint")
    _add_shared(sp, "config", "out", "seed", "precision", out_default="runs/train")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on the configured corpus")
    sp.add_argument("--ckpt", required=True)
    _add_shared(sp, "config", "seed")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("params", help="trainable/total parameter table per method")
    _add_shared(sp, "config", "out")
    sp.set_defaults(fn=cmd_params)

    sp = sub.add_parser("policy", help="print inserted-block index sets")
    sp.add_argument("depth", type=int, help="base stack depth")
    sp.add_argument("inserted", type=int, help="number of inserted blocks")
    sp.add_argument("policy", nargs="?", choices=POLICY_NAMES,
                    help="one policy (default: all)")
    sp.set_defaults(fn=cmd_policy)

    sp = sub.add_parser("head-importance", help="per-layer per-head importance CSVs")
    sp.add_argument("--ckpt", required=True)
    _add_shared(sp, "config", "out", "seed", out_default="runs/importance")
    sp.set_defaults(fn=cmd_head_importance)

    sp = sub.add_parser("gradcheck", help="finite-difference verification per layer type")
    _add_shared(sp, "seed")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--checks", default=None,
                    help="comma-separated check names (default: all)")
    sp.set_defaults(fn=cmd_gradcheck)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
