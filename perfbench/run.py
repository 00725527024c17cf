"""headmem benchmark: one workload per process, metrics and output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; headmem is imported from ./src. --trace 0
measures the end-to-end metrics of BENCHMARK.json with no wrapper installed.
--trace 1 runs the workload twice, untraced and then traced with spans
around headmem's public functions, and reports the per-layer metrics; the
spans go to OUT/trace-<workload>-seed<N>.json. --workload all runs every
workload, each in its own process. Every line names a metric, a check or the
machine; the last line is one JSON object with keys correct, attempted,
failed and metrics. Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_MAX = 90      # tail percentile printed when the run has 10 samples above it
TAIL_SAMPLES = 10  # otherwise the highest percentile with this many samples above


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing sources or spec)."""


def cap_blas_threads() -> int:
    """Limit BLAS to at most nproc threads; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SetupError(f"cannot read {path}: {e}") from e


def import_headmem():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "headmem", "__init__.py")):
        raise SetupError(f"headmem sources not found under {src}")
    sys.path[:0] = [src, HERE]
    import headmem
    if not os.path.abspath(headmem.__file__).startswith(src + os.sep):
        raise SetupError(f"imported headmem from {headmem.__file__}, not {src}")
    return headmem


def machine(nproc: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name,
            "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
            "nproc": nproc, "python": platform.python_version()}


def end_to_end(phase, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "tokens_per_s": phase.tokens / (sum(phase.op_ns) / 1e9),
        "peak_rss_mb": phase.peak_rss_mb,
    }


def latency_lines(phase) -> list[str]:
    """Median op latency and the highest percentile up to p90 with
    TAIL_SAMPLES samples above it.

    Printed, not gated: on a shared 2-vCPU virtual machine, host slowdowns
    that last seconds to minutes moved these percentiles by more than the
    largest bound BENCHMARK.json may set (0.25) across ten seeds, while the
    mean-based tokens_per_s stayed within it.
    """
    import numpy as np
    ops = phase.attempted
    lines = [f"latency op_ms.p50 {float(np.percentile(phase.op_ns, 50)) / 1e6!r} ms"]
    pct = min(TAIL_MAX, int(100 * (1 - TAIL_SAMPLES / ops))) if ops > TAIL_SAMPLES else 0
    if pct <= 50:
        return lines + [f"tail none: {ops} samples are too few for 10 above the median"]
    value = float(np.percentile(phase.op_ns, pct)) / 1e6
    return lines + [f"tail op_ms.p{pct} {value!r} ms"]


def run_workload(w, seed: int, seconds: float, trace: bool, out_dir: str, host: dict):
    """Returns (phases, metrics, notes): every timed phase, the metrics this
    mode reports, and extra lines for the human-readable output."""
    import workloads as wl
    from spans import Tracer, layer_metrics

    text = wl.markov_text(seed)
    spare, state, setup_s = wl.timed_setups(w, seed, text, out_dir)
    budget = seconds / 2 if trace else seconds
    train_seed = seed + 3
    if w.task == "train":
        steps = wl.calibrate_steps(w, spare, budget, train_seed)
        phase = wl.train_phase(w, state, steps, train_seed)
    else:
        wl.warm_prefill(w, spare, seed, text)
        deadline = time.perf_counter_ns() + int(budget * 1e9)
        phase = wl.prefill_phase(state, wl.prompt_stream(seed, w.lengths, text, 0),
                                 seed, deadline)
    ops = phase.attempted
    notes = [f"samples {ops} ops; op = one "
             + ("training step" if w.task == "train" else "prefill request"),
             f"mac_forward_analytic_per_op {phase.forward_macs / ops:.0f} MAC"]
    if not trace:
        notes += latency_lines(phase)
        return [phase], end_to_end(phase, setup_s), notes

    tracer = Tracer()
    tracer.install()
    try:
        traced_state = wl.setup(w, seed, text, out_dir)
        if w.task == "train":
            traced = wl.train_phase(w, traced_state, steps, train_seed, tracer)
        else:
            traced = wl.prefill_phase(traced_state, iter(phase.prompts), seed,
                                      None, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, traced.attempted, wl.lowest_trainable(traced_state.model))
    metrics["memory.scoring_macs"] = traced.counted_macs / traced.attempted
    metrics["trace.overhead_ratio"] = sum(traced.op_ns) / sum(phase.op_ns)
    path = os.path.join(out_dir, f"trace-{w.name}-seed{seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": w.name, "seed": seed,
                   "machine": host,
                   "metrics": metrics, **tracer.dump()}, f)
    notes.append(f"trace {len(tracer.spans)} spans written to {path}")
    return [phase, traced], metrics, notes


def report(spec: dict, w, phases, metrics: dict, notes: list, trace: bool) -> dict:
    """Print the human-readable lines and return the result object."""
    import workloads as wl
    listed = spec["per_layer" if trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in listed}:
        raise SetupError(f"metrics {sorted(set(metrics) ^ {m['name'] for m in listed})} "
                         "differ from BENCHMARK.json")
    attempted = sum(p.attempted for p in phases)
    failed = 0
    print(f"workload {w.name}: closed loop, 1 client")
    for line in notes:
        print(line)
    for p in phases:
        run_ok = all(ok for name, (ok, _) in p.checks.items() if name in wl.RUN_CHECKS)
        failed += p.failed if run_ok else p.attempted
        for name, (ok, detail) in p.checks.items():
            print(f"check {p.label}.{name} {'pass' if ok else 'FAIL'}: {detail}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    out = {}
    for m in listed:
        value = float(metrics[m["name"]])
        print(f"metric {m['name']} {value!r} {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": out}


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    import workloads as wl
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", args.out],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(lines + [f"workload {name} exited with code {proc.returncode}"]))
            merged["correct"] = False
            code = code or proc.returncode or 2
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return code


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "out"),
                    help="directory for trace files and set-up scratch files")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None, workloads=None) -> int:
    """workloads: name -> Workload, to run other sizes than WORKLOADS."""
    args = parse_args(argv)
    nproc = cap_blas_threads()
    try:
        spec = load_spec()
        hm = import_headmem()
        import workloads as wl
        table = workloads or wl.WORKLOADS
        if args.workload == "all":
            return run_all(args)
        if args.workload not in table:
            raise SetupError(f"unknown workload {args.workload!r}, expected one of "
                             f"{sorted(table)} or 'all'")
        os.makedirs(args.out, exist_ok=True)
        hm.set_default_dtype("f32")
        host = machine(nproc)
        print("machine " + json.dumps(host))
        w = table[args.workload]
        phases, metrics, notes = run_workload(w, args.seed, args.seconds,
                                              bool(args.trace), args.out, host)
        result = report(spec, w, phases, metrics, notes, bool(args.trace))
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
