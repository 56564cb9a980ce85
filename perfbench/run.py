"""Benchmark of DIEN training and scoring: one workload per call.

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`; with `--trace 1`, the per-layer metrics of traced repetitions
run in turn with untraced ones.  Progress and the environment record go to
standard error; the result, the environment and (with `--trace 1`) the
spans are also written under `perfbench/work/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BLAS_THREADS = 1  # fixed before numpy loads; the workloads run on one core

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "work"

END_TO_END = {
    "setup_s": "s",
    "train_inst_per_s": "inst/s",
    "score_rows_per_s": "rows/s",
    "test_auc": "AUC",
    "final_click_loss": "nats",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "data.synth_generate_s": "s",
    "data.save_corpus_s": "s",
    "data.parse_corpus_s": "s",
    "embedding.lookup_many_s": "s",
    "embedding.lookup_ids": "count",
    "embedding.accumulate_grad_many_s": "s",
    "embedding.scatter_ids": "count",
    "embedding.zero_grad_s": "s",
    "embedding.touched_ids_per_step": "count",
    "embedding.touched_share": "share",
    "recurrent.gru_forward_s": "s",
    "recurrent.gru_backward_s": "s",
    "recurrent.evolve_forward_s": "s",
    "recurrent.evolve_backward_s": "s",
    "recurrent.attention_forward_s": "s",
    "recurrent.attention_backward_s": "s",
    "recurrent.cells": "count",
    "recurrent.valid_cell_share": "share",
    "numerics.sigmoid_s": "s",
    "numerics.sigmoid_elements": "count",
    "model.make_batch_s": "s",
    "model.forward_batch_self_s": "s",
    "model.model_backward_self_s": "s",
    "model.mlp_forward_s": "s",
    "model.mlp_backward_s": "s",
    "model.draw_negative_items_s": "s",
    "model.checkpoint_save_s": "s",
    "model.checkpoint_load_s": "s",
    "training.adam_dense_s": "s",
    "training.adam_sparse_self_s": "s",
    "training.steps": "count",
    "training.step_ms_p50": "ms",
    "training.step_ms_p95": "ms",
    "evaluation.model_scores_s": "s",
    "evaluation.auc_s": "s",
    "tracing.train_inst_per_s_overhead": "share",
    "tracing.score_rows_per_s_overhead": "share",
}


def git_sha(root: Path) -> str:
    """HEAD of the checkout's git directory, or "unknown" outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "blas_threads_fixed_by": "OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and "
                                 "MKL_NUM_THREADS set before numpy is imported",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["train-default", "train-wide-vocab", "score-mixed-history"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dien" / "__init__.py").is_file():
        print(f"error: no dien package under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy and dien, so only now

    env = environment()
    workloads.log(f"environment: {json.dumps(env)}")
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               work, WORK / f"trace-{args.workload}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(result.metrics))
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    for failure in result.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{args.workload} {name} {result.metrics[name]!r} {unit}")
    out = {
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(result.metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(
        json.dumps({"result": out, "environment": env, "failures": result.failures},
                   indent=1) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
