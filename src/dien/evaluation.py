"""Ranking metric, repeated-training protocol, and the hidden-state
visualization pipeline.

The metric is the probability that a random positive outscores a random
negative, ties at half credit, computed by midrank summation.  Experiments
repeat training over consecutive seeds and report mean and population
spread.  The visualization side projects evolved hidden states to 2-D by
principal components and exports per-probe trajectories and attention rows
as CSV, including a target-free probe driven by uniform relevance scores.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Corpus, Instance, truncate_history
from .errors import ConfigError, DegenerateError, ShapeError, UsageError
from .model import DienModel, ModelVariant, forward_batch, make_batch
from .training import TrainConfig, train

EVAL_CHUNK = 512


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auc(scores, labels) -> float:
    """Area under the ROC curve via rank summation.

    Needs both classes present; ties between scores count one half.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeError(f"scores {scores.shape} vs labels {labels.shape}")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateError(
            f"need both classes for a ranking metric, got {n_pos} positive "
            f"and {n_neg} negative"
        )
    ranks = _midranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class EvalReport:
    """Mean ranking quality over the per-seed runs, with population spread."""

    auc: float
    n_pos: int
    n_neg: int
    per_seed: list = field(default_factory=list)
    mean: float = 0.0
    std: float = 0.0

    @classmethod
    def from_runs(cls, per_seed: list, n_pos: int, n_neg: int) -> "EvalReport":
        arr = np.asarray(per_seed, dtype=np.float64)
        return cls(auc=float(arr.mean()), n_pos=n_pos, n_neg=n_neg,
                   per_seed=[float(v) for v in per_seed],
                   mean=float(arr.mean()), std=float(arr.std()))


def model_scores(model: DienModel, instances: list, workers: int = 1) -> np.ndarray:
    """Click probabilities for a fixed instance list, in order.

    Worker count never changes the result; chunks are scored against
    read-only parameters and reassembled by position.
    """
    if not instances:
        raise UsageError("no instances to score")
    chunks = [instances[i:i + EVAL_CHUNK] for i in range(0, len(instances), EVAL_CHUNK)]

    def score(chunk):
        return forward_batch(model, make_batch(chunk))["probs"]

    if workers > 1 and len(chunks) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(score, chunks))
    else:
        parts = [score(c) for c in chunks]
    return np.concatenate(parts)


def evaluate(model: DienModel, instances: list, max_history: int = 50,
             workers: int = 1) -> EvalReport:
    """Score one model over instances and wrap the single-run report."""
    instances = [truncate_history(inst, max_history) for inst in instances]
    scores = model_scores(model, instances, workers=workers)
    labels = np.asarray([inst.label for inst in instances])
    value = auc(scores, labels)
    return EvalReport.from_runs([value], int((labels == 1).sum()),
                                int((labels == 0).sum()))


def repeat_eval(corpus: Corpus, config: TrainConfig, n_repeats: int = 5,
                workers: int = 1) -> EvalReport:
    """Train with seeds seed..seed+n-1 and report per-seed test rankings.

    Repeats are independent end to end, so they may run on worker threads;
    results are collected in seed order and identical for any worker count.
    """
    if n_repeats < 1:
        raise ConfigError(f"n_repeats must be at least 1, got {n_repeats}")
    test = [truncate_history(inst, config.max_history) for inst in corpus.test()]
    if not test:
        raise UsageError("corpus has no test instances")
    labels = np.asarray([inst.label for inst in test])

    def one_run(k: int) -> float:
        run_cfg = replace(config, seed=config.seed + k)
        model, _ = train(corpus, run_cfg)
        return auc(model_scores(model, test), labels)

    if workers > 1 and n_repeats > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(one_run, range(n_repeats)))
    else:
        per_seed = [one_run(k) for k in range(n_repeats)]
    return EvalReport.from_runs(per_seed, int((labels == 1).sum()),
                                int((labels == 0).sum()))


def run_ablation(corpus: Corpus, config: TrainConfig, variants: list,
                 n_repeats: int = 5, workers: int = 1) -> list:
    """repeat_eval once per variant on a shared corpus; list of (variant, report)."""
    if not variants:
        raise ConfigError("ablation needs at least one variant")
    if len(set(variants)) != len(variants):
        raise ConfigError("duplicate variant in ablation list")
    out = []
    for variant in variants:
        report = repeat_eval(corpus, replace(config, variant=variant),
                             n_repeats=n_repeats, workers=workers)
        out.append((variant, report))
    return out


# ---------------------------------------------------------------------------
# principal components and trajectory export
# ---------------------------------------------------------------------------


def pca_project(states, out_dim: int = 2):
    """Project state vectors onto the top principal axes.

    Returns (basis, projected): basis columns are unit eigenvectors of the
    sample covariance in descending eigenvalue order, sign-fixed so each
    column's first nonzero coordinate is positive; projected rows are the
    mean-centered states against that basis.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[0] < 2:
        raise DegenerateError(
            f"need at least 2 state vectors to fit a projection, got {states.shape}"
        )
    n_dim = states.shape[1]
    if not 1 <= out_dim <= n_dim:
        raise ConfigError(f"out_dim {out_dim} outside [1, {n_dim}]")
    centered = states - states.mean(axis=0)
    cov = centered.T @ centered / (states.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    top = np.argsort(eigvals)[::-1][:out_dim]
    basis = eigvecs[:, top]
    for col in range(basis.shape[1]):
        nonzero = np.flatnonzero(np.abs(basis[:, col]) > 1e-12)
        if nonzero.size and basis[nonzero[0], col] < 0:
            basis[:, col] = -basis[:, col]
    return basis, centered @ basis


@dataclass
class VizBundle:
    """Everything the trajectory plots need, keyed by probe label."""

    labels: list
    trajectories: dict  # label -> (valid_len, 2) projected evolved states
    attention: dict  # label -> (valid_len,) relevance scores
    step_labels: list  # category token per history step
    basis: np.ndarray

    NONE_LABEL = "none"


def build_viz_probes(corpus: Corpus, steps: int = 10, plant_cats=(1, 2),
                     probe_cats=(2, 3)):
    """A planted history plus two probe targets for trajectory plots.

    The history dwells in one category, then switches for its final
    behavior; the first probe target continues that final category, the
    second comes from an unrelated one.  Returns (instances, probe labels,
    per-step category tokens).
    """
    lead_cat, last_cat = plant_cats
    related_cat, unrelated_cat = probe_cats
    needed = {lead_cat, last_cat, related_cat, unrelated_cat}
    if len(corpus.cat_vocab) <= max(needed):
        raise ConfigError(
            f"corpus has {len(corpus.cat_vocab) - 1} categories, probes need "
            f"{max(needed)}"
        )
    by_cat: dict[int, list[int]] = {}
    for item in range(1, len(corpus.item_vocab)):
        by_cat.setdefault(int(corpus.item_cats[item]), []).append(item)
    if len(by_cat.get(lead_cat, [])) < steps - 1:
        raise ConfigError(
            f"category {lead_cat} too small for a {steps}-step history")
    for cat in needed - {lead_cat}:
        # one behavior plus an unseen probe target at most
        if len(by_cat.get(cat, [])) < 2:
            raise ConfigError(f"category {cat} has too few items for a probe")

    hist_items = tuple(by_cat[lead_cat][:steps - 1]) + (by_cat[last_cat][0],)
    hist_cats = (lead_cat,) * (steps - 1) + (last_cat,)
    used = set(hist_items)
    related = next(i for i in by_cat[related_cat] if i not in used)
    unrelated = next(i for i in by_cat[unrelated_cat] if i not in used)
    probes = [
        Instance(hist_items, hist_cats, related, related_cat, 1),
        Instance(hist_items, hist_cats, unrelated, unrelated_cat, 1),
    ]
    labels = [
        f"related:{corpus.item_vocab.token_of(related)}",
        f"unrelated:{corpus.item_vocab.token_of(unrelated)}",
    ]
    step_labels = [corpus.cat_vocab.token_of(c) for c in hist_cats]
    return probes, labels, step_labels


def export_viz(model: DienModel, probes: list, labels: list,
               traj_path, attn_path, step_labels: list | None = None) -> VizBundle:
    """Trajectories and attention rows for probe targets over one history.

    All probes must share the history; a target-free run with uniform
    relevance scores is added automatically.  The projection is fitted on
    the union of all evolved states so the curves share one plane.
    """
    if model.variant.evolution_cell is None:
        raise ConfigError(
            f"variant {model.variant.value} has no evolution layer to visualize"
        )
    if not probes:
        raise UsageError("no probe instances")
    if len(labels) != len(probes):
        raise ShapeError(f"{len(probes)} probes vs {len(labels)} labels")
    if VizBundle.NONE_LABEL in labels:
        raise ConfigError(f"probe label {VizBundle.NONE_LABEL!r} is reserved")
    history = (probes[0].history_items, probes[0].history_cats)
    if any((p.history_items, p.history_cats) != history for p in probes[1:]):
        raise UsageError("probe instances must share one history")
    if len({p.target_item for p in probes}) != len(probes):
        raise ConfigError("probe targets must be distinct")

    valid = len(probes[0].history_items)
    ctx = forward_batch(model, make_batch(probes))
    attention = dict(zip(labels, ctx["scores"]))
    states = dict(zip(labels, ctx["evolved"]))
    uniform = np.full((1, valid), 1.0 / valid)
    ctx = forward_batch(model, make_batch(probes[:1]), scores=uniform)
    attention[VizBundle.NONE_LABEL] = uniform[0]
    states[VizBundle.NONE_LABEL] = ctx["evolved"][0]

    all_labels = labels + [VizBundle.NONE_LABEL]
    union = np.vstack([states[l] for l in all_labels])
    basis, projected = pca_project(union, out_dim=2)
    trajectories = {}
    for k, label in enumerate(all_labels):
        trajectories[label] = projected[k * valid:(k + 1) * valid]

    with open(traj_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("probe,step,x,y\n")
        for label in all_labels:
            for t, (x, y) in enumerate(trajectories[label]):
                fh.write(f"{label},{t},{float(x)!r},{float(y)!r}\n")
    with open(attn_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("probe,step,score\n")
        for label in all_labels:
            for t, s in enumerate(attention[label]):
                fh.write(f"{label},{t},{float(s)!r}\n")

    return VizBundle(labels=all_labels, trajectories=trajectories,
                     attention=attention, step_labels=list(step_labels or []),
                     basis=basis)


def write_metrics(path, rows: list) -> None:
    """CSV of per-run results: variant, seed, auc."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("variant,seed,auc\n")
        for variant, seed, value in rows:
            name = variant.value if isinstance(variant, ModelVariant) else str(variant)
            fh.write(f"{name},{seed},{float(value)!r}\n")


def write_summary(path, rows: list) -> None:
    """CSV of per-variant aggregates: variant, mean, std."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("variant,mean,std\n")
        for variant, report in rows:
            name = variant.value if isinstance(variant, ModelVariant) else str(variant)
            fh.write(f"{name},{float(report.mean)!r},{float(report.std)!r}\n")
