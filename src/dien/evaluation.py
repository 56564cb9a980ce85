"""Ranking metric, repeated-training protocol, and the hidden-state
visualization pipeline.

The metric is the probability that a random positive outscores a random
negative, ties at half credit, computed by midrank summation.  Experiments
repeat training over consecutive seeds and report mean and population
spread.  The visualization side projects evolved hidden states to 2-D by
principal components and writes per-probe trajectories and attention rows
as CSV, including a target-free probe driven by uniform relevance scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import Corpus, Instance, truncate_history
from .errors import ConfigError, DegenerateError, NumericError, ShapeError, UsageError
from .model import DienModel, ModelVariant, forward_batch, make_batch
from .recurrent import evolve_forward
from .training import TrainConfig, train

EVAL_CHUNK = 512  # rows per scoring chunk at most
EVAL_CELLS = 5_120  # padded cells per scoring chunk at most: 512 rows of 10 steps


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return 0.5 * (last - counts + 1 + last)[group]


def auc(scores, labels) -> float:
    """Area under the ROC curve via rank summation.

    Needs both classes present and every score finite; ties between scores
    count one half.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeError(f"scores {scores.shape} vs labels {labels.shape}")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise NumericError(
            f"{bad.size} non-finite scores, the first {float(scores[bad[0]])} at row {bad[0]}"
        )
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

    auc: float  # mean over per_seed
    n_pos: int
    n_neg: int
    per_seed: list = field(default_factory=list)
    std: float = 0.0

    @classmethod
    def from_runs(cls, per_seed: list, n_pos: int, n_neg: int) -> "EvalReport":
        arr = np.asarray(per_seed, dtype=np.float64)
        return cls(auc=float(arr.mean()), n_pos=n_pos, n_neg=n_neg,
                   per_seed=[float(v) for v in per_seed], std=float(arr.std()))


def model_scores(model: DienModel, instances: list) -> np.ndarray:
    """Click probabilities for a fixed instance list, in order.

    Rows run longest history first (a stable sort, so a click/non-click
    pair stays adjacent and shares one extractor pass), in chunks of at most
    EVAL_CHUNK rows and EVAL_CELLS padded cells, which bounds a chunk's
    states whatever the history lengths.  Each chunk runs forward only, so
    the recurrences keep no per-step gate values for a backward.  Histories
    shorter than EVAL_CELLS // EVAL_CHUNK steps sort as that long, so they
    keep their input order and consecutive EVAL_CHUNK-row chunks.
    """
    if not instances:
        raise UsageError("no instances to score")
    steps = np.maximum([len(inst.history_items) for inst in instances],
                       EVAL_CELLS // EVAL_CHUNK)
    order = np.argsort(-steps, kind="stable")
    probs = np.empty(len(instances))
    start = 0
    while start < len(order):
        take = min(EVAL_CHUNK, max(1, EVAL_CELLS // steps[order[start]]))
        rows = order[start:start + take]
        batch = make_batch([instances[i] for i in rows])
        probs[rows] = forward_batch(model, batch, for_backward=False)["probs"]
        start += rows.size
    return probs


def evaluate(model: DienModel, instances: list, max_history: int = 50) -> EvalReport:
    """Score one model over instances and wrap the single-run report."""
    if max_history < 1:
        raise ConfigError(f"max_history must be at least 1, got {max_history}")
    if not instances:
        raise DegenerateError("no instances to score")
    instances = [truncate_history(inst, max_history) for inst in instances]
    scores = model_scores(model, instances)
    labels = np.asarray([inst.label for inst in instances])
    value = auc(scores, labels)
    return EvalReport.from_runs([value], int((labels == 1).sum()),
                                int((labels == 0).sum()))


def repeat_eval(corpus: Corpus, config: TrainConfig, n_repeats: int = 5) -> EvalReport:
    """Train with seeds seed..seed+n-1 and report per-seed test rankings."""
    if n_repeats < 1:
        raise ConfigError(f"n_repeats must be at least 1, got {n_repeats}")
    test = [truncate_history(inst, config.max_history) for inst in corpus.test()]
    if not test:
        raise DegenerateError("corpus has no test instances")
    labels = np.asarray([inst.label for inst in test])
    per_seed = []
    for k in range(n_repeats):
        model, _ = train(corpus, replace(config, seed=config.seed + k))
        per_seed.append(auc(model_scores(model, test), labels))
    return EvalReport.from_runs(per_seed, int((labels == 1).sum()),
                                int((labels == 0).sum()))


def run_ablation(corpus: Corpus, config: TrainConfig, variants: list,
                 n_repeats: int = 5) -> list:
    """repeat_eval once per variant on a shared corpus; list of (variant, report)."""
    if not variants:
        raise ConfigError("ablation needs at least one variant")
    if len(set(variants)) != len(variants):
        raise ConfigError("duplicate variant in ablation list")
    return [(variant, repeat_eval(corpus, replace(config, variant=variant), n_repeats))
            for variant in variants]


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

    NONE_LABEL = "none"

    def write(self, traj_path, attn_path) -> None:
        """The trajectories and the attention rows as two CSV files."""
        with open(traj_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("probe,step,x,y\n")
            for label in self.labels:
                for t, (x, y) in enumerate(self.trajectories[label]):
                    fh.write(f"{label},{t},{float(x)!r},{float(y)!r}\n")
        with open(attn_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("probe,step,score\n")
            for label in self.labels:
                for t, s in enumerate(self.attention[label]):
                    fh.write(f"{label},{t},{float(s)!r}\n")


PLANT_CATS = (1, 2)  # the history's dwelling category, then its final one
PROBE_CATS = (2, 3)  # the related and the unrelated probe target's category


def build_viz_probes(corpus: Corpus, steps: int = 10):
    """A planted history plus two probe targets for trajectory plots.

    The history dwells in one category, then switches for its final
    behavior; the first probe target continues that final category, the
    second comes from an unrelated one.  Returns (instances, probe labels).
    """
    if steps < 1:
        raise ConfigError(f"steps must be at least 1, got {steps}")
    lead_cat, last_cat = PLANT_CATS
    related_cat, unrelated_cat = PROBE_CATS
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
    return probes, labels


def viz_bundle(model: DienModel, corpus: Corpus, steps: int = 10) -> VizBundle:
    """Trajectories and attention rows for the probes of build_viz_probes.

    One forward pass runs both probe targets over their shared history; the
    target-free run feeds that history's extractor states through the
    evolution layer under uniform relevance scores.  Both run forward only,
    keeping no per-step gate values.  The projection is fitted on the union
    of all evolved states so the curves share one plane.
    """
    cell = model.variant.evolution_cell
    if cell is None:
        raise ConfigError(
            f"variant {model.variant.value} has no evolution layer to visualize"
        )
    probes, labels = build_viz_probes(corpus, steps)
    ctx = forward_batch(model, make_batch(probes), for_backward=False)
    attention = dict(zip(labels, ctx["scores"]))
    states = dict(zip(labels, ctx["evolved"]))
    uniform = np.full((1, steps), 1.0 / steps)
    evolved, _ = evolve_forward(model.evolver, ctx["states1"][:1], uniform, [steps], cell,
                                keep=False)
    attention[VizBundle.NONE_LABEL] = uniform[0]
    states[VizBundle.NONE_LABEL] = evolved[0]

    all_labels = labels + [VizBundle.NONE_LABEL]
    union = np.vstack([states[l] for l in all_labels])
    _, projected = pca_project(union, out_dim=2)
    trajectories = {}
    for k, label in enumerate(all_labels):
        trajectories[label] = projected[k * steps:(k + 1) * steps]
    return VizBundle(labels=all_labels, trajectories=trajectories, attention=attention)


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
            fh.write(f"{name},{float(report.auc)!r},{float(report.std)!r}\n")
