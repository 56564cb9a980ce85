"""Mini-batch training with an adaptive optimizer, plus the
finite-difference harness that keeps every analytic gradient honest.

A run is a pure function of (corpus, config): parameter init, batch order,
and negative behavior draws all come from the run seed, gradients are
reduced in fixed order, and embedding updates touch only the ids seen in
the batch.  Two runs with the same inputs produce bit-identical models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Corpus, Instance, truncate_history
from .errors import ConfigError, DivergenceError, UsageError
from .model import (
    DienModel,
    ModelVariant,
    array_layout,
    draw_negative_items,
    forward_batch,
    make_batch,
    model_backward,
    total_loss,
)
from .numerics import finite_diff_grad, max_rel_error

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    variant: ModelVariant = ModelVariant.DIEN
    alpha: float = 1.0
    epochs: int = 2
    batch_size: int = 128
    learning_rate: float = 8e-4
    seed: int = 0
    embed_dim: int = 16  # recurrent hidden width is 2 * embed_dim, the behavior width
    mlp_hidden: tuple = (64, 32)
    max_history: int = 50

    def validate(self) -> None:
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError(f"alpha must be finite and nonnegative, got {self.alpha}")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must not be negative, got {getattr(self, name)}")
        for name in ("batch_size", "embed_dim", "max_history"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be finite and positive, got {self.learning_rate}")
        if any(w < 1 for w in self.mlp_hidden):
            raise ConfigError(f"mlp_hidden widths must be positive, got {self.mlp_hidden}")


@dataclass
class CurveRecord:
    """One optimizer step on the learning curve."""

    epoch: int
    step: int
    l_target: float
    l_aux: float
    l_total: float


def _adam_moves(m, v, g, t: int, lr: float, step, scratch) -> None:
    """The one bias-corrected adaptive rule, written through `out=`.

    Updates the moments `m` and `v` in place and writes the parameter step
    into `step`; `scratch` is a work array of the same shape.  The
    operations are those of

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        step = lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)

    in the same order, so the results are bitwise those of that expression.
    """
    np.multiply(m, ADAM_BETA1, out=m)
    np.multiply(g, 1.0 - ADAM_BETA1, out=scratch)
    np.add(m, scratch, out=m)
    np.multiply(v, ADAM_BETA2, out=v)
    np.multiply(g, 1.0 - ADAM_BETA2, out=scratch)
    np.multiply(scratch, g, out=scratch)
    np.add(v, scratch, out=v)
    np.divide(m, 1.0 - ADAM_BETA1**t, out=step)
    np.multiply(step, lr, out=step)
    np.divide(v, 1.0 - ADAM_BETA2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    np.add(scratch, ADAM_EPS, out=scratch)
    np.divide(step, scratch, out=step)


def adam_step(params: dict, grads: dict, state: dict, lr: float) -> dict:
    """One adaptive update, in place over `params`.

    `state` holds first/second moment dicts keyed like params plus the step
    counter "t"; pass {} to start fresh.  Returns the state for chaining.
    """
    if "m" not in state:
        state["m"] = {k: np.zeros_like(v) for k, v in params.items()}
        state["v"] = {k: np.zeros_like(v) for k, v in params.items()}
        state["t"] = 0
    state["t"] += 1
    for name, p in params.items():
        g = grads[name]
        step, scratch = np.empty_like(p), np.empty_like(p)
        _adam_moves(state["m"][name], state["v"][name], g, state["t"], lr, step, scratch)
        p -= step
    return state


class Adam:
    """Adaptive updates for the dense parameters and lazy sparse updates for
    embedding tables: only ids that received gradient move, with moments
    kept per id (one row each, its pages unwritten until a row moves) and
    bias correction from the shared step counter.  Touched rows update in one
    workspace block per step: gathered m, gathered v, the step and scratch.
    """

    def __init__(self, params: dict, tables: list, lr: float):
        self.params = params
        self.tables = list(tables)
        self.lr = lr
        self.state: dict = {}
        self._table_m = [np.zeros(t.weights.shape) for t in self.tables]
        self._table_v = [np.zeros(t.weights.shape) for t in self.tables]

    def step(self, grads: dict) -> None:
        """Apply one update; consumes and clears the tables' gradient rows."""
        adam_step(self.params, grads, self.state, self.lr)
        for table, m, v in zip(self.tables, self._table_m, self._table_v):
            ids, rows = table.grad_rows()
            if ids.size == 0:
                continue
            m_ids, v_ids, step, scratch = np.empty((4, ids.size, table.dim))
            # the ids come from the table's own checked accumulate; "clip"
            # lets take write straight into `out` without a buffer
            np.take(m, ids, axis=0, out=m_ids, mode="clip")
            np.take(v, ids, axis=0, out=v_ids, mode="clip")
            _adam_moves(m_ids, v_ids, rows, self.state["t"], self.lr, step, scratch)
            m[ids], v[ids] = m_ids, v_ids
            table.weights[ids] -= step
            table.zero_grad()


def train(corpus: Corpus, config: TrainConfig) -> tuple[DienModel, list[CurveRecord]]:
    """Train one model on the corpus's train split.

    Batch order is reshuffled per epoch and impostor behaviors are redrawn
    per batch, all from the run seed.  A non-finite loss aborts immediately
    rather than continuing from poisoned parameters.
    """
    config.validate()
    instances = [truncate_history(inst, config.max_history) for inst in corpus.train()]
    if not instances:
        raise UsageError("corpus has no training instances")
    model = DienModel.build(
        config.variant, len(corpus.item_vocab), len(corpus.cat_vocab),
        config.embed_dim, 2 * config.embed_dim, config.mlp_hidden,
        config.alpha, seed=config.seed,
    )
    opt = Adam(model.param_arrays(), [model.item_table, model.cat_table],
               config.learning_rate)
    rng = np.random.default_rng([config.seed, 1])
    want_aux = config.variant.wants_aux and config.alpha > 0
    vocab = model.item_table.vocab_size
    curves: list[CurveRecord] = []
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(instances))
        for start in range(0, len(instances), config.batch_size):
            rows = order[start:start + config.batch_size]
            batch = make_batch([instances[i] for i in rows])
            negatives = None
            if want_aux and batch.history_items.shape[1] > 1:
                neg_items = draw_negative_items(rng, vocab, batch.item_ids[:, 1:])
                negatives = (neg_items, corpus.item_cats[neg_items])
            ctx = forward_batch(model, batch, negatives)
            l_total = total_loss(ctx["l_target"], ctx["l_aux"], config.alpha)
            if not np.isfinite(l_total):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch} step {step}: "
                    f"target {ctx['l_target']}, aux {ctx['l_aux']}"
                )
            grads = model_backward(model, ctx)
            opt.step(grads)
            curves.append(CurveRecord(epoch, step, ctx["l_target"], ctx["l_aux"], l_total))
            step += 1
    return model, curves


def write_curves(path, curves: list) -> None:
    """CSV of the learning curve, one optimizer step per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,step,l_target,l_aux,l_total\n")
        for rec in curves:
            fh.write(f"{rec.epoch},{rec.step},{rec.l_target!r},{rec.l_aux!r},{rec.l_total!r}\n")


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

GRAD_CHECK_PARAM_LIMIT = 6000
TOY_LENGTHS = (5, 4, 2, 5, 1, 3)  # history lengths of the gradient-check batch
TOY_REPEAT = 3  # this row takes row 0's history, as the second row of a pair does


@dataclass
class GradCheckReport:
    """Max relative error per parameter group against the numeric oracle."""

    groups: dict = field(default_factory=dict)
    tolerance: float = 1e-4

    def passed(self) -> bool:
        return all(err <= self.tolerance for err in self.groups.values())

    def worst(self) -> tuple[str, float]:
        name = max(self.groups, key=self.groups.get)
        return name, self.groups[name]

    def lines(self) -> list[str]:
        out = []
        for name in sorted(self.groups):
            err = self.groups[name]
            verdict = "ok" if err <= self.tolerance else "FAIL"
            out.append(f"{name}: max rel error {err:.3e} [{verdict}]")
        return out


def _toy_instances(rng: np.random.Generator, n_items: int, n_cats: int):
    """A handful of mixed-length instances exercising the padding paths and
    the sum over rows that share a history."""
    out = []
    for k, ln in enumerate(TOY_LENGTHS):
        items = tuple(int(rng.integers(1, n_items)) for _ in range(ln))
        cats = tuple(int(rng.integers(1, n_cats)) for _ in range(ln))
        if k == TOY_REPEAT:  # drawn all the same, so later draws stay put
            items, cats = out[0].history_items, out[0].history_cats
        out.append(Instance(items, cats, int(rng.integers(1, n_items)),
                            int(rng.integers(1, n_cats)), k % 2))
    return out


def grad_check(config: TrainConfig, tolerance: float = 1e-4,
               epsilon: float = 1e-5) -> GradCheckReport:
    """Compare the analytic backward pass against central differences.

    Builds one seeded batch at the config's dimensions, runs the combined
    loss both ways, and reports the max relative error per parameter group.
    Dimensions must stay toy-sized; perturbing every coordinate twice is
    quadratic in all the wrong places.
    """
    config.validate()
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise ConfigError(f"tolerance must be finite and positive, got {tolerance}")
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ConfigError(f"epsilon must be finite and positive, got {epsilon}")
    n_items, n_cats = 9, 5
    sizes = (config.variant, n_items, n_cats, config.embed_dim, 2 * config.embed_dim,
             config.mlp_hidden)
    # counted from the layout, before build allocates a model past the budget
    n_params = sum(math.prod(shape) for _, shape in array_layout(*sizes)[1])
    if n_params > GRAD_CHECK_PARAM_LIMIT:
        raise UsageError(
            f"{n_params} parameters is past the {GRAD_CHECK_PARAM_LIMIT} budget; "
            "shrink the dimensions"
        )
    model = DienModel.build(*sizes, config.alpha, seed=config.seed)
    rng = np.random.default_rng([config.seed, 2])
    batch = make_batch(_toy_instances(rng, n_items, n_cats))
    negatives = None
    if config.variant.wants_aux and config.alpha > 0 and batch.history_items.shape[1] > 1:
        neg_items = draw_negative_items(rng, n_items, batch.item_ids[:, 1:])
        neg_cats = (neg_items - 1) % (n_cats - 1) + 1
        negatives = (neg_items, neg_cats)

    # the fresh tables hold no gradient rows; the probes only run forward,
    # so they keep no gate values for a backward
    analytic = model_backward(model, forward_batch(model, batch, negatives))
    analytic["item_emb"] = model.item_table.grad_columns()
    analytic["cat_emb"] = model.cat_table.grad_columns()

    def loss() -> float:
        probe_ctx = forward_batch(model, batch, negatives, for_backward=False)
        return total_loss(probe_ctx["l_target"], probe_ctx["l_aux"], config.alpha)

    report = GradCheckReport(tolerance=tolerance)
    for name, arr in model.all_arrays().items():
        numeric = finite_diff_grad(loss, arr, epsilon=epsilon)
        report.groups[name] = max_rel_error(numeric, analytic[name])
    return report
