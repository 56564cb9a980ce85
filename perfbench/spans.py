"""Spans around the library's public calls, recorded from outside the program.

`installed(tracer)` rebinds each traced function under the name its callers
look it up by (`dien.model.gru_forward`, `dien.training.forward_batch`,
the `EmbeddingTable.lookup_many` method, ...) and restores the originals on
exit.  Nothing in the package changes.  Every call then records one span
(name, start, end, parent span, run id) in memory, plus the work counters
named below; `write_jsonl` writes the spans out once the run is over and
`layer_metrics` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# span names
TRAIN = "training.train"
ADAM = "training.Adam.step"
MAKE_BATCH = "model.make_batch"


class Tracer:
    """In-memory spans and counters; `run` tags everything recorded next."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run]
        self.counts: dict = defaultdict(float)  # (run, counter) -> total
        self.run = ""
        self._stack: list[int] = []
        self._runs = 0

    def next_run(self, prefix: str) -> None:
        """Tag what follows with a fresh run id."""
        self.run = f"{prefix}-{self._runs}"
        self._runs += 1

    def add(self, counter: str, value) -> None:
        self.counts[(self.run, counter)] += float(value)

    def wrap(self, name: str, fn, count=None):
        """`fn` with a span per call; `count(tracer, args)` runs first."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self, args)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        return traced

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (run, counter), value in sorted(self.counts.items()):
                fh.write(json.dumps({"run": run, "counter": counter, "value": value}) + "\n")


# -- what gets traced ---------------------------------------------------------


def _count_ids(counter):
    def count(tracer, args):
        tracer.add(counter, np.size(args[1]))  # args[0] is the table
    return count


def _count_cells(lens_at: int):
    # gru_forward(params, inputs, valid_lens, ...) has the lengths at 2,
    # evolve_forward(params, states, scores, valid_lens, ...) at 3
    def count(tracer, args):
        rows, steps = np.shape(args[1])[:2]
        tracer.add("recurrent.cells", rows * steps)
        tracer.add("recurrent.valid_cells", np.minimum(np.asarray(args[lens_at]), steps).sum())
    return count


def _count_sigmoid(tracer, args):
    tracer.add("numerics.sigmoid_elements", np.size(args[0]))


def _count_touched(tracer, args):
    # Adam.step(self, grads) runs once per optimizer step, before the tables
    # are cleared: the ids still marked are the ones this step touched
    tables = args[0].tables
    tracer.add("training.steps", 1)
    tracer.add("embedding.touched_ids", sum(t.touched_ids().size for t in tables))
    tracer.add("embedding.scanned_ids", sum(t.vocab_size for t in tables))


def _targets():
    """(owner, attribute, span name, counter) for every traced call site."""
    from dien import data, embedding, evaluation, model, recurrent, training

    table = embedding.EmbeddingTable
    return [
        (data, "synth_generate", "data.synth_generate", None),
        (data, "save_corpus", "data.save_corpus", None),
        (data, "parse_corpus", "data.parse_corpus", None),
        (table, "lookup_many", "embedding.lookup_many", _count_ids("embedding.lookup_ids")),
        (table, "accumulate_grad_many", "embedding.accumulate_grad_many",
         _count_ids("embedding.scatter_ids")),
        (table, "zero_grad", "embedding.zero_grad", None),
        (recurrent, "sigmoid", "numerics.sigmoid", _count_sigmoid),
        (model, "sigmoid", "numerics.sigmoid", _count_sigmoid),
        (model, "gru_forward", "recurrent.gru_forward", _count_cells(2)),
        (model, "gru_backward", "recurrent.gru_backward", None),
        (model, "evolve_forward", "recurrent.evolve_forward", _count_cells(3)),
        (model, "evolve_backward", "recurrent.evolve_backward", None),
        (model, "attention_forward", "recurrent.attention_forward", None),
        (model, "attention_backward", "recurrent.attention_backward", None),
        (model, "mlp_forward", "model.mlp_forward", None),
        (model, "mlp_backward", "model.mlp_backward", None),
        (model.DienModel, "save", "model.DienModel.save", None),
        (model.DienModel, "load", "model.DienModel.load", None),
        (training, "train", TRAIN, None),
        (training, "make_batch", MAKE_BATCH, None),
        (training, "forward_batch", "model.forward_batch", None),
        (training, "model_backward", "model.model_backward", None),
        (training, "draw_negative_items", "model.draw_negative_items", None),
        (training, "adam_step", "training.adam_step", None),
        (training.Adam, "step", ADAM, _count_touched),
        (evaluation, "evaluate", "evaluation.evaluate", None),
        (evaluation, "model_scores", "evaluation.model_scores", None),
        (evaluation, "auc", "evaluation.auc", None),
        (evaluation, "make_batch", MAKE_BATCH, None),
        (evaluation, "forward_batch", "model.forward_batch", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Route the traced call sites through `tracer` for the `with` body."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, raw.__func__, count))
            else:
                wrapped = tracer.wrap(name, raw, count)
            saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# -- from spans to per-layer metrics ------------------------------------------

# metric -> (span name, whether child spans are subtracted)
TIME_METRICS = {
    "data.synth_generate_s": ("data.synth_generate", False),
    "data.save_corpus_s": ("data.save_corpus", False),
    "data.parse_corpus_s": ("data.parse_corpus", False),
    "embedding.lookup_many_s": ("embedding.lookup_many", False),
    "embedding.accumulate_grad_many_s": ("embedding.accumulate_grad_many", False),
    "embedding.zero_grad_s": ("embedding.zero_grad", False),
    "recurrent.gru_forward_s": ("recurrent.gru_forward", False),
    "recurrent.gru_backward_s": ("recurrent.gru_backward", False),
    "recurrent.evolve_forward_s": ("recurrent.evolve_forward", False),
    "recurrent.evolve_backward_s": ("recurrent.evolve_backward", False),
    "recurrent.attention_forward_s": ("recurrent.attention_forward", False),
    "recurrent.attention_backward_s": ("recurrent.attention_backward", False),
    "numerics.sigmoid_s": ("numerics.sigmoid", False),
    "model.make_batch_s": (MAKE_BATCH, False),
    "model.forward_batch_self_s": ("model.forward_batch", True),
    "model.model_backward_self_s": ("model.model_backward", True),
    "model.mlp_forward_s": ("model.mlp_forward", False),
    "model.mlp_backward_s": ("model.mlp_backward", False),
    "model.draw_negative_items_s": ("model.draw_negative_items", False),
    "model.checkpoint_save_s": ("model.DienModel.save", False),
    "model.checkpoint_load_s": ("model.DienModel.load", False),
    "training.adam_dense_s": ("training.adam_step", False),
    "training.adam_sparse_self_s": (ADAM, True),
    "evaluation.model_scores_s": ("evaluation.model_scores", False),
    "evaluation.auc_s": ("evaluation.auc", False),
}

# metric -> (numerator counter, denominator counter or None)
COUNT_METRICS = {
    "embedding.lookup_ids": ("embedding.lookup_ids", None),
    "embedding.scatter_ids": ("embedding.scatter_ids", None),
    "embedding.touched_ids_per_step": ("embedding.touched_ids", "training.steps"),
    "embedding.touched_share": ("embedding.touched_ids", "embedding.scanned_ids"),
    "recurrent.cells": ("recurrent.cells", None),
    "recurrent.valid_cell_share": ("recurrent.valid_cells", "recurrent.cells"),
    "numerics.sigmoid_elements": ("numerics.sigmoid_elements", None),
    "training.steps": ("training.steps", None),
}


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _pick(present: set, timed: list, setup: list) -> list:
    """The timed repetitions if the layer ran in them, else the set-ups."""
    chosen = [run for run in timed if run in present]
    return chosen or [run for run in setup if run in present]


def step_durations_ms(spans: list, runs: list) -> list[float]:
    """Per optimizer step: start of its make_batch to end of its Adam.step."""
    trains = {i for i, s in enumerate(spans) if s[0] == TRAIN and s[4] in runs}
    starts: dict[int, list] = defaultdict(list)
    ends: dict[int, list] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent in trains:
            if name == MAKE_BATCH:
                starts[parent].append(start)
            elif name == ADAM:
                ends[parent].append(end)
    out = []
    for train in sorted(trains):
        out.extend(1e3 * (e - s) for s, e in zip(starts[train], ends[train]))
    return out


def layer_metrics(tracer: Tracer, timed: list, setup: list) -> dict[str, float]:
    """Per-layer figures, each the median over repetitions of a per-run total.

    A layer is read from the timed repetitions when it ran there and from
    the set-up repetitions otherwise (corpus building, and the checkpoint
    training of the scoring workload).
    """
    selfs = self_times(tracer.spans)
    totals: dict = defaultdict(float)  # (run, span name, self?) -> seconds
    for span, own in zip(tracer.spans, selfs):
        name, start, end, _, run = span
        totals[(run, name, False)] += end - start
        totals[(run, name, True)] += own
    out: dict[str, float] = {}
    for metric, (name, own) in TIME_METRICS.items():
        present = {run for (run, n, o) in totals if n == name and o == own}
        runs = _pick(present, timed, setup)
        if runs:
            out[metric] = statistics.median(totals[(run, name, own)] for run in runs)
    for metric, (num, den) in COUNT_METRICS.items():
        present = {run for (run, c) in tracer.counts if c == num}
        runs = _pick(present, timed, setup)
        if not runs:
            continue
        if den is None:
            out[metric] = statistics.median(tracer.counts[(run, num)] for run in runs)
        else:
            out[metric] = (sum(tracer.counts[(run, num)] for run in runs)
                           / sum(tracer.counts[(run, den)] for run in runs))
    present = {s[4] for s in tracer.spans if s[0] == TRAIN}
    steps = step_durations_ms(tracer.spans, _pick(present, timed, setup))
    if steps:
        out["training.step_ms_p50"] = float(np.percentile(steps, 50))
        out["training.step_ms_p95"] = float(np.percentile(steps, 95))
    return out
