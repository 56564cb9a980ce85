"""Model assembly: every variant from sum-pooling to the full two-stage
evolving-interest network, plus the losses and the end-to-end backward pass.

The BASE variant sum-pools behavior embeddings.  Recurrent variants first
run a gated cell over the behavior sequence (the interest extractor); the
two-layer baseline then attention-pools a second recurrence, while the
evolution variants feed attention scores into a fused cell and keep its
final state.  Either way the interest vector is concatenated with the
target embedding and pushed through a small ReLU network with one sigmoid
output.

Two losses drive training: the click loss on the final prediction, and the
optional next-behavior loss that asks each extractor state to rank the
user's actual next behavior above a sampled impostor.  The combined
objective is click loss plus alpha times the next-behavior loss.
"""

from __future__ import annotations

import enum
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .embedding import PAD_ID, EmbeddingTable
from .errors import ConfigError, ParseError, UsageError
from .numerics import log_sigmoid, sigmoid
from .recurrent import (
    AGRU,
    AIGRU,
    AUGRU,
    AttentionParams,
    GruParams,
    gru_shapes,
    step_masks,
    attention_backward,
    attention_forward,
    evolve_backward,
    evolve_forward,
    gru_backward,
    gru_forward,
)


class ModelVariant(enum.Enum):
    """Which architecture to assemble.

    DIEN and GRU_AUGRU share weights and wiring; DIEN additionally trains
    with the next-behavior loss.
    """

    BASE = "base"
    TWO_LAYER_GRU_ATT = "two_layer_gru_att"
    GRU_AIGRU = "gru_aigru"
    GRU_AGRU = "gru_agru"
    GRU_AUGRU = "gru_augru"
    DIEN = "dien"

    @classmethod
    def parse(cls, text: str) -> "ModelVariant":
        try:
            return cls(text.strip().lower())
        except ValueError:
            known = ", ".join(v.value for v in cls)
            raise ConfigError(f"unknown variant {text!r}; choose one of {known}") from None

    @property
    def recurrent(self) -> bool:
        return self is not ModelVariant.BASE

    @property
    def evolution_cell(self) -> str | None:
        return {
            ModelVariant.GRU_AIGRU: AIGRU,
            ModelVariant.GRU_AGRU: AGRU,
            ModelVariant.GRU_AUGRU: AUGRU,
            ModelVariant.DIEN: AUGRU,
        }.get(self)

    @property
    def wants_aux(self) -> bool:
        return self is ModelVariant.DIEN


@dataclass
class MlpParams:
    """Fully connected ReLU layers ending in a single logit."""

    weights: list  # weights[i]: (widths[i + 1], widths[i])
    biases: list


def mlp_forward(mlp: MlpParams, feats: np.ndarray):
    """ReLU stack over (B, n_input) features; returns ((B,) logits, cache)."""
    x = feats
    pre_acts, layer_ins = [], []
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        layer_ins.append(x)
        z = x @ w.T + b
        pre_acts.append(z)
        x = z if i == last else np.maximum(z, 0.0)
    cache = {"ins": layer_ins, "pre": pre_acts}
    return x[:, 0], cache


def mlp_backward(mlp: MlpParams, cache, d_logits, grads):
    """Backward through mlp_forward: writes each layer's gradients into
    `grads` ("w0", "b0", ...) and returns d_features."""
    d = d_logits[:, None]
    last = len(mlp.weights) - 1
    for i in range(last, -1, -1):
        if i != last:
            d = d * (cache["pre"][i] > 0.0)
        grads[f"w{i}"][...] = d.T @ cache["ins"][i]
        grads[f"b{i}"][...] = d.sum(axis=0)
        d = d @ mlp.weights[i]
    return d


def _size(value) -> int:
    """A checkpoint header size, which must be a nonnegative JSON integer:
    no float, however whole, and no boolean."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{value!r} is not a nonnegative integer")
    return value


def _nonnegative_float(value) -> float:
    """A checkpoint header number, which must be a finite, nonnegative JSON
    number: no string and no boolean."""
    if type(value) not in (int, float) or not 0 <= value <= sys.float_info.max:
        raise ValueError(f"{value!r} is not a finite, nonnegative number")
    return float(value)


def array_layout(variant: ModelVariant, item_vocab: int, cat_vocab: int, embed_dim: int,
                 hidden_size: int, mlp_hidden) -> tuple[list, list]:
    """The head's widths, input first, and the (name, shape) of every array
    of the model DienModel.build makes from these sizes, in checkpoint order."""
    behavior_width = 2 * embed_dim
    interest_width = hidden_size if variant.recurrent else behavior_width
    widths = [interest_width + behavior_width, *mlp_hidden, 1]
    layout = [("item_emb", (embed_dim, item_vocab)), ("cat_emb", (embed_dim, cat_vocab))]
    if variant.recurrent:
        groups = {"extractor": gru_shapes(behavior_width, hidden_size),
                  "evolver": gru_shapes(hidden_size, hidden_size),
                  "attention": {"w": (hidden_size, behavior_width)}}
        layout += [(f"{group}.{name}", shape) for group, shapes in groups.items()
                   for name, shape in shapes.items()]
    for k, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        layout += [(f"mlp.w{k}", (fan_out, fan_in)), (f"mlp.b{k}", (fan_out,))]
    return widths, layout


def _group(arrays: dict, prefix: str) -> dict:
    """The arrays named `prefix`..., in order, keyed by the rest of the name."""
    return {k[len(prefix):]: a for k, a in arrays.items() if k.startswith(prefix)}


def _check_sizes(variant, embed_dim, hidden_size, mlp_hidden, layout) -> None:
    """Refuse, before any array is allocated, sizes `build` and `load` make
    no model of.  A recurrent variant's hidden width must equal the behavior
    width (item plus category embedding): the next-behavior loss scores
    states against behavior embeddings by inner product."""
    if embed_dim < 1 or hidden_size < 1 or any(w < 1 for w in mlp_hidden):
        raise ConfigError("embed_dim, hidden_size and the head widths must be positive, "
                          f"got {embed_dim}, {hidden_size} and {list(mlp_hidden)}")
    behavior_width = 2 * embed_dim
    if variant.recurrent and hidden_size != behavior_width:
        raise ConfigError(
            f"hidden_size must equal the behavior width {behavior_width} "
            f"(item + category embedding), got {hidden_size}"
        )
    # counted in Python ints, before numpy meets a size it cannot hold
    for name, shape in layout:
        if math.prod(shape) > np.iinfo(np.intp).max // 8:
            raise ConfigError(f"{name} of shape {shape} is more than one float64 "
                              "array can hold")


class DienModel:
    """Parameter bundle for one variant: embeddings, cells, attention, head.

    `params` maps each dense array's `array_layout` name to it, in checkpoint
    order; the cell, attention and head containers hold the same objects."""

    def __init__(self, variant: ModelVariant, alpha: float, item_table, cat_table,
                 params: dict, embed_dim: int, hidden_size: int, mlp_widths: list):
        self.variant = variant
        self.alpha = float(alpha)
        self.item_table = item_table
        self.cat_table = cat_table
        self._params = params
        self.extractor = self.evolver = self.attention = None
        if variant.recurrent:
            self.extractor = GruParams(**_group(params, "extractor."))
            self.evolver = GruParams(**_group(params, "evolver."))
            self.attention = AttentionParams(**_group(params, "attention."))
        head = list(_group(params, "mlp.").values())  # w0, b0, w1, b1, ...
        self.mlp = MlpParams(weights=head[::2], biases=head[1::2])
        self.embed_dim = int(embed_dim)
        self.hidden_size = int(hidden_size)
        self.mlp_widths = list(mlp_widths)

    @classmethod
    def build(cls, variant: ModelVariant, item_vocab: int, cat_vocab: int,
              embed_dim: int, hidden_size: int, mlp_hidden, alpha: float,
              seed: int) -> "DienModel":
        """Seeded initialization of every parameter group, of sizes
        `_check_sizes` accepts."""
        widths, layout = array_layout(variant, item_vocab, cat_vocab, embed_dim,
                                      hidden_size, mlp_hidden)
        _check_sizes(variant, embed_dim, hidden_size, mlp_hidden, layout)
        rng = np.random.default_rng(seed)
        item_table = EmbeddingTable(item_vocab, embed_dim, rng=rng)
        cat_table = EmbeddingTable(cat_vocab, embed_dim, rng=rng)
        # uniform in ±1/sqrt(fan in), a weight's last axis; a bias takes its weight's
        # bound.  Both cells get ±1/sqrt(n_hidden): the check above makes it their fan in
        params = {}
        for name, shape in layout[2:]:  # after the two tables
            if len(shape) > 1:
                bound = 1.0 / np.sqrt(shape[-1])
            params[name] = rng.uniform(-bound, bound, size=shape)
        return cls(variant, alpha, item_table, cat_table, params, embed_dim, hidden_size,
                   widths)

    def param_arrays(self) -> dict[str, np.ndarray]:
        """Live dense parameters, prefixed by component, in checkpoint order."""
        return dict(self._params)

    def all_arrays(self) -> dict[str, np.ndarray]:
        """param_arrays plus dim x vocab views of the two tables, in checkpoint order."""
        return {"item_emb": self.item_table.weights.T, "cat_emb": self.cat_table.weights.T,
                **self._params}

    # -- checkpoint io ------------------------------------------------------

    def save(self, path) -> None:
        """Write a deterministic checkpoint: a JSON header line, then the
        raw little-endian float64 bytes of every array in header order.

        The same model always produces byte-identical files; archive-style
        containers were rejected because they embed timestamps.
        """
        arrays = self.all_arrays()
        header = {
            "format": "dien-checkpoint",
            "version": 1,
            "variant": self.variant.value,
            "alpha": self.alpha,
            "embed_dim": self.embed_dim,
            "hidden_size": self.hidden_size,
            "mlp_widths": self.mlp_widths,
            "item_vocab": self.item_table.vocab_size,
            "cat_vocab": self.cat_table.vocab_size,
            "arrays": [[name, list(arr.shape)] for name, arr in arrays.items()],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
            fh.write(b"\n")
            for arr in arrays.values():
                fh.write(np.ascontiguousarray(arr, dtype="<f8"))

    @classmethod
    def load(cls, path) -> "DienModel":
        """Read a checkpoint written by save, checking its arrays list first."""
        with open(path, "rb") as fh:
            try:
                header = json.loads(fh.readline().decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ParseError(f"{path}: bad checkpoint header: {exc}") from None
            if (not isinstance(header, dict) or header.get("format") != "dien-checkpoint"
                    or type(header.get("version")) is not int or header["version"] != 1):
                raise ParseError(f"{path}: not a version-1 checkpoint")

            def field(name, parse):
                try:
                    return parse(header[name])
                except (KeyError, TypeError, ValueError):
                    raise ParseError(f"{path}: bad checkpoint header field {name!r}") from None

            # the listed arrays must account for every byte before any is read
            listed = field("arrays", lambda v: [(str(n), tuple(map(_size, s))) for n, s in v])
            claimed = 8 * sum(math.prod(shape) for _, shape in listed)
            held = os.fstat(fh.fileno()).st_size - fh.tell()
            if held != claimed:
                problem = "truncated" if held < claimed else "trailing bytes"
                raise ParseError(f"{path}: {problem}: {held} array bytes, {claimed} listed")
            variant, embed_dim = field("variant", ModelVariant), field("embed_dim", _size)
            item_vocab, cat_vocab = field("item_vocab", _size), field("cat_vocab", _size)
            hidden_size = field("hidden_size", _size)
            widths = field("mlp_widths", lambda v: list(map(_size, v)))
            # one comparison with the arrays build makes from the header's
            # sizes, before it allocates them: the byte count above bounds
            # each listed array by the file's size
            model_widths, layout = array_layout(variant, item_vocab, cat_vocab, embed_dim,
                                                hidden_size, widths[1:-1])
            if widths != model_widths:
                raise ParseError(f"{path}: header mlp_widths {widths}, the other header "
                                 f"sizes give {model_widths}")
            if listed != layout:
                k, got, want = next((k, a, b) for k, (a, b) in enumerate(
                    zip_longest(listed, layout, fillvalue="nothing")) if a != b)
                raise ParseError(f"{path}: array {k} is {got}, the model expects {want}")
            alpha = field("alpha", _nonnegative_float)
            _check_sizes(variant, embed_dim, hidden_size, widths[1:-1], layout)
            tables = [EmbeddingTable.unfilled(n, embed_dim) for n in (item_vocab, cat_vocab)]
            params = {name: np.empty(shape) for name, shape in layout[2:]}
            model = cls(variant, alpha, *tables, params, embed_dim, hidden_size, widths)
            for name, arr in model.all_arrays().items():
                arr[...] = np.frombuffer(fh.read(arr.nbytes), dtype="<f8").reshape(arr.shape)
                if not np.all(np.isfinite(arr)):
                    raise ParseError(f"{path}: array {name!r} holds non-finite values")
        return model


# ---------------------------------------------------------------------------
# the batched engine: every training, scoring and probe path runs through it
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """Padded id arrays for a slice of instances, each distinct behavior
    history held once.

    `history_of` numbers each row's history in order of first appearance,
    and `first_rows` holds the first row of each distinct history;
    `np.arange(B)` for both makes every row its own history.
    """

    history_items: np.ndarray  # (H, T) with PAD_ID fill
    history_cats: np.ndarray
    history_lens: np.ndarray  # (H,)
    target_items: np.ndarray  # (B,)
    target_cats: np.ndarray
    labels: np.ndarray  # (B,) float64
    history_of: np.ndarray  # (B,) distinct-history index of each row
    first_rows: np.ndarray  # (H,) first row of each distinct history

    @property
    def repeats(self) -> bool:
        """Whether some history appears on more than one row."""
        return self.first_rows.size < self.history_of.size

    @property
    def item_ids(self) -> np.ndarray:
        """(B, T) behavior item ids of each row, for callers that index rows."""
        return _by_row(self, self.history_items)

    @property
    def cat_ids(self) -> np.ndarray:
        """(B, T) behavior category ids of each row."""
        return _by_row(self, self.history_cats)


def make_batch(instances: list) -> Batch:
    """Number the distinct histories (a click/non-click pair shares one) and
    pad each of them once to the batch's longest."""
    seen: dict = {}
    history_of, first_rows = [], []
    for row, inst in enumerate(instances):
        k = seen.setdefault((inst.history_items, inst.history_cats), len(first_rows))
        if k == len(first_rows):
            first_rows.append(row)
        history_of.append(k)
    lens = [len(instances[row].history_items) for row in first_rows]
    items = np.full((len(first_rows), max(lens)), PAD_ID, dtype=np.int64)
    cats = np.full_like(items, PAD_ID)
    for k, row in enumerate(first_rows):
        items[k, :lens[k]] = instances[row].history_items
        cats[k, :lens[k]] = instances[row].history_cats
    return Batch(
        history_items=items,
        history_cats=cats,
        history_lens=np.asarray(lens, dtype=np.int64),
        target_items=np.asarray([inst.target_item for inst in instances], dtype=np.int64),
        target_cats=np.asarray([inst.target_cat for inst in instances], dtype=np.int64),
        labels=np.asarray([inst.label for inst in instances], dtype=np.float64),
        history_of=np.asarray(history_of, dtype=np.int64),
        first_rows=np.asarray(first_rows, dtype=np.int64),
    )


def _by_row(batch: Batch, arr: np.ndarray) -> np.ndarray:
    """A per-history array gathered out to one row per instance."""
    return arr[batch.history_of] if batch.repeats else arr


def _sum_by_history(batch: Batch, grads: np.ndarray) -> np.ndarray:
    """Per-row gradients summed per distinct history, each in row order:
    the adjoint of _by_row."""
    if not batch.repeats:
        return grads
    out = grads[batch.first_rows]
    later = np.ones(batch.history_of.size, dtype=bool)
    later[batch.first_rows] = False
    # np.add.at adds repeated indices one after another, in row order
    np.add.at(out, batch.history_of[later], grads[later])
    return out


def draw_negative_items(rng: np.random.Generator, vocab_size: int,
                        excluded: np.ndarray) -> np.ndarray:
    """Uniform non-pad item ids, elementwise different from `excluded`.

    Skipping the excluded id is done by drawing from a range one short and
    shifting draws at or above it, which keeps the draw count per element at
    exactly one for reproducibility.
    """
    if vocab_size < 3:
        raise ConfigError(f"need at least 2 real items to draw negatives, vocab {vocab_size}")
    excluded = np.asarray(excluded, dtype=np.int64)
    draws = rng.integers(0, vocab_size - 2, size=excluded.shape)
    return 1 + draws + (draws >= np.maximum(excluded, 1) - 1)


def _embed(model: DienModel, items, cats) -> np.ndarray:
    """Item vectors joined with category vectors on the last axis."""
    return np.concatenate([model.item_table.lookup_many(items),
                           model.cat_table.lookup_many(cats)], axis=-1)


def forward_batch(model: DienModel, batch: Batch, negatives=None, *,
                  for_backward=True) -> dict:
    """Run the variant end to end over a batch.

    `negatives` is an (item ids, category ids) pair shaped (B, T-1) for the
    next-behavior loss; pass None to skip that loss.  Returns the context
    dict consumed by model_backward, with losses under "l_target"/"l_aux"
    and probabilities under "probs".  With `for_backward` off, as scoring
    and probes run it, the recurrences keep no per-step gate values, so
    model_backward refuses the context; every value in it is bitwise the
    same either way.

    Nothing before the attention sees the target, so the behavior lookup,
    the step mask, the sum-pooling and the target-free recurrences (the
    interest extractor, and the two-layer baseline's second recurrence) run
    on the batch's distinct histories: "behaviors" and "mask" hold one row
    per history, and the pooled vector and the states are gathered out per
    row.  The attention, the evolution cell, the head and both losses stay
    per row.
    """
    behaviors = _embed(model, batch.history_items, batch.history_cats)
    targets = _embed(model, batch.target_items, batch.target_cats)
    n_rows = batch.labels.size
    n_histories, width = batch.history_items.shape
    mask = step_masks(batch.history_lens, n_histories, width)
    lens = _by_row(batch, batch.history_lens)
    ctx: dict = {"batch": batch, "behaviors": behaviors, "targets": targets,
                 "mask": mask, "variant": model.variant, "for_backward": for_backward}

    if model.variant is ModelVariant.BASE:
        pooled = (behaviors * mask[:, :, None]).sum(axis=1)
        feats = np.concatenate([_by_row(batch, pooled), targets], axis=1)
    else:
        states1, cache1 = gru_forward(model.extractor, behaviors, batch.history_lens,
                                      keep=for_backward)
        two_layer = model.variant is ModelVariant.TWO_LAYER_GRU_ATT
        if two_layer:
            states2, cache2 = gru_forward(model.evolver, states1, batch.history_lens,
                                          keep=for_backward)
            states2 = _by_row(batch, states2)
            ctx.update(states2=states2, cache2=cache2)
        states1 = _by_row(batch, states1)
        ctx["states1"], ctx["cache1"] = states1, cache1
        scores, acache = attention_forward(states2 if two_layer else states1, targets,
                                           model.attention, lens)
        ctx.update(scores=scores, acache=acache)
        if two_layer:
            interest = (scores[:, :, None] * states2).sum(axis=1)
        else:
            evolved, ecache = evolve_forward(
                model.evolver, states1, scores, lens, model.variant.evolution_cell,
                keep=for_backward,
            )
            interest = evolved[:, -1]
            ctx.update(evolved=evolved, ecache=ecache)
        feats = np.concatenate([interest, targets], axis=1)

    logits, mcache = mlp_forward(model.mlp, feats)
    probs = sigmoid(logits)
    y = batch.labels
    l_target = -float(np.mean(y * log_sigmoid(logits) + (1.0 - y) * log_sigmoid(-logits)))
    ctx.update(feats=feats, mcache=mcache, logits=logits, probs=probs,
               l_target=l_target, l_aux=0.0, aux_active=False)

    if negatives is not None and model.variant.recurrent and width > 1:
        neg_items, neg_cats = negatives
        neg_e = _embed(model, neg_items, neg_cats)
        h = ctx["states1"][:, :-1]
        pos_e = _by_row(batch, behaviors[:, 1:])
        mask_next = _by_row(batch, mask[:, 1:])
        s_pos = np.einsum("btn,btn->bt", h, pos_e)
        s_neg = np.einsum("btn,btn->bt", h, neg_e)
        per_step = log_sigmoid(s_pos) + log_sigmoid(-s_neg)
        ctx.update(
            l_aux=-float((per_step * mask_next).sum() / n_rows),
            aux_active=True, neg_items=neg_items, neg_cats=neg_cats,
            neg_e=neg_e, pos_e=pos_e, s_pos=s_pos, s_neg=s_neg, mask_next=mask_next,
        )
    return ctx


def _accumulate_embeddings(model: DienModel, sources: list) -> None:
    """Hand each table a step's embedding gradients in one call.

    `sources` holds (item ids, category ids, gradient rows with the item
    half first, keep mask) in accumulation order; masked positions are
    dropped.
    """
    d = model.embed_dim
    item_ids, cat_ids, item_rows, cat_rows = [], [], [], []
    for items, cats, grads, keep in sources:
        sel = keep.astype(bool)
        item_ids.append(items[sel])
        cat_ids.append(cats[sel])
        # each table gets contiguous rows of its own half
        item_rows.append(grads[sel, :d])
        cat_rows.append(grads[sel, d:])
    model.item_table.accumulate_grad_many(np.concatenate(item_ids), np.concatenate(item_rows))
    model.cat_table.accumulate_grad_many(np.concatenate(cat_ids), np.concatenate(cat_rows))


def model_backward(model: DienModel, ctx: dict) -> dict[str, np.ndarray]:
    """Gradients of the combined loss for the whole parameter set.

    The dense gradients are allocated here, zeroed, keyed like
    param_arrays() and in its order; each layer's backward writes into its
    own group of them.  Embedding gradients accumulate into the tables'
    summed rows (zero them first), and padding ids receive nothing.  The
    target-free work ran once per distinct history, so every row's
    gradient of it (the pooled vector's, or the extractor states' with the
    next-behavior loss's) is summed per history before the one extractor
    backward and the behavior embeddings.  The context must come from a
    forward_batch run with `for_backward` on.
    """
    if not ctx["for_backward"]:
        raise UsageError("model_backward needs a forward_batch context built "
                         "with for_backward=True")
    batch: Batch = ctx["batch"]
    d = model.embed_dim
    n_rows = batch.labels.size
    y = batch.labels
    d_logits = (ctx["probs"] - y) / n_rows
    grads = {name: np.zeros_like(arr) for name, arr in model.param_arrays().items()}
    d_feats = mlp_backward(model.mlp, ctx["mcache"], d_logits, _group(grads, "mlp."))

    split = d_feats.shape[1] - 2 * d
    d_interest, d_targets = d_feats[:, :split], d_feats[:, split:].copy()
    sources = []  # embedding gradients: masked negatives, behaviors, targets

    if model.variant is ModelVariant.BASE:
        d_behaviors = ctx["mask"][:, :, None] * _sum_by_history(batch, d_interest)[:, None, :]
    else:
        if model.variant is ModelVariant.TWO_LAYER_GRU_ATT:
            states2, scores = ctx["states2"], ctx["scores"]
            d_scores = np.einsum("bn,btn->bt", d_interest, states2)
            d_states2 = scores[:, :, None] * d_interest[:, None, :]
            d_states2_att, d_targets_att = attention_backward(
                model.attention, ctx["acache"], d_scores, _group(grads, "attention.")
            )
            d_states1 = gru_backward(
                model.evolver, ctx["cache2"], _sum_by_history(batch, d_states2 + d_states2_att),
                _group(grads, "evolver."),
            )
        else:
            d_evolved = np.zeros_like(ctx["evolved"])
            d_evolved[:, -1] = d_interest
            d_states1, d_scores = evolve_backward(
                model.evolver, ctx["ecache"], d_evolved, _group(grads, "evolver.")
            )
            d_states1_att, d_targets_att = attention_backward(
                model.attention, ctx["acache"], d_scores, _group(grads, "attention.")
            )
            d_states1 = _sum_by_history(batch, d_states1 + d_states1_att)
        d_targets += d_targets_att

        d_behaviors_extra = None
        if ctx["aux_active"]:
            # per row, normalised by rows like the click loss: a history
            # shared by two rows is scored against both rows' impostors
            scale = -model.alpha / n_rows
            m = ctx["mask_next"]
            d_spos = scale * sigmoid(-ctx["s_pos"]) * m
            d_sneg = -scale * sigmoid(ctx["s_neg"]) * m
            h = ctx["states1"][:, :-1]
            d_states1[:, :-1] += _sum_by_history(batch, d_spos[:, :, None] * ctx["pos_e"]
                                                 + d_sneg[:, :, None] * ctx["neg_e"])
            d_behaviors_extra = _sum_by_history(batch, d_spos[:, :, None] * h)
            sources.append((ctx["neg_items"], ctx["neg_cats"], d_sneg[:, :, None] * h, m))

        d_behaviors = gru_backward(model.extractor, ctx["cache1"], d_states1,
                                   _group(grads, "extractor."))
        if d_behaviors_extra is not None:
            d_behaviors[:, 1:] += d_behaviors_extra

    sources += [(batch.history_items, batch.history_cats, d_behaviors, ctx["mask"]),
                (batch.target_items, batch.target_cats, d_targets, np.ones(n_rows, dtype=bool))]
    _accumulate_embeddings(model, sources)
    return grads


def total_loss(l_target: float, l_aux: float, alpha: float) -> float:
    """Combined objective: click loss plus alpha times the next-behavior loss."""
    return float(l_target) + float(alpha) * float(l_aux)
