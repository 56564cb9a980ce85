"""The analytic gradient at production size, checked along directions.

`grad_check` perturbs every coordinate, so its gate runs at toy widths on
a six-row batch.  Here every variant is built at the default TrainConfig
sizes and differentiated on one 128-row batch of the default corpus: both
rows of 64 click/non-click pairs, so every history repeats and each
target-free gradient is a per-history sum, with drawn impostors for the
next-behavior loss where the variant trains with it.  The central
difference of the combined loss along a unit direction v must match g . v
to within 1e-8 of |g|: per coordinate, rounding alone leaves relative
errors of 0.1 in groups whose gradient is small, so the bound is in units
of the whole gradient.  Directions are seeded: 20 over every parameter,
then one inside each group, tables included, so that a failure names its
group.

The head's ReLUs are held at their pass/block pattern of the unperturbed
point.  A step of 1e-4 moves some of the 12,288 hidden pre-activations
across zero (at the default initialisation the nearest sits 3e-7 from it
in one variant), and a difference across a kink says nothing about the
derivative.  Held, the loss is smooth along every direction and has the
same derivative at that point; everything before the head is the engine's
own forward pass.
"""

import numpy as np
import pytest

from dien.data import SynthConfig, synth_generate, truncate_history
from dien.model import (
    DienModel,
    ModelVariant,
    draw_negative_items,
    forward_batch,
    make_batch,
    model_backward,
    total_loss,
)
from dien.numerics import log_sigmoid
from dien.training import TrainConfig

EPSILON = 1e-4
BOUND = 1e-8  # in units of the whole gradient's norm
N_RANDOM = 20


@pytest.fixture(scope="module")
def corpus():
    return synth_generate(SynthConfig())


@pytest.fixture(scope="module")
def batch_and_negatives(corpus):
    config = TrainConfig()
    # the split keeps pairs together, so the first 128 train rows are 64 pairs
    rows = [truncate_history(corpus.instances[i], config.max_history)
            for i in corpus.train_idx[:128]]
    batch = make_batch(rows)
    assert batch.first_rows.size == 64
    rng = np.random.default_rng(config.seed)
    neg_items = draw_negative_items(rng, len(corpus.item_vocab), batch.item_ids[:, 1:])
    return batch, (neg_items, corpus.item_cats[neg_items])


def unit_direction(shapes: dict, rng) -> dict:
    """A seeded direction over the named arrays, of length 1."""
    v = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    norm = np.sqrt(sum(float((d * d).sum()) for d in v.values()))
    return {name: d / norm for name, d in v.items()}


@pytest.mark.parametrize("variant", list(ModelVariant), ids=lambda v: v.value)
def test_directional_derivatives_at_default_size(variant, corpus, batch_and_negatives):
    batch, negatives = batch_and_negatives
    config = TrainConfig(variant=variant)
    if not (variant.wants_aux and config.alpha > 0):
        negatives = None  # as `train` runs the variant
    model = DienModel.build(variant, len(corpus.item_vocab), len(corpus.cat_vocab),
                            config.embed_dim, 2 * config.embed_dim, config.mlp_hidden,
                            config.alpha, seed=config.seed)
    grads = model_backward(model, forward_batch(model, batch, negatives))
    grads["item_emb"] = model.item_table.grad_columns()
    grads["cat_emb"] = model.cat_table.grad_columns()
    arrays = model.all_arrays()
    g_norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))

    base = forward_batch(model, batch, negatives, for_backward=False)
    passed = [z > 0.0 for z in base["mcache"]["pre"][:-1]]

    def loss_along(v, step) -> float:
        """The combined loss at step * v, each hidden unit of the head
        passing or blocking as it does at the unperturbed point."""
        saved = {name: arrays[name].copy() for name in v}
        for name, d in v.items():
            arrays[name] += step * d
        ctx = forward_batch(model, batch, negatives, for_backward=False)
        x = ctx["feats"]
        for w, b, keep in zip(model.mlp.weights, model.mlp.biases, [*passed, None]):
            x = x @ w.T + b
            if keep is not None:
                x = x * keep
        for name, orig in saved.items():
            arrays[name][...] = orig
        y, logits = batch.labels, x[:, 0]
        l_target = -float(np.mean(y * log_sigmoid(logits) + (1.0 - y) * log_sigmoid(-logits)))
        return total_loss(l_target, ctx["l_aux"], model.alpha)

    # unperturbed, the held head is the engine's
    assert loss_along({}, 0.0) == total_loss(base["l_target"], base["l_aux"], model.alpha)
    shapes = {name: arr.shape for name, arr in arrays.items()}
    checks = [(f"random {k}", shapes) for k in range(N_RANDOM)]
    checks += [(name, {name: shape}) for name, shape in shapes.items()]
    rng = np.random.default_rng(7)
    failures = []
    for label, group in checks:
        v = unit_direction(group, rng)
        numeric = (loss_along(v, EPSILON) - loss_along(v, -EPSILON)) / (2 * EPSILON)
        analytic = sum(float((grads[name] * d).sum()) for name, d in v.items())
        if abs(numeric - analytic) > BOUND * g_norm:
            failures.append(f"{label}: |{numeric:.6e} - {analytic:.6e}| / |g| = "
                            f"{abs(numeric - analytic) / g_norm:.2e}")
    assert not failures, failures
