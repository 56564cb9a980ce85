"""Seeded random parameter containers for the layer tests.

Each helper draws from `rng` in field order, uniform in ±1/sqrt(fan in) as
a model's own draw is, so a fixture's numbers follow from its seed alone.
A cell draws every array in ±1/sqrt(n_hidden), whatever its input width.
"""

import numpy as np

from dien.model import MlpParams
from dien.recurrent import AttentionParams, GruParams, gru_shapes


def random_gru(n_input, n_hidden, rng) -> GruParams:
    bound = 1.0 / np.sqrt(n_hidden)
    return GruParams(**{name: rng.uniform(-bound, bound, size=shape)
                        for name, shape in gru_shapes(n_input, n_hidden).items()})


def random_attention(n_hidden, n_target, rng) -> AttentionParams:
    bound = 1.0 / np.sqrt(n_target)
    return AttentionParams(w=rng.uniform(-bound, bound, size=(n_hidden, n_target)))


def random_mlp(widths, rng) -> MlpParams:
    """widths = [input, hidden..., 1]; each layer's weight, then its bias."""
    weights, biases = [], []
    for fan_in, fan_out in zip(widths, widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(weights=weights, biases=biases)
