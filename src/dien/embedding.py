"""Embedding tables: sparse ids in, dense float64 vectors out.

A table stores one column per id (shape dim x vocab_size) together with a
sparse gradient accumulator, so the optimizer only ever touches the ids seen
in a batch.  Id 0 is reserved as padding in every vocabulary: its column is
zero at initialization and masked positions never feed gradient back into it.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, VocabularyError

PAD_ID = 0


class EmbeddingTable:
    """Dense id -> vector map with sparse gradient accumulation."""

    def __init__(self, vocab_size: int, dim: int, weights=None, rng=None):
        if vocab_size < 1 or dim < 1:
            raise ShapeError(
                f"table needs positive vocab_size and dim, got {vocab_size}x{dim}"
            )
        self.vocab_size = int(vocab_size)
        self.dim = int(dim)
        if weights is not None:
            weights = np.array(weights, dtype=np.float64)
            if weights.shape != (self.dim, self.vocab_size):
                raise ShapeError(
                    f"weights shape {weights.shape} does not match "
                    f"(dim={self.dim}, vocab_size={self.vocab_size})"
                )
            self.weights = weights
        else:
            if rng is None:
                raise ValueError("either weights or a seeded rng is required")
            # Uniform in [-1/sqrt(dim), 1/sqrt(dim)]; padding column forced to 0.
            bound = 1.0 / np.sqrt(self.dim)
            self.weights = rng.uniform(-bound, bound, size=(self.dim, self.vocab_size))
            self.weights[:, PAD_ID] = 0.0
        self._grad = np.zeros_like(self.weights)
        self._touched = np.zeros(self.vocab_size, dtype=bool)

    def lookup(self, idx: int) -> np.ndarray:
        """Copy of the embedding vector for one id."""
        idx = int(idx)
        if not 0 <= idx < self.vocab_size:
            raise VocabularyError(f"id {idx} outside vocabulary of size {self.vocab_size}")
        return self.weights[:, idx].copy()

    def lookup_many(self, ids) -> np.ndarray:
        """Embedding vectors for an id array of any shape.

        The result appends the embedding axis: ids of shape s give
        vectors of shape s + (dim,).
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            bad = ids[(ids < 0) | (ids >= self.vocab_size)][0]
            raise VocabularyError(
                f"id {int(bad)} outside vocabulary of size {self.vocab_size}"
            )
        return np.moveaxis(self.weights[:, ids], 0, -1).copy()

    def accumulate_grad_many(self, ids, grads) -> None:
        """Scatter-add rows of `grads` into the slots named by `ids`.

        Repeated ids sum.
        """
        ids = np.asarray(ids, dtype=np.int64).ravel()
        grads = np.asarray(grads, dtype=np.float64)
        if grads.size != ids.size * self.dim:
            raise ShapeError(
                f"{grads.size} gradient values for {ids.size} ids of dim {self.dim}"
            )
        grads = grads.reshape(ids.size, self.dim)
        if ids.size == 0:
            return
        if ids.min() < 0 or ids.max() >= self.vocab_size:
            raise VocabularyError(
                f"id outside vocabulary of size {self.vocab_size} in batch accumulate"
            )
        np.add.at(self._grad.T, ids, grads)
        self._touched[ids] = True

    def touched_ids(self) -> np.ndarray:
        """Ids that received gradient since the last zero_grad, ascending."""
        return np.flatnonzero(self._touched)

    def grad_columns(self) -> np.ndarray:
        """Dense reference to the accumulator (dim x vocab_size)."""
        return self._grad

    def zero_grad(self) -> None:
        """Clear the accumulator; only the touched columns are written."""
        ids = self.touched_ids()
        self._grad[:, ids] = 0.0
        self._touched[ids] = False
