"""Embedding tables: sparse ids in, dense float64 vectors out.

A table stores one column per id (shape dim x vocab_size).  Its gradient is
kept as summed rows: the ascending ids that received gradient since the last
zero_grad and one (dim,) row per id, so the optimizer only ever touches the
ids seen in a batch and no buffer grows with the vocabulary.  Id 0 is
reserved as padding in every vocabulary: its column is zero at
initialization and masked positions never feed gradient back into it.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, VocabularyError

PAD_ID = 0


class EmbeddingTable:
    """Dense id -> vector map whose gradient is one summed row per touched id."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        if vocab_size < 1 or dim < 1:
            raise ShapeError(
                f"table needs positive vocab_size and dim, got {vocab_size}x{dim}"
            )
        self.vocab_size = int(vocab_size)
        self.dim = int(dim)
        # Uniform in [-1/sqrt(dim), 1/sqrt(dim)]; padding column forced to 0.
        bound = 1.0 / np.sqrt(self.dim)
        self.weights = rng.uniform(-bound, bound, size=(self.dim, self.vocab_size))
        self.weights[:, PAD_ID] = 0.0
        self.zero_grad()

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
        """Add rows of `grads` to the gradient of the ids named by `ids`.

        Repeated ids sum.  Each id's rows are added in input order starting
        from zero, after the rows stored by earlier calls, which is the order
        a scatter-add into a zeroed dense buffer would use, so the sums are
        bitwise the same.
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
        if self._grad_ids.size:
            ids = np.concatenate([self._grad_ids, ids])
            grads = np.concatenate([self._grad_rows, grads])
        # np.bincount sums each key's weights in input order, unlike the
        # pairwise summation of np.add.reduceat
        self._grad_ids, inverse = np.unique(ids, return_inverse=True)
        keys = inverse[:, None] * self.dim + np.arange(self.dim)
        self._grad_rows = np.bincount(keys.ravel(), weights=grads.ravel()).reshape(-1, self.dim)

    def touched_ids(self) -> np.ndarray:
        """Ids that received gradient since the last zero_grad, ascending."""
        return self._grad_ids.copy()

    def grad_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(touched ids ascending, their (n, dim) summed gradient rows)."""
        return self._grad_ids, self._grad_rows

    def grad_columns(self) -> np.ndarray:
        """The gradient as a new dense (dim x vocab_size) array."""
        out = np.zeros((self.dim, self.vocab_size))
        out[:, self._grad_ids] = self._grad_rows.T
        return out

    def zero_grad(self) -> None:
        """Drop the stored rows."""
        self._grad_ids = np.empty(0, dtype=np.int64)
        self._grad_rows = np.empty((0, self.dim))
