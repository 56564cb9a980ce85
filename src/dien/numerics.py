"""Dense float64 kernels every higher layer is built from.

All public operations are pure functions over numpy arrays: vectors are 1-D
float64 arrays, matrices are 2-D row-major float64 arrays.  The elementwise
kernels broadcast, so the same code serves a single vector or a batch of row
vectors.  Nothing here mutates its inputs and nothing lets a NaN/Inf escape
unnoticed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, NumericError, ShapeError


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and return `x` as a finite, nonempty 1-D float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ShapeError(f"{name} must be a nonempty 1-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite entries")
    return arr


def sigmoid(x) -> np.ndarray:
    """Elementwise logistic function, stable over the whole float64 range.

    Uses the branch-free form exp(min(x,0)) / (1 + exp(-|x|)) so neither
    branch can overflow; large negative inputs underflow cleanly to 0.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, z) / (1.0 + z)


def log_sigmoid(x) -> np.ndarray:
    """Elementwise log(sigmoid(x)) without forming the probability first.

    log σ(x) = min(x, 0) - log1p(exp(-|x|)); exact where σ would round to 1.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def tanh_act(x) -> np.ndarray:
    """Elementwise hyperbolic tangent (candidate-state activation)."""
    return np.tanh(np.asarray(x, dtype=np.float64))


def finite_diff_grad(
    f: Callable[[np.ndarray], float], params, epsilon: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    grad[k] = (f(p + eps*e_k) - f(p - eps*e_k)) / (2*eps).  `f` must be
    deterministic; a non-finite evaluation raises NumericError naming the
    coordinate responsible.
    """
    params = as_vector(params, "params")
    if not epsilon > 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    grad = np.empty_like(params)
    for k in range(params.size):
        bumped = params.copy()
        bumped[k] = params[k] + epsilon
        f_plus = float(f(bumped))
        bumped[k] = params[k] - epsilon
        f_minus = float(f(bumped))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(
                f"non-finite function value while perturbing coordinate {k}"
            )
        grad[k] = (f_plus - f_minus) / (2.0 * epsilon)
    return grad


def max_rel_error(
    approx: np.ndarray, exact: np.ndarray, tol_floor: float = 1e-2
) -> float:
    """Worst-case relative error between two arrays of the same shape.

    The denominator is floored at `tol_floor`, so with the default floor an
    error below `tol * 1e-2` in absolute terms always passes a `tol` check;
    pairing tol=1e-4 with the default floor yields a 1e-6 absolute floor.
    """
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    if approx.shape != exact.shape:
        raise ShapeError(
            f"cannot compare arrays of shapes {approx.shape} and {exact.shape}"
        )
    scale = np.maximum(np.maximum(np.abs(approx), np.abs(exact)), tol_floor)
    return float(np.max(np.abs(approx - exact) / scale)) if approx.size else 0.0
