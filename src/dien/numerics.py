"""Dense float64 kernels every higher layer is built from.

All public operations are functions over numpy arrays: vectors are 1-D
float64 arrays, matrices are 2-D row-major float64 arrays.  The elementwise
kernels broadcast, so the same code serves a single vector or a batch of row
vectors.  Only finite_diff_grad mutates its input, and it restores each entry
it perturbs.  Nothing lets a NaN/Inf escape unnoticed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericError, ShapeError


def sigmoid(x, out=None) -> np.ndarray:
    """Elementwise logistic function, stable over the whole float64 range.

    Uses the branch-free form exp(min(x,0)) / (1 + exp(-|x|)) so neither
    branch can overflow; large negative inputs underflow cleanly to 0.  With
    z = exp(-|x|) in (0, 1], the numerator is max(1[x >= 0], z): exactly 1
    or z.  `out`, which may be `x` itself, receives the result, so an
    in-place call allocates only z.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.abs(x, out=np.empty(x.shape))
    np.exp(np.negative(z, out=z), out=z)
    num = np.greater_equal(x, 0.0, out=np.empty(x.shape) if out is None else out)
    np.maximum(num, z, out=num)
    return np.divide(num, np.add(z, 1.0, out=z), out=num)


def log_sigmoid(x) -> np.ndarray:
    """Elementwise log(sigmoid(x)) without forming the probability first.

    log σ(x) = min(x, 0) - log1p(exp(-|x|)); exact where σ would round to 1.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def finite_diff_grad(
    f: Callable[[], float], arr: np.ndarray, epsilon: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of `f()` with respect to the entries of `arr`.

    grad[k] = (f() at arr[k] + eps - f() at arr[k] - eps) / (2*eps), with
    `arr` perturbed in place, so `f` must read it: a float64 ndarray, with
    `epsilon` finite and positive, as `grad_check` checks.  Each entry is
    restored before the next, also when `f` raises.  `f` must be
    deterministic; a non-finite evaluation raises NumericError naming the
    flat coordinate.
    """
    grad = np.empty_like(arr)
    for k, idx in enumerate(np.ndindex(arr.shape)):
        orig = arr[idx]
        try:
            arr[idx] = orig + epsilon
            f_plus = float(f())
            arr[idx] = orig - epsilon
            f_minus = float(f())
        finally:
            arr[idx] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"non-finite function value while perturbing coordinate {k}")
        grad[idx] = (f_plus - f_minus) / (2.0 * epsilon)
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
