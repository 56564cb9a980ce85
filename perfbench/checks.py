"""Output checks, computed apart from the program.

Each `check_*` function takes outputs the program produced (and figures the
benchmark computed itself) and returns a list of failure messages, empty
when the check holds.  None compares against a stored copy of earlier
output: they test properties the method must have, or recompute a figure
independently.  `perfbench/tests` feeds each one a perturbed output and
sees it fail.
"""

from __future__ import annotations

import hashlib

import numpy as np

GRAD_TOLERANCE = 1e-4  # the gradcheck gate's relative tolerance
GRAD_FLOOR = 1e-2  # and its denominator floor: 1e-6 absolute
FD_EPSILON = 1e-5
REFERENCE_TOLERANCE = 1e-9
AUC_TOLERANCE = 1e-12
ALONE_TOLERANCE = 1e-12


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tenth_means(values) -> tuple[float, float]:
    """Means over the first and the last tenth of a per-step series."""
    values = np.asarray(values, dtype=np.float64)
    k = max(1, values.size // 10)
    return float(values[:k].mean()), float(values[-k:].mean())


def all_pairs_auc(scores, labels) -> float:
    """Share of (positive, negative) pairs ranked right, ties counting half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (pos.size * neg.size))


def check_losses_fall(name: str, series) -> list[str]:
    first, last = tenth_means(series)
    if not last < first:
        return [f"{name} loss did not fall: first tenth {first!r}, last tenth {last!r}"]
    return []


def check_auc(scores, labels, reported: float, floor: float | None = None) -> list[str]:
    """The reported AUC equals the all-pairs AUC of the scores."""
    out = []
    brute = all_pairs_auc(scores, labels)
    if not abs(brute - reported) <= AUC_TOLERANCE:
        out.append(f"reported AUC {reported!r} but all pairs give {brute!r}")
    if floor is not None and not brute > floor:
        out.append(f"AUC {brute!r} is not above {floor}")
    return out


def check_digests(digests: list) -> list[str]:
    if len(digests) < 2:
        return [f"determinism needs two repetitions, got {len(digests)}"]
    if len(set(digests)) != 1:
        return [f"repetitions gave {len(set(digests))} different digests: {sorted(set(digests))}"]
    return []


def check_gradients(numeric: dict, analytic: dict) -> list[str]:
    """Central differences against the analytic gradient, per group."""
    out = []
    for name, num in numeric.items():
        ana = np.asarray(analytic[name], dtype=np.float64)
        num = np.asarray(num, dtype=np.float64)
        scale = np.maximum(np.maximum(np.abs(num), np.abs(ana)), GRAD_FLOOR)
        err = float(np.max(np.abs(num - ana) / scale))
        if not err <= GRAD_TOLERANCE:
            out.append(f"{name}: relative gradient error {err:.3e} over {GRAD_TOLERANCE:g}")
    return out


def check_untouched_rows(name: str, before, after, touched, pad_id: int = 0) -> list[str]:
    """Rows (one per id) outside `touched` are bitwise equal; padding is zero."""
    before = np.asarray(before)
    after = np.asarray(after)
    out = []
    untouched = np.ones(before.shape[0], dtype=bool)
    untouched[np.asarray(sorted(touched), dtype=np.int64)] = False
    changed = np.flatnonzero(untouched & np.any(before != after, axis=1))
    if changed.size:
        out.append(f"{name}: {changed.size} untouched rows changed, first id {int(changed[0])}")
    if np.any(after[pad_id] != 0.0):
        out.append(f"{name}: padding row {pad_id} is not zero")
    return out


def check_close(what: str, expected, got, tolerance: float) -> list[str]:
    expected = np.asarray(expected, dtype=np.float64)
    got = np.asarray(got, dtype=np.float64)
    if expected.shape != got.shape:
        return [f"{what}: shape {got.shape}, expected {expected.shape}"]
    diff = np.abs(expected - got)
    worst = int(np.argmax(diff)) if diff.size else 0
    if diff.size and not diff[worst] <= tolerance:
        return [f"{what}: row {worst} off by {diff[worst]:.3e} (tolerance {tolerance:g})"]
    return []


def check_count(what: str, expected: int, got: int) -> list[str]:
    return [] if expected == got else [f"{what}: {got}, expected {expected}"]


# -- figures the benchmark computes itself ------------------------------------


def _sigmoid(x):
    return np.exp(-np.logaddexp(0.0, -x))


def _gru_cell(p, x, h):
    u = _sigmoid(p.w_update @ x + p.u_update @ h + p.b_update)
    r = _sigmoid(p.w_reset @ x + p.u_reset @ h + p.b_reset)
    c = np.tanh(p.w_cand @ x + r * (p.u_cand @ h) + p.b_cand)
    return u, c


def reference_score(model, inst) -> float:
    """Click probability of one row of the `dien` variant by a plain loop.

    Only the row's own steps are run: interest extractor GRU, bilinear
    attention softmaxed over those steps, the attention-scaled update gate
    (AUGRU), then the ReLU head and a sigmoid.
    """
    item, cat = model.item_table, model.cat_table
    target = np.concatenate([item.lookup(inst.target_item), cat.lookup(inst.target_cat)])
    h = np.zeros(model.hidden_size)
    states = []
    for i, c in zip(inst.history_items, inst.history_cats):
        x = np.concatenate([item.lookup(i), cat.lookup(c)])
        u, cand = _gru_cell(model.extractor, x, h)
        h = (1.0 - u) * h + u * cand
        states.append(h)
    logits = np.array([s @ (model.attention.w @ target) for s in states])
    weights = np.exp(logits - logits.max())
    weights /= weights.sum()
    h = np.zeros(model.hidden_size)
    for s, a in zip(states, weights):
        u, cand = _gru_cell(model.evolver, s, h)
        h = (1.0 - a * u) * h + a * u * cand
    z = np.concatenate([h, target])
    last = len(model.mlp.weights) - 1
    for k, (w, b) in enumerate(zip(model.mlp.weights, model.mlp.biases)):
        z = w @ z + b
        if k < last:
            z = np.maximum(z, 0.0)
    return float(_sigmoid(z[0]))


def gradient_pair(model, batch, negatives, rng, per_group: int = 3):
    """(numeric, analytic, shortfalls) at a few seeded coordinates per group.

    Dense groups draw coordinates uniformly.  Embedding groups draw from the
    entries the batch gave gradient to, plus one entry it did not.  The
    numeric side takes central differences of `total_loss`.  A coordinate
    whose differences at FD_EPSILON and FD_EPSILON / 10 disagree has a ReLU
    kink within FD_EPSILON, where differences say nothing about the
    derivative, so the next draw takes its place; the analytic gradient plays
    no part in that choice.  `shortfalls` names the groups where too few
    coordinates could be checked.
    """
    from dien.model import forward_batch, model_backward, total_loss

    tables = {"item_emb": model.item_table, "cat_emb": model.cat_table}
    for table in tables.values():
        table.zero_grad()
    grads = model_backward(model, forward_batch(model, batch, negatives))
    for name, table in tables.items():
        grads[name] = table.grad_columns().copy()
        table.zero_grad()

    def central(arr, idx, eps: float) -> float:
        orig = arr[idx]
        arr[idx] = orig + eps
        ctx = forward_batch(model, batch, negatives)
        up = total_loss(ctx["l_target"], ctx["l_aux"], model.alpha)
        arr[idx] = orig - eps
        ctx = forward_batch(model, batch, negatives)
        down = total_loss(ctx["l_target"], ctx["l_aux"], model.alpha)
        arr[idx] = orig
        return (up - down) / (2.0 * eps)

    shortfalls = []

    def smooth_picks(name, arr, candidates, wanted: int):
        wanted = min(wanted, len(candidates))
        picks, values = [], []
        for flat_idx in candidates:
            if len(picks) == wanted:
                break
            idx = np.unravel_index(int(flat_idx), arr.shape)
            coarse = central(arr, idx, FD_EPSILON)
            fine = central(arr, idx, FD_EPSILON / 10.0)
            if abs(coarse - fine) <= GRAD_TOLERANCE * max(abs(coarse), abs(fine), GRAD_FLOOR):
                picks.append(int(flat_idx))
                values.append(coarse)
        if len(picks) < wanted:
            shortfalls.append(f"{name}: only {len(picks)} of {wanted} coordinates are "
                              f"clear of kinks")
        return picks, values

    numeric, analytic = {}, {}
    for name, arr in model.all_arrays().items():
        flat = grads[name].ravel()
        if name in tables:
            hot, cold = np.flatnonzero(flat), np.flatnonzero(flat == 0.0)
            picks, values = smooth_picks(name, arr, rng.permutation(hot), per_group)
            more, more_values = smooth_picks(name, arr, rng.permutation(cold), 1)
            picks, values = picks + more, values + more_values
        else:
            picks, values = smooth_picks(name, arr, rng.permutation(arr.size), per_group)
        numeric[name] = np.array(values)
        analytic[name] = flat[np.asarray(picks, dtype=np.int64)]
    return numeric, analytic, shortfalls
