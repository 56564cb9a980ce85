"""Gated recurrent cells, the target-aware attention score, and the three
attention-fused evolution cells, with analytic forward and backward passes.

One gated cell computes

    update  u = sigmoid(x Wu' + h_prev Uu' + bu)
    reset   r = sigmoid(x Wr' + h_prev Ur' + br)
    cand    c = tanh(x Wc' + r * (h_prev Uc') + bc)
    h       = (1 - u) * h_prev + u * c

The evolution cells reuse the same gates but let a scalar relevance score a
steer the blend: the input-scaling cell multiplies x by a before a plain
step, the gate-replacing cell uses a itself in place of u, and the
gate-scaling cell uses a*u.  All step functions broadcast over a leading
batch axis, so the same code serves one vector or a batch of rows.  The
batched engine runs the plain, gate-replacing and gate-scaling cells through
one time loop that differs only in that blend gate.

Backward passes are hand-derived per cell and consume the gate values cached
during the forward pass; the finite-difference harness in `training` is the
safety net for every derivative here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DegenerateError, DomainError, ShapeError, UsageError
from .numerics import sigmoid, tanh_act

AIGRU = "aigru"  # attention scales the cell input
AGRU = "agru"  # attention replaces the update gate
AUGRU = "augru"  # attention scales the update-gate vector
EVOLUTION_VARIANTS = (AIGRU, AGRU, AUGRU)


@dataclass
class GruParams:
    """The six weight matrices and three bias vectors of one gated cell."""

    w_update: np.ndarray  # (n_hidden, n_input)
    u_update: np.ndarray  # (n_hidden, n_hidden)
    b_update: np.ndarray  # (n_hidden,)
    w_reset: np.ndarray
    u_reset: np.ndarray
    b_reset: np.ndarray
    w_cand: np.ndarray
    u_cand: np.ndarray
    b_cand: np.ndarray

    def __post_init__(self):
        n_hidden, n_input = np.shape(self.w_update)
        expected = {
            "w_update": (n_hidden, n_input),
            "u_update": (n_hidden, n_hidden),
            "b_update": (n_hidden,),
            "w_reset": (n_hidden, n_input),
            "u_reset": (n_hidden, n_hidden),
            "b_reset": (n_hidden,),
            "w_cand": (n_hidden, n_input),
            "u_cand": (n_hidden, n_hidden),
            "b_cand": (n_hidden,),
        }
        for name, shape in expected.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ShapeError(f"{name} has shape {arr.shape}, expected {shape}")
            setattr(self, name, arr)

    @property
    def n_hidden(self) -> int:
        return self.w_update.shape[0]

    @property
    def n_input(self) -> int:
        return self.w_update.shape[1]

    @classmethod
    def init(cls, n_input: int, n_hidden: int, rng: np.random.Generator) -> "GruParams":
        """Seeded uniform init in [-1/sqrt(n_hidden), 1/sqrt(n_hidden)]."""
        bound = 1.0 / np.sqrt(n_hidden)

        def u(*shape):
            return rng.uniform(-bound, bound, size=shape)

        return cls(
            w_update=u(n_hidden, n_input), u_update=u(n_hidden, n_hidden), b_update=u(n_hidden),
            w_reset=u(n_hidden, n_input), u_reset=u(n_hidden, n_hidden), b_reset=u(n_hidden),
            w_cand=u(n_hidden, n_input), u_cand=u(n_hidden, n_hidden), b_cand=u(n_hidden),
        )

    def arrays(self) -> dict[str, np.ndarray]:
        """Field-order mapping of parameter names to live arrays."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(arr) for name, arr in self.arrays().items()}


@dataclass
class AttentionParams:
    """Bilinear form scoring hidden states against the target embedding."""

    w: np.ndarray  # (n_hidden, n_target)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.ndim != 2:
            raise ShapeError(f"attention weight must be 2-D, got shape {self.w.shape}")

    @classmethod
    def init(cls, n_hidden: int, n_target: int, rng: np.random.Generator) -> "AttentionParams":
        bound = 1.0 / np.sqrt(n_target)
        return cls(w=rng.uniform(-bound, bound, size=(n_hidden, n_target)))

    def arrays(self) -> dict[str, np.ndarray]:
        return {"w": self.w}


# ---------------------------------------------------------------------------
# step functions (leading batch axis optional)
# ---------------------------------------------------------------------------


def _gates(params: GruParams, x, h_prev):
    """All gate values plus the recurrent candidate term h_prev @ Uc'."""
    update = sigmoid(x @ params.w_update.T + h_prev @ params.u_update.T + params.b_update)
    reset = sigmoid(x @ params.w_reset.T + h_prev @ params.u_reset.T + params.b_reset)
    cand_hid = h_prev @ params.u_cand.T
    cand = tanh_act(x @ params.w_cand.T + reset * cand_hid + params.b_cand)
    return update, reset, cand, cand_hid


def _check_step_shapes(params: GruParams, x, h_prev):
    x = np.asarray(x, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    if x.shape[-1] != params.n_input:
        raise ShapeError(
            f"input width {x.shape[-1]} does not match w_update input size {params.n_input}"
        )
    if h_prev.shape[-1] != params.n_hidden:
        raise ShapeError(
            f"state width {h_prev.shape[-1]} does not match u_update size {params.n_hidden}"
        )
    return x, h_prev


def _check_score(score):
    arr = np.asarray(score, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"attention score outside [0, 1]: {score!r}")
    return arr


def gru_step(params: GruParams, x, h_prev) -> np.ndarray:
    """One plain gated step: h = (1 - u) * h_prev + u * cand."""
    x, h_prev = _check_step_shapes(params, x, h_prev)
    update, _, cand, _ = _gates(params, x, h_prev)
    return (1.0 - update) * h_prev + update * cand


def agru_step(params: GruParams, x, h_prev, score) -> np.ndarray:
    """Step with the update gate replaced by the scalar score.

    The update gate is discarded entirely; reset and candidate are computed
    as in the plain cell and the score blends h_prev with the candidate.
    """
    x, h_prev = _check_step_shapes(params, x, h_prev)
    score = _check_score(score)
    _, _, cand, _ = _gates(params, x, h_prev)
    return (1.0 - score) * h_prev + score * cand


def augru_step(params: GruParams, x, h_prev, score) -> np.ndarray:
    """Step with the whole update-gate vector scaled by the score.

    With score == 1 this reduces to gru_step bit for bit; with score == 0 the
    state is untouched.
    """
    x, h_prev = _check_step_shapes(params, x, h_prev)
    score = _check_score(score)
    update, _, cand, _ = _gates(params, x, h_prev)
    scaled = score * update
    return (1.0 - scaled) * h_prev + scaled * cand


def aigru_inputs(states, scores) -> np.ndarray:
    """Scale each state by its scalar score: the input-scaling cell's inputs.

    Accepts (T, n) states with (T,) scores, or batched (B, T, n) with (B, T).
    """
    states = np.asarray(states, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != states.shape[:-1]:
        raise ShapeError(
            f"scores shape {scores.shape} does not match states shape {states.shape}"
        )
    return states * scores[..., None]


# ---------------------------------------------------------------------------
# batched sequence engine
# ---------------------------------------------------------------------------


def step_masks(valid_lens, batch: int, steps: int) -> np.ndarray:
    lens = np.asarray(valid_lens, dtype=np.int64).reshape(batch)
    return (np.arange(steps)[None, :] < lens[:, None]).astype(np.float64)


def _blend_gate(cell, update, score):
    """What blends h_prev with the candidate: u, a (AGRU) or a*u (AUGRU)."""
    if cell is None:
        return update
    return score if cell == AGRU else score * update


def _recur(params: GruParams, inputs, valid_lens, scores=None, cell=None):
    """The one time loop behind every recurrence, from the zero state.

    `cell` None runs the plain cell; AGRU and AUGRU read the (B, T) scores.
    Rows are frozen once their valid length is exhausted: the state simply
    carries forward.
    """
    batch, steps, _ = inputs.shape
    n_h = params.n_hidden
    mask = step_masks(valid_lens, batch, steps)
    h = np.zeros((batch, n_h))
    states = np.empty((batch, steps, n_h))
    prevs = np.empty((batch, steps, n_h))
    upd = np.empty((batch, steps, n_h))
    rst = np.empty((batch, steps, n_h))
    cnd = np.empty((batch, steps, n_h))
    chid = np.empty((batch, steps, n_h))
    for t in range(steps):
        prevs[:, t] = h
        u, r, c, hl = _gates(params, inputs[:, t], h)
        upd[:, t], rst[:, t], cnd[:, t], chid[:, t] = u, r, c, hl
        a = None if cell is None else scores[:, t][:, None]
        gate = _blend_gate(cell, u, a)
        m = mask[:, t][:, None]
        h = m * ((1.0 - gate) * h + gate * c) + (1.0 - m) * h
        states[:, t] = h
    cache = {
        "cell": cell, "inputs": inputs, "prevs": prevs, "update": upd, "reset": rst,
        "cand": cnd, "cand_hid": chid, "mask": mask, "scores": scores,
    }
    return states, cache


def _gate_backward(params, grads, cache, t, d_update, d_cand, d_h_prev):
    """Shared gate chain rule for one step; returns (d_x, d_h_prev).

    d_update/d_cand are gradients on u and c (d_update None when the cell
    never used u); d_h_prev carries the direct blend contribution so far.
    """
    x = cache["inputs"][:, t]
    h_prev = cache["prevs"][:, t]
    r = cache["reset"][:, t]
    c = cache["cand"][:, t]
    hl = cache["cand_hid"][:, t]

    # cand = tanh(x Wc' + r * hl + bc), hl = h_prev Uc'
    d_ac = d_cand * (1.0 - c * c)
    grads["w_cand"] += d_ac.T @ x
    grads["b_cand"] += d_ac.sum(axis=0)
    d_x = d_ac @ params.w_cand
    d_reset = d_ac * hl
    d_hl = d_ac * r
    grads["u_cand"] += d_hl.T @ h_prev
    d_h_prev = d_h_prev + d_hl @ params.u_cand

    if d_update is not None:
        u = cache["update"][:, t]
        d_au = d_update * u * (1.0 - u)
        grads["w_update"] += d_au.T @ x
        grads["u_update"] += d_au.T @ h_prev
        grads["b_update"] += d_au.sum(axis=0)
        d_x += d_au @ params.w_update
        d_h_prev += d_au @ params.u_update

    d_ar = d_reset * r * (1.0 - r)
    grads["w_reset"] += d_ar.T @ x
    grads["u_reset"] += d_ar.T @ h_prev
    grads["b_reset"] += d_ar.sum(axis=0)
    d_x += d_ar @ params.w_reset
    d_h_prev += d_ar @ params.u_reset
    return d_x, d_h_prev


def _recur_backward(params: GruParams, cache, d_states):
    """Backward through _recur.

    Returns (parameter grads, d_inputs, d_scores); d_scores is None for the
    plain cell.  The score couples through the blend gate: directly for
    AGRU, through a*u for AUGRU.
    """
    cell, scores = cache["cell"], cache["scores"]
    inputs = cache["inputs"]
    batch, steps, _ = inputs.shape
    grads = params.zero_grads()
    d_inputs = np.zeros_like(inputs)
    d_scores = None if cell is None else np.zeros_like(scores)
    carry = np.zeros((batch, params.n_hidden))
    for t in range(steps - 1, -1, -1):
        dh = d_states[:, t] + carry
        m = cache["mask"][:, t][:, None]
        d_raw = dh * m
        d_h_prev = dh * (1.0 - m)  # frozen rows pass the gradient straight back
        u = cache["update"][:, t]
        c = cache["cand"][:, t]
        h_prev = cache["prevs"][:, t]
        a = None if cell is None else scores[:, t][:, None]
        gate = _blend_gate(cell, u, a)
        d_gate = d_raw * (c - h_prev)
        if cell is None:
            d_update = d_gate
        elif cell == AGRU:
            d_scores[:, t] = d_gate.sum(axis=1)
            d_update = None
        else:
            d_scores[:, t] = (d_gate * u).sum(axis=1)
            d_update = d_gate * a
        d_cand = d_raw * gate
        d_h_prev = d_h_prev + d_raw * (1.0 - gate)
        d_x, carry = _gate_backward(params, grads, cache, t, d_update, d_cand, d_h_prev)
        d_inputs[:, t] = d_x
    return grads, d_inputs, d_scores


def gru_forward(params: GruParams, inputs, valid_lens):
    """Run the plain cell over (B, T, n_input) inputs with per-row lengths.

    Returns the (B, T, n_hidden) states and the cache the backward pass
    needs; rows past their valid length repeat their last state.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[1] == 0:
        raise ShapeError(f"inputs must be (batch, steps, width), got {inputs.shape}")
    if inputs.shape[2] != params.n_input:
        raise ShapeError(
            f"input width {inputs.shape[2]} does not match cell input size {params.n_input}"
        )
    states, cache = _recur(params, inputs, valid_lens)
    cache["kind"] = "gru"
    return states, cache


def gru_backward(params: GruParams, cache, d_states):
    """Backward through gru_forward.

    d_states holds the upstream gradient on every hidden state.  Returns
    (parameter grads, d_inputs).
    """
    if not isinstance(cache, dict) or cache.get("kind") != "gru":
        raise UsageError("gru_backward needs the cache produced by gru_forward")
    grads, d_inputs, _ = _recur_backward(params, cache, np.asarray(d_states, dtype=np.float64))
    return grads, d_inputs


def evolve_forward(params: GruParams, states, scores, valid_lens, variant: str):
    """Run one evolution cell over the interest states.

    `states` is (B, T, n_hidden), `scores` the matching (B, T) relevance
    weights.  The input-scaling cell scales the states and runs the plain
    loop; the other two gate the blend with the scores.  Masked positions
    carry the evolved state forward unchanged.  Returns (evolved states,
    final state per row, cache).
    """
    if variant not in EVOLUTION_VARIANTS:
        raise ConfigError(f"unknown evolution variant {variant!r}")
    states = np.asarray(states, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if states.ndim != 3:
        raise ShapeError(f"states must be (batch, steps, width), got {states.shape}")
    if scores.shape != states.shape[:2]:
        raise ShapeError(
            f"scores shape {scores.shape} does not match states shape {states.shape}"
        )
    _check_score(scores)
    batch = states.shape[0]
    lens = np.asarray(valid_lens, dtype=np.int64).reshape(batch)
    if variant == AIGRU:
        evolved, cache = _recur(params, aigru_inputs(states, scores), lens)
    else:
        evolved, cache = _recur(params, states, lens, scores, variant)
    cache.update(kind="evolve", variant=variant, states=states, scores=scores, lens=lens)
    last = np.maximum(lens - 1, 0)
    final = np.where((lens > 0)[:, None], evolved[np.arange(batch), last], 0.0)
    return evolved, final, cache


def evolve_backward(params: GruParams, cache, d_evolved, d_final):
    """Backward through evolve_forward.

    Returns (parameter grads, gradient on the interest states, gradient on
    the scores).  For the input-scaling cell the score gradient comes
    through the scaled inputs; the other cells return it from the loop.
    """
    if not isinstance(cache, dict) or cache.get("kind") != "evolve":
        raise UsageError("evolve_backward needs the cache produced by evolve_forward")
    lens = cache["lens"]
    d_upstream = np.array(d_evolved, dtype=np.float64)
    if d_final is not None:
        last = np.maximum(lens - 1, 0)
        rows = lens > 0
        d_upstream[np.arange(lens.shape[0])[rows], last[rows]] += d_final[rows]
    grads, d_inputs, d_scores = _recur_backward(params, cache, d_upstream)
    if cache["variant"] == AIGRU:
        d_scores = (d_inputs * cache["states"]).sum(axis=2)
        d_inputs = d_inputs * cache["scores"][..., None]
    return grads, d_inputs, d_scores


def attention_forward(states, targets, params: AttentionParams, valid_lens):
    """Relevance weights of each hidden state for each row's target.

    Logit for step t is h_t . (W e_a); weights are a masked softmax over the
    valid steps of each row, zero elsewhere.
    """
    states = np.asarray(states, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    batch, steps, n_h = states.shape
    lens = np.asarray(valid_lens, dtype=np.int64).reshape(batch)
    if np.any(lens < 1):
        raise DegenerateError("attention needs at least one valid step per row")
    if targets.shape != (batch, params.w.shape[1]):
        raise ShapeError(
            f"target shape {targets.shape} does not match attention weight "
            f"{params.w.shape}"
        )
    proj = targets @ params.w.T  # (B, n_hidden)
    logits = np.einsum("btn,bn->bt", states, proj)
    mask = step_masks(lens, batch, steps)
    shifted = np.where(mask > 0.0, logits, -np.inf)
    mx = shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted - mx) * mask
    scores = e / e.sum(axis=1, keepdims=True)
    cache = {"kind": "attention", "states": states, "targets": targets,
             "proj": proj, "scores": scores}
    return scores, cache


def attention_backward(params: AttentionParams, cache, d_scores):
    """Backward through attention_forward, including the softmax coupling.

    Returns (d_w, d_states, d_targets).
    """
    if not isinstance(cache, dict) or cache.get("kind") != "attention":
        raise UsageError("attention_backward needs the cache from attention_forward")
    scores = cache["scores"]
    states = cache["states"]
    d_scores = np.asarray(d_scores, dtype=np.float64)
    # softmax rows: d_logit = s * (d - sum(s * d)); masked entries have s = 0
    inner = (scores * d_scores).sum(axis=1, keepdims=True)
    d_logits = scores * (d_scores - inner)
    d_states = d_logits[:, :, None] * cache["proj"][:, None, :]
    d_proj = np.einsum("bt,btn->bn", d_logits, states)
    d_w = d_proj.T @ cache["targets"]
    d_targets = d_proj @ params.w
    return d_w, d_states, d_targets
