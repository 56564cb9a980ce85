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
gate-scaling cell uses a*u.  One batched time loop runs every recurrence;
the cells differ only in that blend gate, so a unit score gives the plain
cell and a zero score keeps the state, bit for bit.

The loop is packed, like `sequence_length` in a dynamic RNN: rows are
visited longest first, and step t computes gates for the rows still inside
their history only.  A row past its valid length repeats its last state,
and a row of length 0 stays at the zero state.  A batch whose lengths
already run longest first (full-length rows, say) is visited in its own
order and indexed by slices, with no per-step gather or scatter.

Backward passes are hand-derived, read the gate values the forward pass
keeps per step, and add parameter gradients into their caller's zeroed
arrays; a forward pass that no backward will read (scoring, probes) keeps
no gates, writing each step's into one reused set of buffers.  The
finite-difference harness in `training` checks every derivative here.

The layer functions take only what the engine in `model` builds (float64
arrays of matching widths, a valid step in every row the attention scores,
the cache of their own forward pass) and re-check none of it: each input
is checked once, where it enters the program.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .numerics import sigmoid

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

    @property
    def n_hidden(self) -> int:
        return self.w_update.shape[0]


def gru_shapes(n_input: int, n_hidden: int) -> dict[str, tuple]:
    """Field-order mapping of a cell's parameter names to their shapes, read
    from each name's prefix: w, u or b."""
    by_prefix = {"w": (n_hidden, n_input), "u": (n_hidden, n_hidden), "b": (n_hidden,)}
    return {f.name: by_prefix[f.name[0]] for f in fields(GruParams)}


@dataclass
class AttentionParams:
    """Bilinear form scoring hidden states against the target embedding."""

    w: np.ndarray  # (n_hidden, n_target)


# ---------------------------------------------------------------------------
# batched sequence engine
# ---------------------------------------------------------------------------


def _gates(params: GruParams, x, h_prev, out):
    """All gate values plus the recurrent candidate term h_prev @ Uc',
    written into `out`: four (n, H) arrays for update, reset, cand and
    cand_hid, each summed in the order x W' + h_prev U' + b."""
    update, reset, cand, cand_hid = out
    np.matmul(x, params.w_update.T, out=update)
    update += h_prev @ params.u_update.T
    update += params.b_update
    sigmoid(update, out=update)
    np.matmul(x, params.w_reset.T, out=reset)
    reset += h_prev @ params.u_reset.T
    reset += params.b_reset
    sigmoid(reset, out=reset)
    np.matmul(h_prev, params.u_cand.T, out=cand_hid)
    np.matmul(x, params.w_cand.T, out=cand)
    cand += reset * cand_hid
    cand += params.b_cand
    np.tanh(cand, out=cand)
    return out


def step_masks(valid_lens, batch: int, steps: int) -> np.ndarray:
    lens = np.asarray(valid_lens, dtype=np.int64).reshape(batch)
    return (np.arange(steps)[None, :] < lens[:, None]).astype(np.float64)


def _blend_gate(cell, update, score, out=None):
    """What blends h_prev with the candidate: u, a (AGRU) or a*u (AUGRU)."""
    if cell is None:
        return update
    return score if cell == AGRU else np.multiply(score, update, out=out)


def _recur(params: GruParams, inputs, valid_lens, scores=None, cell=None, *, keep=True):
    """The one time loop behind every recurrence, from the zero state.

    `cell` None runs the plain cell; AGRU and AUGRU read the (B, T) scores.
    Rows are visited longest first (a stable sort of the valid lengths), so
    step t runs the gates on the live prefix `order[:n_t]` only.  A row past
    its valid length is not stepped: its state carries forward.  When the
    lengths already run longest first, `order` is the slice of every row.

    `keep` keeps each step's gate values for the backward pass.  Off, no
    backward will run: every step writes its gates into one reused set of
    (B, H) buffers, and the cache is None.  Both ways run the same
    operations, so the states are bitwise the same.
    """
    batch, steps, n_input = inputs.shape
    n_hidden = params.n_hidden
    lens = np.asarray(valid_lens, dtype=np.int64).reshape(batch)
    in_order = bool(np.all(lens[:-1] >= lens[1:]))
    order = slice(None) if in_order else np.argsort(-lens, kind="stable")
    live = (lens[:, None] > np.arange(steps)).sum(axis=0)  # n_t
    h = np.zeros((batch, n_hidden))  # in visiting order
    states = np.empty((batch, steps, n_hidden))
    x_all = None if in_order else np.empty((batch, n_input))
    # the blend gate, (1 - gate) * h_prev and gate * cand: never cached
    blend = np.empty((3, batch, n_hidden))
    reused = None if keep else np.empty((4, batch, n_hidden))
    gates = []  # per step, (n_t, H) update, reset, cand and cand_hid
    for t, n in enumerate(live):
        rows = _live_rows(order, n)
        # the indices are in range, so "clip" only spares take a buffered copy
        x = inputs[rows, t] if in_order else np.take(inputs[:, t], rows, axis=0,
                                                       out=x_all[:n], mode="clip")
        step = [np.empty((n, n_hidden)) for _ in range(4)] if keep else reused[:, :n]
        u, _, c, _ = _gates(params, x, h[:n], step)
        gate = _blend_gate(cell, u, None if cell is None else scores[rows, t][:, None],
                           out=blend[0, :n])
        carried = np.subtract(1.0, gate, out=blend[1, :n])
        carried *= h[:n]
        np.add(carried, np.multiply(gate, c, out=blend[2, :n]), out=h[:n])
        states[order, t] = h
        if keep:
            gates.append(step)
    if not keep:
        return states, None
    cache = {"cell": cell, "inputs": inputs, "outputs": states, "scores": scores,
             "order": order, "live": live, "gates": gates}
    return states, cache


def _live_rows(order, n):
    """The first n rows in visiting order: a slice when `order` is one."""
    return slice(n) if isinstance(order, slice) else order[:n]


def _gate_backward(params, grads, x, gates, h_prev, d_update, d_cand, d_h_prev):
    """Shared gate chain rule for one step's live rows; returns (d_x, d_h_prev).

    d_update/d_cand are gradients on u and c (d_update None when the cell
    never used u); d_h_prev carries the direct blend contribution so far.
    """
    u, r, c, hl = gates

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


def _recur_backward(params: GruParams, cache, d_states, grads):
    """Backward through _recur, in the same visiting order, adding each
    step's parameter gradients into `grads`, keyed like GruParams' fields.

    Returns (d_inputs, d_scores); d_scores is None for the plain cell, and
    both are exactly zero past each row's valid length.
    The score couples through the blend gate: directly for AGRU, through
    a*u for AUGRU.  A row that is not live at step t passes its gradient
    straight back to the state it carried forward.
    """
    cell, scores, order = cache["cell"], cache["scores"], cache["order"]
    inputs, states = cache["inputs"], cache["outputs"]
    batch, steps, _ = inputs.shape
    d_inputs = np.zeros_like(inputs)
    d_scores = None if cell is None else np.zeros_like(scores)
    dh = np.zeros((batch, params.n_hidden))  # in visiting order
    for t in range(steps - 1, -1, -1):
        n = cache["live"][t]
        rows = _live_rows(order, n)
        dh = d_states[order, t] + dh
        u, _, c, _ = cache["gates"][t]
        h_prev = states[rows, t - 1] if t else np.zeros((n, params.n_hidden))
        a = None if cell is None else scores[rows, t][:, None]
        gate = _blend_gate(cell, u, a)
        d_raw = dh[:n]
        d_gate = d_raw * (c - h_prev)
        if cell is None:
            d_update = d_gate
        elif cell == AGRU:
            d_scores[rows, t] = d_gate.sum(axis=1)
            d_update = None
        else:
            d_scores[rows, t] = (d_gate * u).sum(axis=1)
            d_update = d_gate * a
        d_inputs[rows, t], dh[:n] = _gate_backward(
            params, grads, inputs[rows, t], cache["gates"][t], h_prev, d_update,
            d_raw * gate, d_raw * (1.0 - gate))
    return d_inputs, d_scores


def gru_forward(params: GruParams, inputs, valid_lens, *, keep=True):
    """Run the plain cell over (B, T, n_input) inputs with per-row lengths.

    Returns the (B, T, n_hidden) states and the cache the backward pass
    needs (None with `keep` off); rows past their valid length repeat their
    last state.
    """
    return _recur(params, inputs, valid_lens, keep=keep)


def gru_backward(params: GruParams, cache, d_states, grads):
    """Backward through gru_forward.

    d_states holds the upstream gradient on every hidden state.  Adds the
    parameter gradients into `grads` and returns d_inputs.
    """
    return _recur_backward(params, cache, d_states, grads)[0]


def evolve_forward(params: GruParams, states, scores, valid_lens, variant: str, *,
                   keep=True):
    """Run one evolution cell over the interest states.

    `states` is (B, T, n_hidden), `scores` the matching (B, T) relevance
    weights.  The input-scaling cell scales the states and runs the plain
    loop; the other two gate the blend with the scores.  Positions past a
    row's valid length carry the evolved state forward unchanged, so
    `evolved[:, -1]` is each row's final state (the zero state for a row of
    length 0).  Returns (evolved states, cache), the cache None with `keep`
    off.
    """
    if variant == AIGRU:
        evolved, cache = _recur(params, states * scores[..., None], valid_lens, keep=keep)
        if keep:
            cache.update(states=states, scores=scores)
        return evolved, cache
    return _recur(params, states, valid_lens, scores, variant, keep=keep)


def evolve_backward(params: GruParams, cache, d_evolved, grads):
    """Backward through evolve_forward.

    d_evolved holds the upstream gradient on every evolved state.  Adds the
    parameter gradients into `grads` and returns (gradient on the interest
    states, gradient on the scores).  For the input-scaling cell, which ran
    the plain loop, the score gradient comes through the scaled inputs; the
    other cells return it from the loop.
    """
    d_inputs, d_scores = _recur_backward(params, cache, d_evolved, grads)
    if cache["cell"] is None:
        d_scores = (d_inputs * cache["states"]).sum(axis=2)
        d_inputs = d_inputs * cache["scores"][..., None]
    return d_inputs, d_scores


def attention_forward(states, targets, params: AttentionParams, valid_lens):
    """Relevance weights of each hidden state for each row's target.

    Logit for step t is h_t . (W e_a); weights are a masked softmax over the
    valid steps of each row, zero elsewhere.
    """
    batch, steps, _ = states.shape
    proj = targets @ params.w.T  # (B, n_hidden)
    logits = np.einsum("btn,bn->bt", states, proj)
    mask = step_masks(valid_lens, batch, steps)
    shifted = np.where(mask > 0.0, logits, -np.inf)
    mx = shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted - mx) * mask
    scores = e / e.sum(axis=1, keepdims=True)
    cache = {"states": states, "targets": targets, "proj": proj, "scores": scores}
    return scores, cache


def attention_backward(params: AttentionParams, cache, d_scores, grads):
    """Backward through attention_forward, including the softmax coupling.

    Writes d_w into `grads["w"]` and returns (d_states, d_targets).
    """
    scores = cache["scores"]
    states = cache["states"]
    # softmax rows: d_logit = s * (d - sum(s * d)); masked entries have s = 0
    inner = (scores * d_scores).sum(axis=1, keepdims=True)
    d_logits = scores * (d_scores - inner)
    d_states = d_logits[:, :, None] * cache["proj"][:, None, :]
    d_proj = np.einsum("bt,btn->bn", d_logits, states)
    grads["w"][...] = d_proj.T @ cache["targets"]
    return d_states, d_proj @ params.w
