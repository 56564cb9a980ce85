"""Recurrent cells, attention, and evolution cells.

The backward passes are hand-derived, so every gradient surface here is
cross-checked against central finite differences; the engine's time loop is
additionally checked against a straight-line re-transcription of the gate
equations, and the cell identities (unit score, zero score) are exact.
"""

import numpy as np
import pytest

from dien.numerics import max_rel_error, sigmoid
from dien.recurrent import (
    AGRU,
    AIGRU,
    AUGRU,
    AttentionParams,
    EVOLUTION_VARIANTS,
    GruParams,
    attention_backward,
    attention_forward,
    evolve_backward,
    evolve_forward,
    gru_backward,
    gru_forward,
    step_masks,
)

from random_params import random_attention, random_gru


def zero_grads(params):
    """Zeroed gradient arrays keyed like a container's fields, for the
    backward passes to write into."""
    return {name: np.zeros_like(arr) for name, arr in vars(params).items()}


def zero_params(n_input, n_hidden):
    z = np.zeros
    return GruParams(
        w_update=z((n_hidden, n_input)), u_update=z((n_hidden, n_hidden)), b_update=z(n_hidden),
        w_reset=z((n_hidden, n_input)), u_reset=z((n_hidden, n_hidden)), b_reset=z(n_hidden),
        w_cand=z((n_hidden, n_input)), u_cand=z((n_hidden, n_hidden)), b_cand=z(n_hidden),
    )


def rand_params(n_input, n_hidden, seed):
    return random_gru(n_input, n_hidden, np.random.default_rng(seed))


def reference_gru_step(p, x, h, cell=None, a=None):
    """Independent transcription of the gate equations, kept deliberately
    flat so a transcription slip in the library shows up as a mismatch.
    What mixes h with the candidate is the update gate u for the plain cell,
    the score a for AGRU and a*u for AUGRU."""
    u = sigmoid(x @ p.w_update.T + h @ p.u_update.T + p.b_update)
    r = sigmoid(x @ p.w_reset.T + h @ p.u_reset.T + p.b_reset)
    c = np.tanh(x @ p.w_cand.T + r * (h @ p.u_cand.T) + p.b_cand)
    g = u if cell is None else (a if cell == AGRU else a * u)
    return (1.0 - g) * h + g * c


def reference_states(p, xs, scores=None, variant=None):
    """The engine's full-length (B, T, n) states, one reference step per
    time step over the whole batch, so the matrix products match the
    engine's and agreement is bitwise."""
    h, out = np.zeros((xs.shape[0], p.n_hidden)), []
    for t in range(xs.shape[1]):
        a = None if scores is None else scores[:, t][:, None]
        if variant == AIGRU:
            h = reference_gru_step(p, xs[:, t] * a, h)
        else:
            h = reference_gru_step(p, xs[:, t], h, variant, a)
        out.append(h)
    return np.stack(out, axis=1)


def input_driven_params(n):
    """All-zero parameters but an identity input-to-candidate map, so u is
    one half throughout and a zero input gives a zero candidate."""
    p = zero_params(n, n)
    p.w_cand[...] = np.eye(n)
    return p


class TestStepFunctions:
    """The engine's time loop, one step at a time."""

    def test_zero_params_halve_state(self):
        # u = 1/2 throughout and a zero input makes the candidate zero, so the
        # second step halves the first step's state
        p = input_driven_params(3)
        xs = np.array([[[0.5, -1.0, 2.0], [0.0, 0.0, 0.0]]])
        states, _ = gru_forward(p, xs, [2])
        assert np.all(states[0, 0] != 0.0)
        np.testing.assert_array_equal(states[0, 1], 0.5 * states[0, 0])

    def test_agru_midpoint_score(self):
        # score 1 takes the candidate whole, then score 1/2 against a zero
        # candidate halves the state
        p = input_driven_params(3)
        xs = np.array([[[0.5, -1.0, 2.0], [0.0, 0.0, 0.0]]])
        evolved, _ = evolve_forward(p, xs, np.array([[1.0, 0.5]]), [2], AGRU)
        np.testing.assert_array_equal(evolved[0, 0], np.tanh(xs[0, 0]))
        np.testing.assert_array_equal(evolved[0, 1], 0.5 * evolved[0, 0])

    def test_matches_reference_transcription(self):
        rng = np.random.default_rng(31)
        p = rand_params(3, 4, seed=32)
        xs = rng.standard_normal((5, 8, 3))
        states, _ = gru_forward(p, xs, np.full(5, 8))
        np.testing.assert_array_equal(states, reference_states(p, xs))

    def test_augru_matches_reference(self):
        rng = np.random.default_rng(33)
        p = rand_params(4, 4, seed=34)
        xs = rng.standard_normal((5, 8, 4))
        scores = rng.uniform(0.0, 1.0, size=(5, 8))
        evolved, _ = evolve_forward(p, xs, scores, np.full(5, 8), AUGRU)
        np.testing.assert_array_equal(evolved, reference_states(p, xs, scores, AUGRU))

    def test_batched_rows_match_single(self):
        # rows alone go through different matrix-product shapes than the
        # batch, so agreement is to rounding, not bit for bit
        rng = np.random.default_rng(35)
        p = rand_params(3, 4, seed=36)
        xs = rng.standard_normal((6, 5, 3))
        lens = np.array([5, 1, 3, 5, 2, 4])
        batched, _ = gru_forward(p, xs, lens)
        for k in range(6):
            alone, _ = gru_forward(p, xs[k:k + 1], lens[k:k + 1])
            np.testing.assert_allclose(batched[k], alone[0], atol=1e-12)


class TestCellIdentities:
    """Exact algebraic reductions between the cells, checked bitwise on the
    engine over ragged batches."""

    @staticmethod
    def draws(seed, n=1000):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            width = int(rng.integers(1, 7))
            batch, steps = int(rng.integers(1, 5)), int(rng.integers(2, 7))
            p = random_gru(width, width, rng)
            states = rng.standard_normal((batch, steps, width))
            yield rng, p, states, rng.integers(0, steps + 1, size=batch)

    def test_unit_score_reduces_to_plain_step(self):
        for _, p, states, lens in self.draws(40):
            plain, _ = gru_forward(p, states, lens)
            evolved, _ = evolve_forward(p, states, np.ones(states.shape[:2]), lens, AUGRU)
            np.testing.assert_array_equal(evolved, plain)

    def test_zero_score_is_identity(self):
        for rng, p, states, _ in self.draws(42):
            batch, steps, width = states.shape
            scores = rng.uniform(0.0, 1.0, size=(batch, steps))
            t = int(rng.integers(0, steps))
            scores[:, t] = 0.0
            for variant in (AGRU, AUGRU):
                evolved, _ = evolve_forward(p, states, scores, np.full(batch, steps), variant)
                prev = evolved[:, t - 1] if t else np.zeros((batch, width))
                np.testing.assert_array_equal(evolved[:, t], prev)

    def test_unit_scores_make_input_scaling_plain(self):
        # score 1 leaves the scaled inputs bit-identical, so the whole
        # input-scaling evolution trace must equal a plain recurrence
        for _, p, states, lens in self.draws(44):
            evolved, _ = evolve_forward(p, states, np.ones(states.shape[:2]), lens, AIGRU)
            plain, _ = gru_forward(p, states, lens)
            np.testing.assert_array_equal(evolved, plain)

    def test_input_scaling_values(self):
        # the input-scaling cell is the plain recurrence over score-scaled states
        rng = np.random.default_rng(46)
        p = rand_params(3, 3, seed=47)
        states = rng.standard_normal((2, 5, 3))
        scores = rng.uniform(0, 1, size=(2, 5))
        lens = [5, 3]
        evolved, _ = evolve_forward(p, states, scores, lens, AIGRU)
        plain, _ = gru_forward(p, states * scores[..., None], lens)
        np.testing.assert_array_equal(evolved, plain)


class TestSequenceEngine:
    def test_masks(self):
        np.testing.assert_array_equal(
            step_masks([2, 0, 3], 3, 3),
            [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
        )

    def test_batched_equals_per_row(self):
        # unsorted lengths with a tie and a zero-length row, so a packed
        # loop that visits rows longest first must put them back in order
        rng = np.random.default_rng(50)
        p = rand_params(3, 4, seed=51)
        xs = rng.standard_normal((5, 6, 3))
        lens = np.array([1, 6, 0, 3, 3])
        states, _ = gru_forward(p, xs, lens)
        for k in range(5):
            h = np.zeros(4)
            for t in range(6):
                if t < lens[k]:
                    h = reference_gru_step(p, xs[k, t], h)
                np.testing.assert_allclose(states[k, t], h, atol=1e-12)

    def test_frozen_rows_repeat_last_state(self):
        rng = np.random.default_rng(52)
        p = rand_params(2, 3, seed=53)
        xs = rng.standard_normal((1, 5, 2))
        states, _ = gru_forward(p, xs, [2])
        np.testing.assert_array_equal(states[0, 2], states[0, 1])
        np.testing.assert_array_equal(states[0, 4], states[0, 1])

    def test_zero_length_row_stays_at_h0(self):
        # every recurrence starts from h0 = 0
        p = rand_params(2, 3, seed=54)
        xs = np.ones((2, 4, 2))
        states, _ = gru_forward(p, xs, [0, 4])
        np.testing.assert_array_equal(states[0], np.zeros((4, 3)))
        assert np.all(states[1] != 0.0)

    @pytest.mark.parametrize("variant", [None, *EVOLUTION_VARIANTS])
    def test_forward_only_keeps_no_cache_and_the_same_states(self, variant):
        # the reused gate buffers of a forward-only pass hold each step's
        # prefix of live rows; the states must not tell the two apart
        rng = np.random.default_rng(55)
        p = rand_params(4, 4, seed=56)
        xs = rng.standard_normal((6, 7, 4))
        scores = rng.uniform(0, 1, size=(6, 7))
        lens = np.array([3, 7, 0, 1, 7, 5])
        runs = [gru_forward(p, xs, lens, keep=keep) if variant is None
                else evolve_forward(p, xs, scores, lens, variant, keep=keep)
                for keep in (True, False)]
        (kept, cache), (alone, none) = runs
        assert cache is not None and none is None
        np.testing.assert_array_equal(alone, kept)

    @pytest.mark.parametrize("variant", [None, *EVOLUTION_VARIANTS])
    def test_in_order_batch_matches_its_shuffle_bit_for_bit(self, variant):
        # distinct lengths, so both batches are visited in the same row
        # order: the in-order one through slices, the shuffled one through
        # gathers and scatters, with the same arithmetic row for row
        rng = np.random.default_rng(57)
        p = rand_params(3, 4, seed=58)
        xs = rng.standard_normal((6, 6, 3))
        scores = rng.uniform(0, 1, size=(6, 6))
        d_out = rng.standard_normal((6, 6, 4))
        lens = np.array([6, 5, 3, 2, 1, 0])
        perm = np.array([3, 0, 5, 1, 4, 2])

        def forward(rows, keep):
            if variant is None:
                return gru_forward(p, xs[rows], lens[rows], keep=keep)
            return evolve_forward(p, xs[rows], scores[rows], lens[rows], variant, keep=keep)

        def run(rows):
            out, cache = forward(rows, True)
            np.testing.assert_array_equal(forward(rows, False)[0], out)
            grads = zero_grads(p)
            if variant is None:
                return (out, grads, gru_backward(p, cache, d_out[rows], grads), None)
            return (out, grads, *evolve_backward(p, cache, d_out[rows], grads))

        ordered, shuffled = run(np.arange(6)), run(perm)
        for k in (0, 2, 3):  # states, d_inputs, d_scores
            if ordered[k] is not None:
                np.testing.assert_array_equal(shuffled[k], ordered[k][perm])
        for name, grad in ordered[1].items():
            np.testing.assert_array_equal(shuffled[1][name], grad, err_msg=name)

    def test_one_step_zero_param_backward(self):
        # from h0 = 0 with all-zero parameters h1 = u * tanh(b_cand) with
        # u = 1/2, so the gradient of sum(h1) w.r.t. b_cand is exactly one
        # half per coordinate and nothing reaches the update gate
        p = zero_params(2, 3)
        xs = np.ones((1, 1, 2))
        _, cache = gru_forward(p, xs, [1])
        grads = zero_grads(p)
        d_inputs = gru_backward(p, cache, np.ones((1, 1, 3)), grads)
        np.testing.assert_array_equal(grads["b_cand"], [0.5, 0.5, 0.5])
        np.testing.assert_array_equal(grads["b_update"], np.zeros(3))
        np.testing.assert_array_equal(d_inputs, np.zeros((1, 1, 2)))


def flat_check(loss, arr, analytic, tol=1e-6):
    """Finite-difference `loss()` along the entries of `arr`, which it reads
    and which is perturbed in place, one entry at a time, then restored.

    The four-point central stencil's truncation error is O(h^4), so at
    h = 1e-4 its error stays far below the tolerance; a two-point
    difference at its best step sits at the tolerance's own size and
    passes or fails by the draw.
    """
    h = 1e-4
    numeric = np.empty_like(arr)
    for idx in np.ndindex(arr.shape):
        orig = arr[idx]

        def f(step):
            arr[idx] = orig + step
            return loss()

        numeric[idx] = (8.0 * (f(h) - f(-h)) - (f(2 * h) - f(-2 * h))) / (12.0 * h)
        arr[idx] = orig
    assert max_rel_error(numeric, analytic, tol_floor=1e-4) < tol


class TestRecurrentGradients:
    """Every gradient surface of the sequence engine against central
    differences; ragged lengths keep the carried-forward rows honest."""

    def setup_method(self):
        rng = np.random.default_rng(60)
        self.p = rand_params(3, 4, seed=61)
        self.xs = rng.standard_normal((3, 5, 3))
        self.lens = np.array([5, 2, 4])
        self.proj = rng.standard_normal((3, 5, 4))  # fixed upstream weights

    def loss_forward(self):
        states, _ = gru_forward(self.p, self.xs, self.lens)
        return float((states * self.proj).sum())

    def test_input_gradient(self):
        _, cache = gru_forward(self.p, self.xs, self.lens)
        d_inputs = gru_backward(self.p, cache, self.proj, zero_grads(self.p))
        flat_check(self.loss_forward, self.xs, d_inputs)

    def test_parameter_gradients(self):
        _, cache = gru_forward(self.p, self.xs, self.lens)
        grads = zero_grads(self.p)
        gru_backward(self.p, cache, self.proj, grads)
        for name, arr in vars(self.p).items():
            flat_check(self.loss_forward, arr, grads[name])


class TestEvolutionGradients:
    """The loss reads every evolved state plus, separately, the final one;
    rows shorter than the batch send that final-state gradient back across
    the steps past their valid length.  The lengths are unsorted, with a tie
    and a zero-length row, so the packed loop's row order is exercised."""

    def setup_method(self):
        rng = np.random.default_rng(62)
        self.p = rand_params(4, 4, seed=63)
        self.states = rng.standard_normal((4, 5, 4))
        # keep a comfortable margin inside [0, 1] so FD bumps stay legal
        self.scores = rng.uniform(0.1, 0.9, size=(4, 5))
        self.lens = np.array([3, 5, 0, 3])
        self.proj = rng.standard_normal((4, 5, 4))
        self.proj_final = rng.standard_normal((4, 4))
        self.d_evolved = self.proj.copy()
        self.d_evolved[:, -1] += self.proj_final

    def loss(self, variant):
        evolved, _ = evolve_forward(self.p, self.states, self.scores, self.lens, variant)
        return float((evolved * self.proj).sum() + (evolved[:, -1] * self.proj_final).sum())

    def backward(self, variant):
        _, cache = evolve_forward(self.p, self.states, self.scores, self.lens, variant)
        grads = zero_grads(self.p)
        return (grads, *evolve_backward(self.p, cache, self.d_evolved, grads))

    @pytest.mark.parametrize("variant", EVOLUTION_VARIANTS)
    def test_state_gradient(self, variant):
        _, d_states, _ = self.backward(variant)
        flat_check(lambda: self.loss(variant), self.states, d_states)

    @pytest.mark.parametrize("variant", EVOLUTION_VARIANTS)
    def test_score_gradient(self, variant):
        _, _, d_scores = self.backward(variant)
        flat_check(lambda: self.loss(variant), self.scores, d_scores)

    @pytest.mark.parametrize("variant", EVOLUTION_VARIANTS)
    def test_parameter_gradients(self, variant):
        grads, _, _ = self.backward(variant)
        for name, arr in vars(self.p).items():
            if name.endswith("update") and variant == AGRU:
                # the gate-replacing cell never evaluates its update gate
                np.testing.assert_array_equal(grads[name], np.zeros_like(arr))
            else:
                flat_check(lambda: self.loss(variant), arr, grads[name])

    @pytest.mark.parametrize("variant", EVOLUTION_VARIANTS)
    def test_padded_positions_get_no_gradient(self, variant):
        _, d_states, d_scores = self.backward(variant)
        padded = step_masks(self.lens, 4, 5) == 0.0
        np.testing.assert_array_equal(d_states[padded], 0.0)
        np.testing.assert_array_equal(d_scores[padded], 0.0)


class TestAttention:
    def test_identity_weight_oracle(self):
        states = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        target = np.array([[1.0, 0.0]])
        scores, _ = attention_forward(states, target, AttentionParams(np.eye(2)), [2])
        np.testing.assert_allclose(scores[0], [0.7310586, 0.2689414], atol=1e-7)

    def test_rows_sum_to_one_masked_zero(self):
        rng = np.random.default_rng(70)
        params = random_attention(4, 3, rng)
        states = rng.standard_normal((4, 6, 4))
        targets = rng.standard_normal((4, 3))
        lens = np.array([6, 2, 1, 4])
        scores, _ = attention_forward(states, targets, params, lens)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-12)
        for k, n in enumerate(lens):
            np.testing.assert_array_equal(scores[k, n:], np.zeros(6 - n))
            assert np.all(scores[k, :n] > 0.0)

    def test_logit_shift_invariance(self):
        """Adding a constant to every valid logit leaves the weights alone.
        With a constant leading state coordinate, bumping the first row of
        the bilinear form shifts all logits equally."""
        rng = np.random.default_rng(71)
        w = rng.standard_normal((3, 2))
        target = np.array([2.0, -1.0])
        states = rng.standard_normal((1, 5, 3))
        states[..., 0] = 1.0
        shift = np.zeros((3, 2))
        shift[0] = 7.5 * target / float(target @ target)
        base, _ = attention_forward(states, target[None], AttentionParams(w), [5])
        bumped, _ = attention_forward(states, target[None], AttentionParams(w + shift), [5])
        np.testing.assert_allclose(base, bumped, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(73)
        params = random_attention(4, 3, rng)
        states = rng.standard_normal((3, 5, 4))
        targets = rng.standard_normal((3, 3))
        lens = np.array([5, 2, 4])
        proj = rng.standard_normal((3, 5))
        _, cache = attention_forward(states, targets, params, lens)
        grads = zero_grads(params)
        d_states, d_targets = attention_backward(params, cache, proj, grads)
        d_w = grads["w"]

        def loss():
            got, _ = attention_forward(states, targets, params, lens)
            return float((got * proj).sum())

        flat_check(loss, params.w, d_w)
        flat_check(loss, states, d_states)
        flat_check(loss, targets, d_targets)


class TestSingleSequenceSurfaces:
    @pytest.mark.parametrize("variant", EVOLUTION_VARIANTS)
    def test_evolve_matches_batched_engine(self, variant):
        # one row at a time through the reference cell, against the batch
        rng = np.random.default_rng(83)
        p = rand_params(3, 3, seed=84)
        hidden = rng.standard_normal((2, 6, 3))
        scores = rng.uniform(0, 1, size=(2, 6))
        lens = [4, 6]
        batched, _ = evolve_forward(p, hidden, scores, lens, variant)
        for k, n in enumerate(lens):
            h = np.zeros(3)
            for t in range(n):
                x, a = hidden[k, t], scores[k, t]
                if variant == AIGRU:
                    h = reference_gru_step(p, a * x, h)
                else:
                    h = reference_gru_step(p, x, h, variant, a)
                np.testing.assert_allclose(batched[k, t], h, atol=1e-12)
            frozen = np.broadcast_to(batched[k, n - 1], (6 - n, 3))
            np.testing.assert_array_equal(batched[k, n:], frozen)
