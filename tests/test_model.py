"""Model assembly: the variants, the losses, the batched engine against an
independent per-row loop, and the checkpoint format."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from dien.data import Instance
from dien.errors import ConfigError, ParseError, UsageError
from dien.model import (
    Batch,
    DienModel,
    MlpParams,
    ModelVariant,
    array_layout,
    draw_negative_items,
    forward_batch,
    make_batch,
    mlp_backward,
    mlp_forward,
    model_backward,
    total_loss,
)
from dien.numerics import finite_diff_grad, max_rel_error
from dien.recurrent import AGRU, AIGRU
from dien.training import Adam

from random_params import random_mlp

N_ITEMS = 12
N_CATS = 6


def build(variant, embed_dim=3, alpha=1.0, seed=0, mlp_hidden=(5,)):
    return DienModel.build(variant, N_ITEMS, N_CATS, embed_dim, 2 * embed_dim,
                           mlp_hidden, alpha, seed)


def with_target(rng, inst):
    """Another row over `inst`'s history, with a newly drawn target and label."""
    other = rand_instance(rng, length=1)
    return Instance(inst.history_items, inst.history_cats, other.target_item,
                    other.target_cat, other.label)


def rand_instance(rng, length=None, label=None):
    n = int(rng.integers(1, 6)) if length is None else length
    return Instance(
        history_items=tuple(int(v) for v in rng.integers(1, N_ITEMS, size=n)),
        history_cats=tuple(int(v) for v in rng.integers(1, N_CATS, size=n)),
        target_item=int(rng.integers(1, N_ITEMS)),
        target_cat=int(rng.integers(1, N_CATS)),
        label=int(rng.integers(0, 2)) if label is None else label,
    )


# -- independent oracle: one row at a time through a flat cell -------------
#
# The oracle shares only the parameters with the library: its cell, softmax,
# sigmoid and head are transcribed here from the equations.


def softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def sig(z):
    return 1.0 / (1.0 + np.exp(-z))


def log_sig(z):
    return -np.logaddexp(0.0, -z)


def cell_step(p, x, h, cell=None, a=None):
    """One gated step on vectors.  What mixes h with the candidate is the
    update gate u for the plain cell, the score a for AGRU and a*u for AUGRU."""
    u = sig(p.w_update @ x + p.u_update @ h + p.b_update)
    r = sig(p.w_reset @ x + p.u_reset @ h + p.b_reset)
    c = np.tanh(p.w_cand @ x + r * (p.u_cand @ h) + p.b_cand)
    g = u if cell is None else (a if cell == AGRU else a * u)
    return (1.0 - g) * h + g * c


def run_cell(params, inputs, cell=None, scores=None):
    """States of one sequence from the zero state, one step per input."""
    h, out = np.zeros(params.n_hidden), []
    for t, x in enumerate(inputs):
        h = cell_step(params, x, h, cell, None if scores is None else scores[t])
        out.append(h)
    return np.array(out)


def row_embeddings(model, inst):
    behaviors = np.concatenate([model.item_table.lookup_many(inst.history_items),
                                model.cat_table.lookup_many(inst.history_cats)], axis=1)
    target = np.concatenate([model.item_table.lookup(inst.target_item),
                             model.cat_table.lookup(inst.target_cat)])
    return behaviors, target


def oracle(model, inst):
    """(click probability, extractor states) of one unpadded row."""
    xs, target = row_embeddings(model, inst)
    states = None
    if not model.variant.recurrent:
        interest = xs.sum(axis=0)
    else:
        states = run_cell(model.extractor, xs)
        cell = model.variant.evolution_cell
        attended = states if cell else run_cell(model.evolver, states)
        scores = softmax(attended @ (model.attention.w @ target))
        if cell is None:
            interest = scores @ attended
        elif cell == AIGRU:
            interest = run_cell(model.evolver, states * scores[:, None])[-1]
        else:
            interest = run_cell(model.evolver, states, cell, scores)[-1]
    z = np.concatenate([interest, target])
    last = len(model.mlp.weights) - 1
    for k, (w, b) in enumerate(zip(model.mlp.weights, model.mlp.biases)):
        z = w @ z + b
        z = z if k == last else np.maximum(z, 0.0)
    return sig(z[0]), states


def oracle_aux(model, insts, neg_items, neg_cats):
    """Next-behavior loss: each state but the last against the next behavior
    and its impostor, summed over rows and divided by the row count."""
    total = 0.0
    for k, inst in enumerate(insts):
        xs, _ = row_embeddings(model, inst)
        states = oracle(model, inst)[1]
        for t in range(len(xs) - 1):
            neg = np.concatenate([model.item_table.lookup(neg_items[k, t]),
                                  model.cat_table.lookup(neg_cats[k, t])])
            total += log_sig(states[t] @ xs[t + 1]) + log_sig(-(states[t] @ neg))
    return -total / len(insts)


class TestVariant:
    def test_parse_round_trip(self):
        for v in ModelVariant:
            assert ModelVariant.parse(v.value) is v
        assert ModelVariant.parse(" DIEN ") is ModelVariant.DIEN

    def test_parse_unknown(self):
        with pytest.raises(ConfigError, match="unknown variant"):
            ModelVariant.parse("attention_only")

    def test_structure_flags(self):
        assert not ModelVariant.BASE.recurrent
        assert ModelVariant.BASE.evolution_cell is None
        assert ModelVariant.TWO_LAYER_GRU_ATT.evolution_cell is None
        assert ModelVariant.GRU_AUGRU.evolution_cell == ModelVariant.DIEN.evolution_cell
        assert ModelVariant.DIEN.wants_aux
        assert not ModelVariant.GRU_AUGRU.wants_aux


class TestBuild:
    def test_recurrent_needs_matching_width(self):
        # next-behavior scoring is an inner product, so the state width must
        # equal the item+category embedding width
        with pytest.raises(ConfigError, match="hidden_size"):
            DienModel.build(ModelVariant.DIEN, N_ITEMS, N_CATS, 3, 5, (4,), 1.0, 0)

    def test_base_ignores_hidden_width(self):
        model = DienModel.build(ModelVariant.BASE, N_ITEMS, N_CATS, 3, 17, (4,), 0.0, 0)
        assert model.extractor is None and model.attention is None

    def test_seeded_build_reproducible(self):
        a = build(ModelVariant.DIEN, seed=3)
        b = build(ModelVariant.DIEN, seed=3)
        for name, arr in a.all_arrays().items():
            np.testing.assert_array_equal(arr, b.all_arrays()[name])

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_draw_bounds_and_determinism(self, variant):
        # every weight in ±1/sqrt(its last axis), each bias in the bound of
        # the weight before it, and a seed gives the same arrays every time
        model = build(variant, seed=3, mlp_hidden=(7, 2))
        again = build(variant, seed=3, mlp_hidden=(7, 2))
        for name, arr in model.param_arrays().items():
            if arr.ndim > 1:
                bound = 1.0 / np.sqrt(arr.shape[-1])
            assert np.all(np.abs(arr) <= bound), name
            assert np.all(arr != 0.0), name
            np.testing.assert_array_equal(arr, again.param_arrays()[name])

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_containers_are_the_dense_arrays(self, variant, tmp_path):
        model = build(variant, seed=4)
        fields = {}
        for k, (w, b) in enumerate(zip(model.mlp.weights, model.mlp.biases)):
            fields[f"mlp.w{k}"], fields[f"mlp.b{k}"] = w, b
        if variant.recurrent:
            for group in ("extractor", "evolver"):
                for name, arr in vars(getattr(model, group)).items():
                    fields[f"{group}.{name}"] = arr
            fields["attention.w"] = model.attention.w
        params, every = model.param_arrays(), model.all_arrays()
        assert list(params) == list(every)[2:]
        assert set(fields) == set(params)
        for name, arr in params.items():
            assert arr is every[name] and arr is fields[name], name
        # load writes the file's arrays in place, and the engine reads them
        rng = np.random.default_rng(5)
        batch = make_batch([rand_instance(rng) for _ in range(4)])
        model.save(tmp_path / "model.ckpt")
        back = DienModel.load(tmp_path / "model.ckpt")
        probs = forward_batch(model, batch)["probs"]
        np.testing.assert_array_equal(forward_batch(back, batch)["probs"], probs)
        # so do the dense Adam updates
        Adam(model.param_arrays(), [], lr=0.1).step(
            model_backward(model, forward_batch(model, batch)))
        assert not np.array_equal(forward_batch(model, batch)["probs"], probs)

    def test_param_names_prefixed(self):
        model = build(ModelVariant.DIEN)
        names = set(model.param_arrays())
        assert "extractor.w_update" in names
        assert "evolver.u_cand" in names
        assert "attention.w" in names
        assert "mlp.w0" in names
        base_names = set(build(ModelVariant.BASE).param_arrays())
        assert all(n.startswith("mlp.") for n in base_names)


class TestMlp:
    def test_forward_zero_params_gives_zero_logit(self):
        mlp = MlpParams(weights=[np.zeros((4, 3)), np.zeros((1, 4))],
                        biases=[np.zeros(4), np.zeros(1)])
        logits, _ = mlp_forward(mlp, np.ones((2, 3)))
        np.testing.assert_array_equal(logits, [0.0, 0.0])

    def test_backward_against_finite_differences(self):
        rng = np.random.default_rng(90)
        mlp = random_mlp([4, 6, 3, 1], rng)
        feats = rng.standard_normal((5, 4))
        proj = rng.standard_normal(5)
        logits, cache = mlp_forward(mlp, feats)
        grads = {}
        for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            grads[f"w{i}"], grads[f"b{i}"] = np.zeros_like(w), np.zeros_like(b)
        d_feats = mlp_backward(mlp, cache, proj, grads)

        def loss() -> float:
            got, _ = mlp_forward(mlp, feats)
            return float(got @ proj)

        num = finite_diff_grad(loss, feats, epsilon=1e-6)
        assert max_rel_error(num, d_feats, tol_floor=1e-4) < 1e-6
        for i, w in enumerate(mlp.weights):
            num = finite_diff_grad(loss, w, epsilon=1e-6)
            assert max_rel_error(num, grads[f"w{i}"], tol_floor=1e-4) < 1e-6


def zero_mlp(model):
    for arr in model.mlp.weights + model.mlp.biases:
        arr[...] = 0.0
    return model


def probs_of(model, insts):
    return forward_batch(model, make_batch(insts))["probs"]


class TestBaseForward:
    def test_zero_everything_gives_half(self):
        model = zero_mlp(build(ModelVariant.BASE))
        rng = np.random.default_rng(90)
        np.testing.assert_array_equal(probs_of(model, [rand_instance(rng)]), [0.5])

    def test_empty_history_still_in_open_interval(self):
        model = build(ModelVariant.BASE)
        empty = Batch(history_items=np.zeros((1, 1), dtype=np.int64),
                      history_cats=np.zeros((1, 1), dtype=np.int64),
                      history_lens=np.array([0]),
                      target_items=np.array([1]), target_cats=np.array([1]),
                      labels=np.array([1.0]), history_of=np.arange(1),
                      first_rows=np.arange(1))
        p = forward_batch(model, empty)["probs"][0]
        assert 0.0 < p < 1.0

    def test_history_permutation_invariant(self):
        rng = np.random.default_rng(91)
        model = build(ModelVariant.BASE)
        inst = rand_instance(rng, length=5)
        perm = rng.permutation(5)
        shuffled = Instance(
            history_items=tuple(inst.history_items[i] for i in perm),
            history_cats=tuple(inst.history_cats[i] for i in perm),
            target_item=inst.target_item, target_cat=inst.target_cat, label=inst.label,
        )
        a, b = probs_of(model, [inst, shuffled])
        assert a == pytest.approx(b, abs=1e-12)


class TestDienForward:
    def test_single_step_uniform_attention_is_one_gru_step(self):
        # one valid step softmaxes to a score of exactly 1.0, and the
        # gate-scaling cell collapses to a plain step from the zero state
        model = build(ModelVariant.GRU_AUGRU, seed=7)
        rng = np.random.default_rng(92)
        ctx = forward_batch(model, make_batch([rand_instance(rng, length=1)]))
        np.testing.assert_array_equal(ctx["scores"], [[1.0]])
        x = ctx["behaviors"][0, 0]
        h1 = cell_step(model.extractor, x, np.zeros(6))
        h_final = cell_step(model.evolver, h1, np.zeros(6))
        np.testing.assert_allclose(ctx["evolved"][0, 0], h_final, atol=1e-12)

    def test_order_sensitivity(self):
        rng = np.random.default_rng(93)
        model = build(ModelVariant.DIEN, seed=8)
        inst = rand_instance(rng, length=5)
        reversed_inst = Instance(
            history_items=inst.history_items[::-1], history_cats=inst.history_cats[::-1],
            target_item=inst.target_item, target_cat=inst.target_cat, label=inst.label,
        )
        assert inst.history_items != reversed_inst.history_items
        a, b = probs_of(model, [inst, reversed_inst])
        assert abs(a - b) > 1e-9

    def test_padding_beyond_valid_is_inert(self):
        rng = np.random.default_rng(94)
        for variant in (ModelVariant.TWO_LAYER_GRU_ATT, ModelVariant.GRU_AIGRU,
                        ModelVariant.GRU_AGRU, ModelVariant.DIEN):
            model = build(variant, seed=9)
            inst = rand_instance(rng, length=4)
            padded = [inst, rand_instance(rng, length=9)]  # pads inst to 9 steps
            assert probs_of(model, padded)[0] == pytest.approx(
                probs_of(model, [inst])[0], abs=1e-12)

    def test_probability_open_interval_all_variants(self):
        rng = np.random.default_rng(95)
        for variant in ModelVariant:
            model = build(variant, seed=10)
            p = probs_of(model, [rand_instance(rng) for _ in range(10)])
            assert np.all((0.0 < p) & (p < 1.0))


def logit_by_target(logits):
    """A one-layer sum-pooling model whose logit is logits[k] for target
    item k + 1, whatever the history."""
    model = build(ModelVariant.BASE, embed_dim=1, mlp_hidden=())
    model.item_table.weights[1:len(logits) + 1, 0] = logits
    model.mlp.weights[0][...] = [[0.0, 0.0, 1.0, 0.0]]  # the target item's coordinate
    model.mlp.biases[0][...] = 0.0
    return model


def click_loss(model, labels):
    insts = [Instance((1,), (1,), k + 1, 1, y) for k, y in enumerate(labels)]
    return forward_batch(model, make_batch(insts))["l_target"]


def aux_ctx(model, insts, neg_items, neg_cats):
    return forward_batch(model, make_batch(insts), negatives=(np.asarray(neg_items),
                                                              np.asarray(neg_cats)))


def constant_extractor(model, b_cand):
    """Zero extractor weights: every state is (1 - 2^-t) tanh(b_cand)."""
    for arr in vars(model.extractor).values():
        arr[...] = 0.0
    model.extractor.b_cand[...] = b_cand
    return model


class TestLosses:
    def test_target_loss_uninformative(self):
        model = zero_mlp(build(ModelVariant.BASE))
        assert click_loss(model, [1]) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_target_loss_formula_oracle(self):
        got = click_loss(logit_by_target([np.log(9.0), -np.log(9.0)]), [1, 0])
        assert got == pytest.approx(0.1053605, abs=1e-7)  # -log 0.9

    def test_target_loss_perfect_fit_limit(self):
        assert click_loss(logit_by_target([40.0, -40.0]), [1, 0]) < 1e-10

    def test_aux_loss_uninformative(self):
        # zero states score every behavior 0: log 2 per term, two terms
        model = constant_extractor(build(ModelVariant.DIEN), 0.0)
        ctx = aux_ctx(model, [Instance((1, 2), (1, 2), 3, 3, 1)], [[4]], [[4]])
        assert ctx["l_aux"] == pytest.approx(2.0 * np.log(2.0), abs=1e-12)

    def test_aux_loss_formula_oracle(self):
        model = build(ModelVariant.DIEN, seed=20)
        ctx = aux_ctx(model, [Instance((1, 2), (1, 2), 3, 3, 1)], [[4]], [[5]])
        h = ctx["states1"][0, 0]
        pos = np.concatenate([model.item_table.lookup(2), model.cat_table.lookup(2)])
        neg = np.concatenate([model.item_table.lookup(4), model.cat_table.lookup(5)])
        expect = -(np.log(1.0 / (1.0 + np.exp(-h @ pos)))
                   + np.log(1.0 - 1.0 / (1.0 + np.exp(-h @ neg))))
        assert ctx["l_aux"] == pytest.approx(expect, abs=1e-12)

    def test_aux_loss_saturates_to_zero(self):
        model = constant_extractor(build(ModelVariant.DIEN), 50.0)  # states 0.5
        for table, pos, neg in ((model.item_table, 2, 4), (model.cat_table, 2, 5)):
            table.weights[pos] = 100.0
            table.weights[neg] = -100.0
        ctx = aux_ctx(model, [Instance((1, 2), (1, 2), 3, 3, 1)], [[4]], [[5]])
        assert 0.0 <= ctx["l_aux"] < 1e-12

    def test_aux_loss_positive_and_monotone(self):
        model = build(ModelVariant.DIEN, seed=21)
        inst = Instance((1, 2), (1, 2), 3, 3, 1)
        ctx = aux_ctx(model, [inst], [[4]], [[5]])
        assert ctx["l_aux"] > 0.0
        # moving the next behavior towards the first state raises its score
        # and leaves that state alone
        h = ctx["states1"][0, 0]
        model.item_table.weights[2] += 0.5 * h[:3]
        model.cat_table.weights[2] += 0.5 * h[3:]
        assert aux_ctx(model, [inst], [[4]], [[5]])["l_aux"] < ctx["l_aux"]

    def test_aux_loss_single_step_skipped(self):
        model = build(ModelVariant.DIEN, seed=22)
        rows = [Instance((1,), (1,), 3, 3, 1), Instance((2,), (2,), 4, 4, 0)]
        ctx = aux_ctx(model, rows, np.zeros((2, 0), dtype=np.int64),
                      np.zeros((2, 0), dtype=np.int64))
        assert ctx["l_aux"] == 0.0
        # a one-step row beside a longer one adds nothing but its share of B
        mixed = [Instance((1, 2), (1, 2), 3, 3, 1), Instance((5,), (1,), 4, 4, 0)]
        alone = aux_ctx(model, mixed[:1], [[4]], [[5]])["l_aux"]
        both = aux_ctx(model, mixed, [[4], [4]], [[5], [5]])["l_aux"]
        assert both == pytest.approx(alone / 2.0, abs=1e-12)

    def test_aux_loss_normalizes_by_instances(self):
        model = build(ModelVariant.DIEN, seed=23)
        inst = Instance((1, 2, 6), (1, 2, 3), 3, 3, 1)
        one = aux_ctx(model, [inst], [[4, 7]], [[5, 1]])["l_aux"]
        two = aux_ctx(model, [inst, inst], [[4, 7]] * 2, [[5, 1]] * 2)["l_aux"]
        assert one == pytest.approx(two, abs=1e-12)

    def test_total_loss(self):
        assert total_loss(0.7, 9.0, 0.0) == 0.7
        assert total_loss(0.6931, 1.3863, 1.0) == pytest.approx(2.0794, abs=1e-10)
        assert total_loss(1.0, 2.0, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_total_loss_monotone(self):
        assert total_loss(1.1, 2.0, 0.7) > total_loss(1.0, 2.0, 0.7)
        assert total_loss(1.0, 2.1, 0.7) > total_loss(1.0, 2.0, 0.7)


class TestBatching:
    def test_make_batch_pads_with_reserved_id(self):
        rng = np.random.default_rng(97)
        insts = [rand_instance(rng, length=2), rand_instance(rng, length=4)]
        batch = make_batch(insts)
        assert batch.item_ids.shape == (2, 4)
        np.testing.assert_array_equal(batch.item_ids[0, 2:], [0, 0])
        np.testing.assert_array_equal(batch.history_lens, [2, 4])

    def test_make_batch_numbers_distinct_histories(self):
        rng = np.random.default_rng(98)
        insts = [rand_instance(rng, length=n) for n in (3, 1, 3, 2)]
        batch = make_batch(insts)
        np.testing.assert_array_equal(batch.first_rows, np.arange(4))
        np.testing.assert_array_equal(batch.history_of, np.arange(4))
        assert not batch.repeats
        # a pair, then a row repeating the first history further on
        batch = make_batch([insts[0], with_target(rng, insts[0]), insts[1],
                            with_target(rng, insts[0])])
        np.testing.assert_array_equal(batch.history_of, [0, 0, 1, 0])
        np.testing.assert_array_equal(batch.first_rows, [0, 2])
        np.testing.assert_array_equal(batch.item_ids[3], batch.item_ids[0])
        np.testing.assert_array_equal(batch.history_lens[batch.history_of], [3, 3, 1, 3])
        # the same items in other categories are another history
        recat = Instance(insts[0].history_items, tuple(c % (N_CATS - 1) + 1
                                                       for c in insts[0].history_cats),
                         1, 1, 0)
        np.testing.assert_array_equal(make_batch([insts[0], recat]).first_rows, [0, 1])

    def test_negative_draws_avoid_exclusions(self):
        rng = np.random.default_rng(99)
        excluded = rng.integers(1, N_ITEMS, size=(64, 9))
        draws = draw_negative_items(rng, N_ITEMS, excluded)
        assert draws.shape == excluded.shape
        assert np.all(draws != excluded)
        assert np.all(draws >= 1) and np.all(draws < N_ITEMS)

    def test_negative_draws_cover_everything_else(self):
        rng = np.random.default_rng(100)
        excluded = np.full(20000, 5)
        draws = draw_negative_items(rng, 8, excluded)
        assert set(np.unique(draws)) == {1, 2, 3, 4, 6, 7}
        counts = np.bincount(draws, minlength=8)[[1, 2, 3, 4, 6, 7]]
        expected = 20000 / 6.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 15.09  # p = 0.01 critical value, 5 dof

    def test_negative_draws_tiny_vocab(self):
        with pytest.raises(ConfigError):
            draw_negative_items(np.random.default_rng(0), 2, np.array([1]))


class TestBatchedEngineAgreement:
    """The padded batch engine against the per-row oracle above, which shares
    nothing with it but the parameters."""

    def batch_rows(self, rng):
        rows = [rand_instance(rng, length=n) for n in (3, 1, 5, 2, 4, 5, 1, 2)]
        # rows over an earlier row's history with another target: one right
        # after it, as in a corpus pair, and one far from it
        rows.insert(3, with_target(rng, rows[2]))
        rows.append(with_target(rng, rows[0]))
        return rows

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_probabilities_match(self, variant):
        rng = np.random.default_rng(101)
        model = build(variant, seed=11)
        insts = self.batch_rows(rng)
        probs = forward_batch(model, make_batch(insts))["probs"]
        expect = [oracle(model, inst)[0] for inst in insts]
        np.testing.assert_allclose(probs, expect, rtol=0.0, atol=1e-10)

    def test_click_loss_matches_standalone(self):
        rng = np.random.default_rng(102)
        model = build(ModelVariant.DIEN, seed=12)
        insts = self.batch_rows(rng)
        p = np.array([oracle(model, inst)[0] for inst in insts])
        y = np.array([inst.label for inst in insts])
        expect = -np.mean(y * np.log(p) + (1 - y) * np.log(1.0 - p))
        assert forward_batch(model, make_batch(insts))["l_target"] == pytest.approx(
            expect, abs=1e-10)

    def test_aux_loss_matches_standalone(self):
        rng = np.random.default_rng(103)
        model = build(ModelVariant.DIEN, seed=13)
        insts = self.batch_rows(rng)
        batch = make_batch(insts)
        assert batch.repeats
        neg_items = draw_negative_items(rng, N_ITEMS, batch.item_ids[:, 1:])
        neg_cats = (neg_items - 1) % (N_CATS - 1) + 1
        ctx = forward_batch(model, batch, negatives=(neg_items, neg_cats))
        expect = oracle_aux(model, insts, neg_items, neg_cats)
        assert ctx["l_aux"] == pytest.approx(expect, abs=1e-10)

    @pytest.mark.parametrize("variant", [v for v in ModelVariant if v.recurrent])
    def test_repeated_histories_share_extractor_states(self, variant):
        rng = np.random.default_rng(107)
        model = build(variant, seed=17)
        batch = make_batch(self.batch_rows(rng))
        ctx = forward_batch(model, batch)
        assert ctx["cache1"]["inputs"].shape[0] == batch.first_rows.size == 8
        np.testing.assert_array_equal(ctx["states1"][3], ctx["states1"][2])
        np.testing.assert_array_equal(ctx["states1"][-1], ctx["states1"][0])

    def test_hand_built_batch_runs_every_row(self):
        # a Batch numbered np.arange(B) treats every row as its own history
        rng = np.random.default_rng(108)
        model = build(ModelVariant.DIEN, seed=18)
        insts = self.batch_rows(rng)
        numbered = make_batch(insts)
        rows = np.arange(len(insts))
        plain = Batch(history_items=numbered.item_ids, history_cats=numbered.cat_ids,
                      history_lens=numbered.history_lens[numbered.history_of],
                      target_items=numbered.target_items,
                      target_cats=numbered.target_cats, labels=numbered.labels,
                      history_of=rows, first_rows=rows)
        assert not plain.repeats
        ctx = forward_batch(model, plain)
        assert ctx["cache1"]["inputs"].shape[0] == len(insts)
        np.testing.assert_allclose(ctx["probs"], forward_batch(model, numbered)["probs"],
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_summed_backward_matches_rows_apart(self, variant):
        # summing per history, then one extractor backward, is the same
        # derivative as one extractor backward per row
        rng = np.random.default_rng(109)
        model = build(variant, seed=19)
        numbered = make_batch(self.batch_rows(rng))
        rows = np.arange(numbered.labels.size)
        plain = dataclasses.replace(numbered, history_items=numbered.item_ids,
                                    history_cats=numbered.cat_ids,
                                    history_lens=numbered.history_lens[numbered.history_of],
                                    history_of=rows, first_rows=rows)
        neg_items = draw_negative_items(rng, N_ITEMS, numbered.item_ids[:, 1:])
        negatives = (neg_items, (neg_items - 1) % (N_CATS - 1) + 1)
        grads, tables = [], []
        for batch in (numbered, plain):
            model.item_table.zero_grad()
            model.cat_table.zero_grad()
            grads.append(model_backward(model, forward_batch(model, batch, negatives)))
            tables.append([model.item_table.grad_columns(), model.cat_table.grad_columns()])
        assert grads[0].keys() == grads[1].keys()
        for name in grads[0]:
            np.testing.assert_allclose(grads[0][name], grads[1][name], rtol=1e-12, atol=1e-15)
        for a, b in zip(*tables):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_zero_alpha_negatives_get_no_gradient(self):
        # the impostor ids only touch the tables through the next-behavior
        # loss, so with alpha = 0 their accumulated gradient must be zero
        rng = np.random.default_rng(104)
        model = build(ModelVariant.DIEN, alpha=0.0, seed=14)
        insts = [Instance((1, 2, 3), (1, 2, 3), 4, 4, 1) for _ in range(3)]
        batch = make_batch(insts)
        neg_items = np.full((3, 2), 9)  # never appears in histories/targets
        neg_cats = np.full((3, 2), 5)
        ctx = forward_batch(model, batch, negatives=(neg_items, neg_cats))
        model.item_table.zero_grad()
        model.cat_table.zero_grad()
        model_backward(model, ctx)
        touched = model.item_table.touched_ids()
        assert 9 in touched  # touched by the masked accumulate
        np.testing.assert_array_equal(model.item_table.grad_columns()[:, 9], np.zeros(3))
        assert 0 not in touched  # padding never receives gradient

    def test_padding_id_never_touched(self):
        rng = np.random.default_rng(105)
        model = build(ModelVariant.DIEN, seed=15)
        insts = [rand_instance(rng, length=int(n)) for n in (5, 2, 1)]
        batch = make_batch(insts)
        neg_items = draw_negative_items(rng, N_ITEMS, batch.item_ids[:, 1:])
        neg_cats = (neg_items - 1) % (N_CATS - 1) + 1
        ctx = forward_batch(model, batch, negatives=(neg_items, neg_cats))
        model.item_table.zero_grad()
        model.cat_table.zero_grad()
        model_backward(model, ctx)
        assert 0 not in model.item_table.touched_ids()
        assert 0 not in model.cat_table.touched_ids()

    def test_one_accumulate_call_per_table_in_order(self, monkeypatch):
        # each id's rows sum in input order, so the order is part of the
        # arithmetic: masked negatives, then masked behaviors, then targets;
        # the behaviors are each distinct history's ids, once
        rng = np.random.default_rng(106)
        model = build(ModelVariant.DIEN, seed=16)
        insts = [rand_instance(rng, length=int(n)) for n in (5, 2, 1)]
        for rows in (insts, [*insts[:2], with_target(rng, insts[0]), insts[2]]):
            batch = make_batch(rows)
            neg_items = draw_negative_items(rng, N_ITEMS, batch.item_ids[:, 1:])
            neg_cats = (neg_items - 1) % (N_CATS - 1) + 1
            ctx = forward_batch(model, batch, negatives=(neg_items, neg_cats))
            calls = []
            monkeypatch.setattr(model.item_table, "accumulate_grad_many",
                                lambda ids, grads: calls.append(("item", ids, grads.shape)))
            monkeypatch.setattr(model.cat_table, "accumulate_grad_many",
                                lambda ids, grads: calls.append(("cat", ids, grads.shape)))
            model_backward(model, ctx)
            keep, keep_next = ctx["mask"].astype(bool), ctx["mask_next"].astype(bool)
            assert keep.shape[0] == batch.first_rows.size == 3
            assert keep_next.shape[0] == len(rows)
            assert [name for name, *_ in calls] == ["item", "cat"]
            for (_, ids, shape), negs, behaviors, targets in zip(
                    calls, (neg_items, neg_cats), (batch.history_items, batch.history_cats),
                    (batch.target_items, batch.target_cats)):
                np.testing.assert_array_equal(
                    ids, np.concatenate([negs[keep_next], behaviors[keep], targets]))
                assert shape == (ids.size, 3)

    @pytest.mark.parametrize("variant", [ModelVariant.DIEN, ModelVariant.BASE])
    def test_backward_refuses_a_forward_only_context(self, variant):
        rng = np.random.default_rng(107)
        model = build(variant, seed=17)
        batch = make_batch([rand_instance(rng) for _ in range(4)])
        ctx = forward_batch(model, batch, for_backward=False)
        if variant.recurrent:
            assert ctx["cache1"] is None and ctx["ecache"] is None
        with pytest.raises(UsageError, match="for_backward=True"):
            model_backward(model, ctx)
        assert model.item_table.touched_ids().size == 0


class TestForwardOnlyMemory:
    def test_scoring_keeps_no_per_step_caches(self):
        # a 512-row, 10-step DIEN chunk at the default widths: without the
        # per-step gate values the traced peak is under half the caching
        # call's, so backward caches cannot creep back into scoring
        rng = np.random.default_rng(108)
        model = DienModel.build(ModelVariant.DIEN, 201, 11, 16, 32, (64, 32), 1.0, seed=0)
        rows = []
        for _ in range(256):
            items = tuple(int(v) for v in rng.integers(1, 201, size=10))
            cats = tuple(int(v) for v in rng.integers(1, 11, size=10))
            rows += [Instance(items, cats, int(rng.integers(1, 201)),
                              int(rng.integers(1, 11)), label) for label in (1, 0)]
        batch = make_batch(rows)
        peaks = []
        for for_backward in (True, False):
            tracemalloc.start()
            try:
                forward_batch(model, batch, for_backward=for_backward)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        caching, forward_only = peaks
        assert forward_only <= 0.5 * caching


class TestCheckpoint:
    @pytest.mark.parametrize("variant", [ModelVariant.BASE, ModelVariant.DIEN])
    def test_round_trip(self, variant, tmp_path):
        model = build(variant, alpha=0.25, seed=16)
        path = tmp_path / "model.ckpt"
        model.save(path)
        back = DienModel.load(path)
        assert back.variant is variant
        assert back.alpha == 0.25
        for name, arr in model.all_arrays().items():
            np.testing.assert_array_equal(back.all_arrays()[name], arr)

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        # the file fills allocated arrays: no seeded model is drawn first
        model = build(ModelVariant.DIEN, seed=22)
        model.save(tmp_path / "model.ckpt")

        def undrawn(*args, **kwargs):
            raise AssertionError("DienModel.load drew a model")

        monkeypatch.setattr(np.random, "default_rng", undrawn)
        back = DienModel.load(tmp_path / "model.ckpt")
        for name, arr in model.all_arrays().items():
            np.testing.assert_array_equal(back.all_arrays()[name], arr)

    def test_same_model_same_bytes(self, tmp_path):
        model = build(ModelVariant.DIEN, seed=17)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save(a)
        model.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_rejected(self, tmp_path):
        model = build(ModelVariant.DIEN, seed=18)
        path = tmp_path / "model.ckpt"
        model.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ParseError, match="truncated"):
            DienModel.load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = build(ModelVariant.BASE, seed=19)
        path = tmp_path / "model.ckpt"
        model.save(path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ParseError, match="trailing"):
            DienModel.load(path)

    def test_non_finite_array_rejected(self, tmp_path):
        model = build(ModelVariant.DIEN, seed=20)
        model.evolver.b_cand[1] = np.nan
        path = tmp_path / "model.ckpt"
        model.save(path)
        with pytest.raises(ParseError, match="'evolver.b_cand' holds non-finite"):
            DienModel.load(path)

    def test_zero_header_width_rejected(self, tmp_path):
        # a header and array list that agree on a zero head width reach
        # build's positivity check: a ConfigError, which exits 1
        model = build(ModelVariant.BASE, seed=21)
        path = tmp_path / "model.ckpt"
        model.save(path)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        widths, layout = array_layout(ModelVariant.BASE, N_ITEMS, N_CATS, 3, 6, [0])
        header.update(mlp_widths=widths, arrays=[[name, list(shape)] for name, shape in layout])
        body = b"".join(np.zeros(shape).tobytes() for _, shape in layout)
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(ConfigError, match="head widths must be positive"):
            DienModel.load(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"PK\x03\x04 definitely not ours\n")
        with pytest.raises(ParseError):
            DienModel.load(path)
