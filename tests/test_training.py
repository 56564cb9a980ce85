"""Optimizer behavior, the training loop's determinism contract, and the
finite-difference harness."""

from dataclasses import replace

import numpy as np
import pytest

from dien.data import SynthConfig, synth_generate
from dien.embedding import EmbeddingTable
from dien.errors import ConfigError, ShapeError, UsageError
from dien.model import ModelVariant
from dien.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    CurveRecord,
    _adam_moves,
    GradCheckReport,
    TrainConfig,
    adam_step,
    grad_check,
    train,
    write_curves,
)

SMALL_SYNTH = SynthConfig(n_users=60, n_items=40, n_cats=4, seq_len=5, seed=21)


def small_config(**kw):
    defaults = dict(variant=ModelVariant.DIEN, epochs=1, batch_size=16,
                    embed_dim=4, mlp_hidden=(8,), seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    def test_rejections(self):
        bad = [
            dict(alpha=-1.0),
            dict(alpha=float("nan")),  # fails every comparison, `alpha < 0` too
            dict(alpha=float("inf")),  # inf times an aux loss of 0 is NaN
            dict(epochs=-1),
            dict(seed=-1),
            dict(batch_size=0),
            dict(learning_rate=0.0),
            dict(learning_rate=float("nan")),
            dict(learning_rate=float("inf")),
            dict(embed_dim=0),
            dict(mlp_hidden=(8, 0)),
            dict(max_history=0),
        ]
        for kw in bad:
            with pytest.raises(ConfigError):
                TrainConfig(**kw).validate()

    def test_zero_epochs_allowed(self):
        TrainConfig(epochs=0).validate()


def expression_moves(m, v, g, t, lr):
    """The adaptive rule as plain expressions: (new m, new v, step)."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
    step = lr * (m / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)
    return m, v, step


class TestAdamStep:
    def test_moves_match_the_expression_form_bitwise(self):
        rng = np.random.default_rng(117)
        m, v = np.zeros((300, 16)), np.zeros((300, 16))
        want_m, want_v = m.copy(), v.copy()
        step, scratch = np.empty_like(m), np.empty_like(m)
        for t in range(1, 6):
            g = rng.standard_normal((300, 16)) * 10.0 ** rng.integers(-6, 2, size=(300, 1))
            want_m, want_v, want_step = expression_moves(want_m, want_v, g, t, 8e-4)
            _adam_moves(m, v, g, t, 8e-4, step, scratch)
            np.testing.assert_array_equal(m, want_m)
            np.testing.assert_array_equal(v, want_v)
            np.testing.assert_array_equal(step, want_step)

    def test_first_step_magnitude(self):
        # bias correction makes the very first update lr * g/|g| up to eps
        params = {"p": np.array([1.0])}
        adam_step(params, {"p": np.array([0.5])}, {}, lr=0.1)
        assert params["p"][0] == pytest.approx(0.9, abs=1e-8)

    def test_descends_a_parabola(self):
        params = {"p": np.array([10.0])}
        state = {}
        for _ in range(500):
            g = 2.0 * (params["p"] - 3.0)
            adam_step(params, {"p": g}, state, lr=0.1)
        assert abs(params["p"][0] - 3.0) < 0.05

    def test_state_counts_steps(self):
        params = {"p": np.zeros(2)}
        state = adam_step(params, {"p": np.ones(2)}, {}, lr=0.01)
        adam_step(params, {"p": np.ones(2)}, state, lr=0.01)
        assert state["t"] == 2

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            adam_step({"p": np.zeros(2)}, {"p": np.zeros(3)}, {}, lr=0.01)


class TestSparseAdam:
    def test_matches_dense_when_all_ids_move(self):
        rng = np.random.default_rng(110)
        table = EmbeddingTable(4, 2, rng=np.random.default_rng(111))
        mirror = {"w": table.weights.copy()}
        state: dict = {}
        opt = Adam({}, [table], lr=0.01)
        ids = np.arange(4)
        for _ in range(3):
            grads = rng.standard_normal((4, 2))
            table.accumulate_grad_many(ids, grads)
            opt.step({})
            adam_step(mirror, {"w": grads.T.copy()}, state, lr=0.01)
        np.testing.assert_array_equal(table.weights, mirror["w"])

    def test_untouched_ids_hold_still(self):
        table = EmbeddingTable(5, 3, rng=np.random.default_rng(112))
        frozen = table.weights[:, 2].copy()
        opt = Adam({}, [table], lr=0.05)
        for k in (0, 1, 3, 4):
            table.accumulate_grad_many([k], np.ones((1, 3)))
        opt.step({})
        np.testing.assert_array_equal(table.weights[:, 2], frozen)
        assert not np.array_equal(table.weights[:, 0],
                                  EmbeddingTable(5, 3, rng=np.random.default_rng(112)).weights[:, 0])

    def test_late_id_uses_global_step_correction(self):
        """An id first touched at step 3 must be corrected with t=3, exactly
        as a dense optimizer whose id received zero gradient before."""
        table = EmbeddingTable(3, 2, rng=np.random.default_rng(113))
        mirror = {"w": table.weights.copy()}
        state: dict = {}
        opt = Adam({}, [table], lr=0.02)
        g_active = np.array([0.3, -0.7])
        for step in range(4):
            dense = np.zeros((2, 3))
            table.accumulate_grad_many([0], g_active[None])
            dense[:, 0] = g_active
            if step == 2:
                table.accumulate_grad_many([2], np.ones((1, 2)))
                dense[:, 2] = 1.0
            opt.step({})
            adam_step(mirror, {"w": dense}, state, lr=0.02)
        # the sparse path skips zero-gradient steps entirely for id 2, so it
        # legitimately differs from a dense optimizer that decays moments on
        # every step; only the id that moved every step must agree
        np.testing.assert_array_equal(table.weights[:, 0], mirror["w"][:, 0])

    def test_row_update_equals_column_reference(self):
        # the old layout: moments shaped like the (dim, vocab) weights and a
        # dense gradient read column by column
        rng = np.random.default_rng(115)
        table = EmbeddingTable(9, 3, rng=np.random.default_rng(116))
        weights, m, v = table.weights.copy(), np.zeros((3, 9)), np.zeros((3, 9))
        opt = Adam({}, [table], lr=0.03)
        for t in range(1, 5):
            ids = rng.integers(1, 9, size=12)
            grads = rng.standard_normal((12, 3))
            table.accumulate_grad_many(ids, grads)
            dense = np.zeros((9, 3))
            np.add.at(dense, ids, grads)
            cols = np.unique(ids)
            m[:, cols], v[:, cols], step = expression_moves(
                m[:, cols], v[:, cols], dense.T[:, cols], t, 0.03)
            weights[:, cols] -= step
            opt.step({})
            np.testing.assert_array_equal(table.weights, weights)
        np.testing.assert_array_equal(opt._table_m[0], m.T)
        np.testing.assert_array_equal(opt._table_v[0], v.T)

    def test_consumes_gradient_buffers(self):
        table = EmbeddingTable(3, 2, rng=np.random.default_rng(114))
        opt = Adam({}, [table], lr=0.01)
        table.accumulate_grad_many([1], np.ones((1, 2)))
        opt.step({})
        assert table.touched_ids().size == 0
        assert not np.any(table.grad_columns())


class TestTrain:
    def test_bitwise_reproducible(self):
        corpus = synth_generate(SMALL_SYNTH)
        cfg = small_config(epochs=2)
        model_a, curves_a = train(corpus, cfg)
        model_b, curves_b = train(corpus, cfg)
        for name, arr in model_a.all_arrays().items():
            np.testing.assert_array_equal(arr, model_b.all_arrays()[name])
        assert curves_a == curves_b

    def test_seed_changes_model(self):
        corpus = synth_generate(SMALL_SYNTH)
        model_a, _ = train(corpus, small_config(seed=0))
        model_b, _ = train(corpus, small_config(seed=1))
        assert any(
            not np.array_equal(arr, model_b.all_arrays()[name])
            for name, arr in model_a.all_arrays().items()
        )

    def test_curve_bookkeeping(self):
        corpus = synth_generate(SMALL_SYNTH)
        cfg = small_config(epochs=2, batch_size=16)
        n_train = len(corpus.train_idx)
        _, curves = train(corpus, cfg)
        steps_per_epoch = -(-n_train // 16)
        assert len(curves) == 2 * steps_per_epoch
        assert [c.step for c in curves] == list(range(len(curves)))
        assert curves[0].epoch == 0 and curves[-1].epoch == 1
        for rec in curves:
            assert rec.l_total == pytest.approx(rec.l_target + cfg.alpha * rec.l_aux,
                                                abs=1e-12)

    def test_aux_loss_tracked_only_when_wanted(self):
        corpus = synth_generate(SMALL_SYNTH)
        _, curves = train(corpus, small_config(variant=ModelVariant.GRU_AUGRU))
        assert all(rec.l_aux == 0.0 for rec in curves)
        _, curves = train(corpus, small_config(variant=ModelVariant.DIEN))
        assert any(rec.l_aux > 0.0 for rec in curves)

    def test_loss_moves_downhill(self):
        # a step size and length at which the click loss falls well past its
        # batch-to-batch noise: by 0.05 to 0.16 nats over seeds 0-4
        corpus = synth_generate(SynthConfig(n_users=400, n_items=60, n_cats=6,
                                            seq_len=6, seed=22))
        _, curves = train(corpus, small_config(epochs=5, batch_size=32, learning_rate=1e-2))
        first = np.mean([c.l_target for c in curves[:5]])
        last = np.mean([c.l_target for c in curves[-5:]])
        assert last < first

    def test_empty_train_split_rejected(self):
        corpus = replace(synth_generate(SynthConfig(n_users=10, n_items=30, n_cats=3,
                                                    seed=23)), train_idx=[])
        with pytest.raises(UsageError):
            train(corpus, small_config())

    def test_zero_epochs_returns_initial_model(self):
        corpus = synth_generate(SMALL_SYNTH)
        model, curves = train(corpus, small_config(epochs=0))
        assert curves == []
        assert 0.0 < model.alpha or model.alpha == 0.0  # built, usable


class TestCurvesFile:
    def test_round_trip(self, tmp_path):
        curves = [CurveRecord(0, 0, 0.69314718, 1.3862944, 2.0794416),
                  CurveRecord(0, 1, 0.5, 0.25, 0.75)]
        path = tmp_path / "curves.csv"
        write_curves(path, curves)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,step,l_target,l_aux,l_total"
        got = lines[1].split(",")
        assert int(got[0]) == 0 and int(got[1]) == 0
        assert float(got[2]) == curves[0].l_target
        assert float(got[4]) == curves[0].l_total

    def test_deterministic_bytes(self, tmp_path):
        curves = [CurveRecord(0, 0, 1 / 3, 2 / 3, 1.0)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curves(a, curves)
        write_curves(b, curves)
        assert a.read_bytes() == b.read_bytes()


class TestGradCheck:
    def test_base_and_dien_pass(self):
        for variant in (ModelVariant.BASE, ModelVariant.DIEN):
            cfg = TrainConfig(variant=variant, embed_dim=2, mlp_hidden=(8,),
                              alpha=0.7, seed=1)
            report = grad_check(cfg)
            assert report.passed(), report.lines()
            _, worst = report.worst()
            assert worst < 1e-4

    def test_oversized_config_rejected(self):
        with pytest.raises(UsageError, match="budget"):
            grad_check(TrainConfig())  # default dims are far past the limit

    def test_report_lines_format(self):
        report = GradCheckReport(groups={"mlp.w0": 3e-7, "extractor.b_reset": 2e-3},
                                 tolerance=1e-4)
        assert not report.passed()
        assert report.worst() == ("extractor.b_reset", 2e-3)
        lines = report.lines()
        assert any("FAIL" in line for line in lines)
        assert any("[ok]" in line for line in lines)
