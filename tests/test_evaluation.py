"""Ranking metric against a brute-force oracle, the repeated-run protocol,
principal-component projection, and the trajectory export."""

from dataclasses import replace

import numpy as np
import pytest

from dien import evaluation
from dien.data import SynthConfig, synth_generate, truncate_history
from dien.errors import ConfigError, DegenerateError, NumericError, ShapeError
from dien.evaluation import (
    EVAL_CELLS,
    EVAL_CHUNK,
    EvalReport,
    VizBundle,
    _midranks,
    auc,
    build_viz_probes,
    evaluate,
    model_scores,
    pca_project,
    repeat_eval,
    run_ablation,
    viz_bundle,
    write_metrics,
    write_summary,
)
from dien.model import DienModel, ModelVariant, forward_batch, make_batch
from dien.training import TrainConfig, train


def brute_force_auc(scores, labels):
    """All-pairs comparison: the definitional oracle, O(n^2)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


class TestAuc:
    def test_hand_example(self):
        got = auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_three_point_examples(self):
        assert auc([0.9, 0.3, 0.6], [1, 0, 1]) == 1.0  # clean separation
        assert auc([0.9, 0.6, 0.3], [1, 0, 1]) == 0.5  # one win, one loss

    def test_perfect_and_inverted(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
        assert auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_all_tied_is_chance(self):
        assert auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == pytest.approx(0.5, abs=1e-12)

    def test_matches_brute_force_on_random_sets(self):
        # tie-heavy draws: coarse quantization forces many equal scores
        rng = np.random.default_rng(120)
        for _ in range(60):
            n = int(rng.integers(2, 101))
            labels = np.zeros(n, dtype=np.int64)
            labels[: int(rng.integers(1, n))] = 1
            rng.shuffle(labels)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            scores = np.round(rng.random(n), int(rng.integers(1, 3)))
            assert abs(auc(scores, labels) - brute_force_auc(scores, labels)) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateError):
            auc([0.1, 0.9], [1, 1])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            auc([0.1, 0.9], [1, 0, 1])

    def test_non_finite_scores_rejected(self):
        # a NaN must not rank as a plausible number (it used to give 1.0 here)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NumericError, match="row 1"):
                auc([0.1, bad, 0.7, 0.3], [0, 1, 1, 0])

    def test_midranks_match_loop_reference(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            values = np.round(rng.standard_normal(int(rng.integers(1, 60))),
                              int(rng.integers(0, 3)))  # many ties
            order = np.argsort(values, kind="stable")
            expect = np.empty(values.size)
            i = 0
            while i < values.size:
                j = i
                while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
                    j += 1
                expect[order[i:j + 1]] = 0.5 * (i + j) + 1.0
                i = j + 1
            np.testing.assert_array_equal(_midranks(values), expect)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(121)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        base = auc(scores, labels)
        assert base == pytest.approx(auc(np.exp(3.0 * scores), labels), abs=1e-12)
        assert base == pytest.approx(auc(2.0 * scores + 1.0, labels), abs=1e-12)

    def test_label_flip_complements(self):
        rng = np.random.default_rng(122)
        scores = rng.standard_normal(60)  # continuous draws: tie-free
        labels = rng.integers(0, 2, size=60)
        labels[0], labels[1] = 0, 1
        assert auc(scores, labels) + auc(scores, 1 - labels) == pytest.approx(
            1.0, abs=1e-12)


class TestEvalReport:
    def test_population_spread(self):
        report = EvalReport.from_runs([0.8, 0.9, 1.0], n_pos=5, n_neg=5)
        assert report.auc == pytest.approx(0.9, abs=1e-12)
        assert report.std == pytest.approx(np.sqrt(2.0 / 300.0), abs=1e-12)
        assert report.per_seed == [0.8, 0.9, 1.0]

    def test_single_run(self):
        report = EvalReport.from_runs([0.75], n_pos=1, n_neg=2)
        assert report.auc == 0.75 and report.std == 0.0


SMALL_SYNTH = SynthConfig(n_users=80, n_items=60, n_cats=6, seq_len=5, seed=30)
TINY_TRAIN = TrainConfig(variant=ModelVariant.GRU_AUGRU, epochs=1, batch_size=32,
                         embed_dim=4, mlp_hidden=(8,), seed=0)


class TestModelScores:
    def test_chunks_reassemble_in_row_order(self):
        corpus = synth_generate(SynthConfig(n_users=600, n_items=60, n_cats=6,
                                            seq_len=5, seed=31))
        model = DienModel.build(ModelVariant.BASE, len(corpus.item_vocab),
                                len(corpus.cat_vocab), 4, 8, (8,), 0.0, seed=2)
        insts = corpus.instances  # 1200 rows: three fixed chunks
        scores = model_scores(model, insts)
        assert scores.shape == (len(insts),)
        alone = [model_scores(model, [inst])[0] for inst in insts]
        np.testing.assert_allclose(scores, alone, rtol=0.0, atol=1e-12)

    @staticmethod
    def paired_rows(seed, max_len, n_users=300):
        """A 50-step corpus whose pairs are cut to the most recent L steps,
        L uniform in 1..max_len per pair, and a DIEN model for it at the
        default widths, where a chunk's other rows can move a score's last
        bit."""
        corpus = synth_generate(SynthConfig(n_users=n_users, n_items=1000, n_cats=10,
                                            seq_len=50, seed=seed))
        lengths = np.random.default_rng(seed).integers(1, max_len + 1, size=n_users)
        rows = [truncate_history(inst, int(lengths[k // 2]))
                for k, inst in enumerate(corpus.instances)]
        assert all(rows[k].history_items == rows[k + 1].history_items
                   for k in range(0, len(rows), 2))
        model = DienModel.build(ModelVariant.DIEN, len(corpus.item_vocab),
                                len(corpus.cat_vocab), 16, 32, (64, 32), 1.0, seed=3)
        return model, rows

    @staticmethod
    def recorded_chunks(monkeypatch, rows):
        """(input positions, batch) of each chunk model_scores makes."""
        position = {id(row): k for k, row in enumerate(rows)}
        chunks = []

        def recording(instances):
            batch = make_batch(instances)
            chunks.append(([position[id(inst)] for inst in instances], batch))
            return batch

        monkeypatch.setattr(evaluation, "make_batch", recording)
        return chunks

    def test_mixed_lengths_return_in_input_order(self, monkeypatch):
        model, rows = self.paired_rows(seed=35, max_len=50)
        chunks = self.recorded_chunks(monkeypatch, rows)
        scores = model_scores(model, rows)
        alone = [forward_batch(model, make_batch([row]))["probs"][0] for row in rows]
        np.testing.assert_allclose(scores, alone, rtol=0.0, atol=1e-12)
        # the rows were reordered, and some pair was cut across two chunks
        order = [k for positions, _ in chunks for k in positions]
        assert order != sorted(order)
        chunk_of = {k: c for c, (positions, _) in enumerate(chunks) for k in positions}
        assert any(chunk_of[k] != chunk_of[k + 1] for k in range(0, len(rows), 2))

    def test_chunks_stay_within_the_cell_budget(self, monkeypatch):
        model, rows = self.paired_rows(seed=36, max_len=50)
        chunks = self.recorded_chunks(monkeypatch, rows)
        model_scores(model, rows)
        assert sorted(k for positions, _ in chunks for k in positions) == list(range(len(rows)))
        sizes = [(batch.labels.size, batch.item_ids.shape[1]) for _, batch in chunks]
        assert all(n <= EVAL_CHUNK and n * width <= EVAL_CELLS for n, width in sizes)
        # longest histories first, and every chunk but the last fills its budget
        floor = EVAL_CELLS // EVAL_CHUNK
        widths = [max(width, floor) for _, width in sizes]
        assert widths == sorted(widths, reverse=True)
        assert all(n == min(EVAL_CHUNK, EVAL_CELLS // w)
                   for (n, _), w in zip(sizes[:-1], widths))

    @pytest.mark.parametrize("max_len", [10, 1])
    def test_short_histories_keep_consecutive_chunks(self, max_len):
        # at most 10 steps, the sort keeps the input order: the scores are
        # bitwise those of consecutive EVAL_CHUNK-row chunks
        model, rows = self.paired_rows(seed=37, max_len=max_len, n_users=600)
        consecutive = np.concatenate([
            forward_batch(model, make_batch(rows[i:i + EVAL_CHUNK]))["probs"]
            for i in range(0, len(rows), EVAL_CHUNK)])
        np.testing.assert_array_equal(model_scores(model, rows), consecutive)


class TestRepeatEval:
    def test_reports_per_seed(self):
        corpus = synth_generate(SMALL_SYNTH)
        report = repeat_eval(corpus, TINY_TRAIN, n_repeats=2)
        assert len(report.per_seed) == 2
        assert report.auc == pytest.approx(np.mean(report.per_seed), abs=1e-12)

    def test_bad_repeat_count(self):
        corpus = synth_generate(SMALL_SYNTH)
        with pytest.raises(ConfigError):
            repeat_eval(corpus, TINY_TRAIN, n_repeats=0)

    def test_no_test_split_rejected(self):
        corpus = replace(synth_generate(SynthConfig(n_users=20, n_items=30, n_cats=3,
                                                    seed=32)), test_idx=[])
        with pytest.raises(DegenerateError):
            repeat_eval(corpus, TINY_TRAIN, n_repeats=1)

    def test_evaluate_single_model(self):
        corpus = synth_generate(SMALL_SYNTH)
        model, _ = train(corpus, TINY_TRAIN)
        report = evaluate(model, corpus.test())
        assert 0.0 <= report.auc <= 1.0
        assert report.n_pos + report.n_neg == len(corpus.test())


class TestRunAblation:
    def test_order_and_pairing(self):
        corpus = synth_generate(SMALL_SYNTH)
        variants = [ModelVariant.BASE, ModelVariant.GRU_AUGRU]
        got = run_ablation(corpus, TINY_TRAIN, variants, n_repeats=1)
        assert [v for v, _ in got] == variants
        assert all(isinstance(r, EvalReport) for _, r in got)

    def test_guards(self):
        corpus = synth_generate(SMALL_SYNTH)
        with pytest.raises(ConfigError):
            run_ablation(corpus, TINY_TRAIN, [])
        with pytest.raises(ConfigError):
            run_ablation(corpus, TINY_TRAIN,
                         [ModelVariant.BASE, ModelVariant.BASE])


class TestPca:
    def test_orthonormal_basis(self):
        rng = np.random.default_rng(130)
        for _ in range(10):
            states = rng.standard_normal((40, 6))
            basis, _ = pca_project(states, out_dim=3)
            np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-10)

    def test_projected_variance_equals_eigenvalues(self):
        rng = np.random.default_rng(131)
        states = rng.standard_normal((60, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.1])
        basis, projected = pca_project(states, out_dim=2)
        centered = states - states.mean(axis=0)
        cov = centered.T @ centered / (states.shape[0] - 1)
        eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        got = projected.var(axis=0, ddof=1)
        np.testing.assert_allclose(got, eigvals[:2], atol=1e-9)

    def test_dominant_direction_recovered(self):
        rng = np.random.default_rng(132)
        t = rng.standard_normal(200)
        cloud = np.outer(t, [0.6, 0.8]) + 1e-3 * rng.standard_normal((200, 2))
        basis, _ = pca_project(cloud, out_dim=1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [0.6, 0.8], atol=1e-2)
        assert basis[0, 0] > 0  # sign convention

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(133)
        states = rng.standard_normal((30, 4))
        b1, p1 = pca_project(states, out_dim=4)
        b2, p2 = pca_project(states.copy(), out_dim=4)
        np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(p1, p2)
        for col in range(4):
            first = np.flatnonzero(np.abs(b1[:, col]) > 1e-12)[0]
            assert b1[first, col] > 0

    def test_projection_centers(self):
        rng = np.random.default_rng(134)
        states = rng.standard_normal((25, 3)) + 7.0
        _, projected = pca_project(states, out_dim=3)
        np.testing.assert_allclose(projected.mean(axis=0), 0.0, atol=1e-12)

    def test_full_rank_reconstructs(self):
        rng = np.random.default_rng(135)
        states = rng.standard_normal((20, 4))
        basis, projected = pca_project(states, out_dim=4)
        rebuilt = projected @ basis.T + states.mean(axis=0)
        np.testing.assert_allclose(rebuilt, states, atol=1e-10)

    def test_guards(self):
        with pytest.raises(DegenerateError):
            pca_project(np.ones((1, 3)))
        with pytest.raises(ConfigError):
            pca_project(np.ones((5, 3)), out_dim=4)
        with pytest.raises(ConfigError):
            pca_project(np.ones((5, 3)), out_dim=0)


VIZ_SYNTH = SynthConfig(n_users=50, n_items=120, n_cats=10, seq_len=6, seed=33)


class TestVizProbes:
    def test_planted_history_layout(self):
        corpus = synth_generate(VIZ_SYNTH)
        probes, labels = build_viz_probes(corpus, steps=6)
        related, unrelated = probes
        assert related.history_items == unrelated.history_items
        assert related.history_cats == (1, 1, 1, 1, 1, 2)
        assert related.target_cat == 2 and unrelated.target_cat == 3
        assert related.target_item not in related.history_items
        assert unrelated.target_item not in related.history_items
        assert labels[0].startswith("related:")
        for item, cat in zip(related.history_items, related.history_cats):
            assert corpus.item_cats[item] == cat

    def test_too_few_items_per_category(self):
        corpus = synth_generate(SynthConfig(n_users=20, n_items=60, n_cats=10,
                                            seq_len=4, seed=34))
        with pytest.raises(ConfigError):
            build_viz_probes(corpus, steps=10)  # only 6 items per category


class TestExportViz:
    def make_model(self, corpus, variant=ModelVariant.DIEN, seed=5):
        return DienModel.build(variant, len(corpus.item_vocab), len(corpus.cat_vocab),
                               4, 8, (8,), 1.0, seed=seed)

    def test_bundle_and_files(self, tmp_path):
        corpus = synth_generate(VIZ_SYNTH)
        _, labels = build_viz_probes(corpus, steps=6)
        model = self.make_model(corpus)
        traj, attn = tmp_path / "traj.csv", tmp_path / "attn.csv"
        bundle = viz_bundle(model, corpus, steps=6)
        bundle.write(traj, attn)

        assert bundle.labels == labels + [VizBundle.NONE_LABEL]
        uniform = bundle.attention[VizBundle.NONE_LABEL]
        np.testing.assert_allclose(uniform, np.full(6, 1.0 / 6.0), atol=1e-15)
        for label in labels:
            scores = bundle.attention[label]
            assert scores.shape == (6,)
            assert scores.sum() == pytest.approx(1.0, abs=1e-12)
            assert bundle.trajectories[label].shape == (6, 2)

        traj_lines = traj.read_text().splitlines()
        attn_lines = attn.read_text().splitlines()
        assert traj_lines[0] == "probe,step,x,y"
        assert attn_lines[0] == "probe,step,score"
        assert len(traj_lines) == 1 + 3 * 6
        assert len(attn_lines) == 1 + 3 * 6
        # numeric fields parse back as plain floats
        float(traj_lines[1].split(",")[2])
        float(attn_lines[1].split(",")[2])

    def test_deterministic_bytes(self, tmp_path):
        corpus = synth_generate(VIZ_SYNTH)
        model = self.make_model(corpus)
        a1, a2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        b1, b2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
        viz_bundle(model, corpus, steps=6).write(a1, b1)
        viz_bundle(model, corpus, steps=6).write(a2, b2)
        assert a1.read_bytes() == a2.read_bytes()
        assert b1.read_bytes() == b2.read_bytes()

    def test_variant_without_evolution_rejected(self):
        corpus = synth_generate(VIZ_SYNTH)
        for variant in (ModelVariant.BASE, ModelVariant.TWO_LAYER_GRU_ATT):
            model = DienModel.build(variant, len(corpus.item_vocab),
                                    len(corpus.cat_vocab), 4, 8, (8,), 0.0, seed=1)
            with pytest.raises(ConfigError):
                viz_bundle(model, corpus, steps=6)

    def test_probe_hygiene(self):
        # the probes are built inside, so only the model can be unfit; it is
        # checked first, even on a corpus too small for the probes
        corpus = synth_generate(SynthConfig(n_users=20, n_items=60, n_cats=10,
                                            seq_len=4, seed=34))
        model = self.make_model(corpus, variant=ModelVariant.BASE)
        with pytest.raises(ConfigError, match="no evolution layer"):
            viz_bundle(model, corpus, steps=10)


class TestMetricsFiles:
    def test_metrics_rows(self, tmp_path):
        p = tmp_path / "metrics.csv"
        write_metrics(p, [(ModelVariant.DIEN, 0, 0.9512), ("base", 1, 0.75)])
        lines = p.read_text().splitlines()
        assert lines[0] == "variant,seed,auc"
        assert lines[1] == "dien,0,0.9512"
        assert lines[2] == "base,1,0.75"

    def test_summary_rows(self, tmp_path):
        p = tmp_path / "summary.csv"
        write_summary(p, [(ModelVariant.BASE, EvalReport.from_runs([0.7, 0.8], 1, 1))])
        lines = p.read_text().splitlines()
        assert lines[0] == "variant,mean,std"
        name, mean, std = lines[1].split(",")
        assert name == "base"
        assert float(mean) == pytest.approx(0.75, abs=1e-12)
