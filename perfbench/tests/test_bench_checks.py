"""Every output check holds on genuine output and fails on a perturbed one.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from dien import data, evaluation, training
from dien.data import Instance
from dien.model import DienModel, ModelVariant, draw_negative_items, make_batch

ROOT = Path(__file__).resolve().parents[2]


def toy_model(seed=0):
    return DienModel.build(ModelVariant.DIEN, 30, 6, 4, 8, (6,), 1.0, seed=seed)


def toy_rows(n=24, seed=1):
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(n):
        steps = int(rng.integers(1, 9))
        rows.append(Instance(tuple(int(i) for i in rng.integers(1, 30, steps)),
                             tuple(int(c) for c in rng.integers(1, 6, steps)),
                             int(rng.integers(1, 30)), int(rng.integers(1, 6)), k % 2))
    return rows


def toy_batch(rows, rng):
    batch = make_batch(rows)
    neg_items = draw_negative_items(rng, 30, batch.item_ids[:, 1:])
    return batch, (neg_items, (neg_items - 1) % 5 + 1)


def test_reference_forward_matches_and_catches_a_nudged_score():
    model, rows = toy_model(), toy_rows()
    scores = evaluation.model_scores(model, rows)
    reference = [checks.reference_score(model, inst) for inst in rows]
    assert checks.check_close("ref", reference, scores, checks.REFERENCE_TOLERANCE) == []
    nudged = scores.copy()
    nudged[5] += 1e-6
    assert checks.check_close("ref", reference, nudged, checks.REFERENCE_TOLERANCE)


def test_row_alone_matches_its_chunk_and_catches_a_nudged_score():
    model, rows = toy_model(), toy_rows()
    scores = evaluation.model_scores(model, rows)
    alone = [evaluation.model_scores(model, [inst])[0] for inst in rows]
    assert checks.check_close("alone", scores, alone, checks.ALONE_TOLERANCE) == []
    alone[7] += 1e-6
    assert checks.check_close("alone", scores, alone, checks.ALONE_TOLERANCE)


def test_auc_check_recomputes_the_reported_value():
    model, rows = toy_model(), toy_rows(60)
    scores = evaluation.model_scores(model, rows)
    labels = [inst.label for inst in rows]
    reported = evaluation.auc(scores, labels)
    assert checks.check_auc(scores, labels, reported) == []
    assert checks.check_auc(scores, labels, reported + 1e-6)
    assert checks.check_auc(scores, labels, reported, floor=0.999)
    tied = np.round(scores, 1)  # ties count half on both sides
    assert checks.check_auc(tied, labels, evaluation.auc(tied, labels)) == []


def test_gradient_check_passes_and_catches_a_scaled_entry():
    model, rng = toy_model(), np.random.default_rng(4)
    batch, negatives = toy_batch(toy_rows(), rng)
    numeric, analytic, shortfalls = checks.gradient_pair(model, batch, negatives, rng)
    assert set(numeric) == set(model.all_arrays())
    assert shortfalls == []
    assert len(numeric["item_emb"]) == 4 and len(numeric["mlp.b1"]) == 1
    assert checks.check_gradients(numeric, analytic) == []
    for group in ("item_emb", "extractor.u_cand", "mlp.w0"):
        scaled = {k: v.copy() for k, v in analytic.items()}
        scaled[group][0] *= 1.01
        assert checks.check_gradients(numeric, scaled), group


def test_gradient_pair_leaves_the_model_unchanged():
    model, rng = toy_model(), np.random.default_rng(4)
    before = {k: v.copy() for k, v in model.all_arrays().items()}
    batch, negatives = toy_batch(toy_rows(), rng)
    checks.gradient_pair(model, batch, negatives, rng)
    for name, arr in model.all_arrays().items():
        assert np.array_equal(arr, before[name]), name
    assert model.item_table.touched_ids().size == 0


def test_one_step_keeps_untouched_rows_and_the_check_catches_a_changed_one():
    corpus = data.synth_generate(data.SynthConfig(n_users=200, n_items=400, n_cats=20))
    model = DienModel.build(ModelVariant.DIEN, len(corpus.item_vocab), len(corpus.cat_vocab),
                            16, 32, (64, 32), 1.0, seed=0)
    assert workloads._one_step_rows(corpus, training.TrainConfig(), 3, model) == []

    table = model.item_table
    before = table.lookup_many(np.arange(table.vocab_size))
    after = before.copy()
    touched = {0, 1, 2}
    assert checks.check_untouched_rows("items", before, after, touched) == []
    after[7, 3] += 1e-12
    assert checks.check_untouched_rows("items", before, after, touched)
    after = before.copy()
    after[1] += 1.0  # a touched row may move
    assert checks.check_untouched_rows("items", before, after, touched) == []
    after[0, 0] = 1e-300  # the padding row may not
    assert checks.check_untouched_rows("items", before, after, touched)


def test_digest_check_catches_a_differing_digest():
    assert checks.check_digests(["ab", "ab", "ab"]) == []
    assert checks.check_digests(["ab", "ab", "ac"])
    assert checks.check_digests(["ab"])


def test_loss_check_needs_a_fall():
    assert checks.check_losses_fall("click", np.linspace(0.7, 0.3, 50)) == []
    assert checks.check_losses_fall("click", np.linspace(0.3, 0.7, 50))
    assert checks.check_losses_fall("click", np.full(50, 0.5))


def test_self_time_subtracts_direct_children_only():
    spans_ = [["a", 0.0, 10.0, -1, "r"], ["b", 1.0, 4.0, 0, "r"],
              ["c", 2.0, 3.0, 1, "r"], ["d", 5.0, 6.0, 0, "r"]]
    assert spans.self_times(spans_) == [6.0, 2.0, 1.0, 1.0]


def test_tracing_reports_every_layer_and_restores_the_library(tmp_path):
    from dien import model as dien_model

    original = (training.forward_batch, dien_model.gru_forward, vars(DienModel)["load"])
    corpus = data.synth_generate(data.SynthConfig(n_users=300))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        tracer.run = "setup"
        data.save_corpus(corpus, tmp_path / "corpus.tsv")
        parsed = data.parse_corpus(tmp_path / "corpus.tsv")
        tracer.run = "rep-0"
        run_, model = workloads.train_and_reload(parsed, training.TrainConfig(epochs=1), tmp_path)
        evaluation.evaluate(model, parsed.test())
    assert (training.forward_batch, dien_model.gru_forward, vars(DienModel)["load"]) == original
    metrics = spans.layer_metrics(tracer, ["rep-0"], ["setup"])
    missing = {k for k in run.PER_LAYER if not k.startswith("tracing.")} - set(metrics)
    assert missing == {"data.synth_generate_s"}  # generated outside the traced block
    assert metrics["training.steps"] == len(run_.curves)
    assert metrics["recurrent.valid_cell_share"] == 1.0  # fixed-length histories
    assert all(v >= 0 for v in metrics.values())


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
