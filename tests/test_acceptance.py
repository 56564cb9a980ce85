"""End-to-end verification gates.

Each test checks one release gate at its stated tolerance and prints a
single PASS/FAIL line with the measured numbers.  The heavy fixtures (the
full drifting corpus, five seeded training runs, the four-variant ablation
over five corpus seeds) are built once per module and shared.

Run with -s to see the verdict lines as they happen.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from dien.cli import main
from dien.data import SynthConfig, synth_generate
from dien.evaluation import auc, build_viz_probes, export_viz, pca_project, run_ablation
from dien.model import ModelVariant
from dien.recurrent import AGRU, AIGRU, AUGRU, GruParams, evolve_forward, gru_forward
from dien.training import TrainConfig, grad_check, train

pytestmark = pytest.mark.acceptance

ABLATION_VARIANTS = [ModelVariant.BASE, ModelVariant.TWO_LAYER_GRU_ATT,
                     ModelVariant.GRU_AUGRU, ModelVariant.DIEN]

ELAPSED: dict = {}


def verdict(ok: bool, gate: str, detail: str) -> str:
    line = f"{'PASS' if ok else 'FAIL'} {gate}: {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def default_corpus():
    return synth_generate(SynthConfig())


@pytest.fixture(scope="module")
def dien_runs(default_corpus):
    """Five seeded trainings of the full model on the default corpus."""
    cfg = TrainConfig()
    t0 = time.perf_counter()
    runs = [train(default_corpus, replace(cfg, seed=s)) for s in range(5)]
    ELAPSED["dien_runs"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="module")
def ablation_by_corpus(default_corpus):
    """variant -> report maps for five independently generated corpora."""
    t0 = time.perf_counter()
    out = {}
    for corpus_seed in range(5):
        corpus = (default_corpus if corpus_seed == 0
                  else synth_generate(SynthConfig(seed=corpus_seed)))
        results = run_ablation(corpus, TrainConfig(), ABLATION_VARIANTS, n_repeats=5)
        out[corpus_seed] = dict(results)
    ELAPSED["ablation"] = time.perf_counter() - t0
    return out


def test_analytic_gradients_match_finite_differences():
    t0 = time.perf_counter()
    failures = []
    worst_name, worst_err = "", 0.0
    for variant in ModelVariant:
        cfg = TrainConfig(variant=variant, alpha=1.0, embed_dim=2,
                          mlp_hidden=(8,), seed=0)
        report = grad_check(cfg)  # five-step toy batch, every parameter group
        name, err = report.worst()
        if err > worst_err:
            worst_name, worst_err = f"{variant.value}:{name}", err
        if not report.passed():
            failures.append(variant.value)
    took = time.perf_counter() - t0
    ok = not failures and took < 120.0
    line = verdict(ok, "gradient fidelity",
                   f"{len(ModelVariant)} variants within 1e-4, worst "
                   f"{worst_err:.2e} at {worst_name}, {took:.1f}s < 120s"
                   + (f", failing: {failures}" if failures else ""))
    assert ok, line


def test_evolution_cell_identities_are_exact():
    """On the engine every command runs: a unit score gives the plain
    recurrence (AUGRU, AIGRU, ragged lengths) and a zero score at step t
    keeps the state of step t-1 (AGRU, AUGRU, full lengths)."""
    rng = np.random.default_rng(7)
    mismatches = {f"{AUGRU} unit": 0, f"{AIGRU} unit": 0, f"{AGRU} zero": 0, f"{AUGRU} zero": 0}
    for _ in range(1000):
        width = int(rng.integers(1, 7))
        batch, steps = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        p = GruParams.init(width, width, rng)
        states = rng.standard_normal((batch, steps, width))
        lens = rng.integers(0, steps + 1, size=batch)
        plain, _ = gru_forward(p, states, lens)
        for cell in (AUGRU, AIGRU):
            evolved, _ = evolve_forward(p, states, np.ones((batch, steps)), lens, cell)
            mismatches[f"{cell} unit"] += not np.array_equal(evolved, plain)
        scores = rng.uniform(0.0, 1.0, size=(batch, steps))
        t = int(rng.integers(1, steps))
        scores[:, t] = 0.0
        for cell in (AGRU, AUGRU):
            evolved, _ = evolve_forward(p, states, scores, np.full(batch, steps), cell)
            mismatches[f"{cell} zero"] += not np.array_equal(evolved[:, t], evolved[:, t - 1])
    total = sum(mismatches.values())
    ok = total == 0
    line = verdict(ok, "cell identities",
                   f"1000 engine draws, {len(mismatches)} identities bitwise "
                   f"({total} mismatches: "
                   + ", ".join(f"{k} {v}" for k, v in mismatches.items()) + ")")
    assert ok, line


def test_ranking_metric_matches_brute_force():
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 101))
        labels = np.zeros(n, dtype=np.int64)
        labels[: int(rng.integers(1, n))] = 1
        rng.shuffle(labels)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = rng.random(n)
        if trial % 2 == 0:  # heavy ties on half the sets
            scores = np.round(scores, int(rng.integers(1, 3)))
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        oracle = (wins + 0.5 * ties) / (pos.size * neg.size)
        worst = max(worst, abs(auc(scores, labels) - oracle))
    ok = worst < 1e-12
    line = verdict(ok, "ranking metric",
                   f"200 sets (half tie-heavy) vs all-pairs oracle, "
                   f"worst gap {worst:.2e} < 1e-12")
    assert ok, line


def test_training_losses_descend(dien_runs):
    good = 0
    details = []
    for seed, (_, curves) in enumerate(dien_runs):
        click = [rec.l_target for rec in curves]
        next_behavior = [rec.l_aux for rec in curves]
        k = max(1, len(click) // 10)
        drop_click = np.mean(click[:k]) - np.mean(click[-k:])
        drop_aux = np.mean(next_behavior[:k]) - np.mean(next_behavior[-k:])
        if drop_click > 0 and drop_aux > 0:
            good += 1
        details.append(f"s{seed}:{drop_click:+.3f}/{drop_aux:+.3f}")
    took = ELAPSED["dien_runs"]
    ok = good == 5 and took < 600.0
    line = verdict(ok, "loss descent",
                   f"{good}/5 runs drop both losses first vs last decile "
                   f"({' '.join(details)}), {took:.0f}s < 600s")
    assert ok, line


def test_variant_ordering_on_drifting_corpora(ablation_by_corpus):
    good = 0
    details = []
    for corpus_seed, reports in ablation_by_corpus.items():
        b, t, g, d = (reports[v].auc for v in ABLATION_VARIANTS)
        ordered = d >= g >= t >= b
        margin = d - b
        if ordered and margin >= 0.02:
            good += 1
        details.append(f"s{corpus_seed}:{'Y' if ordered else 'N'}/{margin:+.3f}")
    took = ELAPSED["ablation"]
    ok = good >= 4 and took < 2700.0
    line = verdict(ok, "ablation ordering",
                   f"{good}/5 corpus seeds ordered with margin >= 0.02 "
                   f"({' '.join(details)}), {took:.0f}s < 2700s")
    assert ok, line


def test_next_behavior_supervision_lifts_auc(ablation_by_corpus):
    good = 0
    details = []
    for corpus_seed, reports in ablation_by_corpus.items():
        lift = (reports[ModelVariant.DIEN].auc
                - reports[ModelVariant.GRU_AUGRU].auc)
        if lift > 0:
            good += 1
        details.append(f"s{corpus_seed}:{lift:+.3f}")
    ok = good >= 4
    line = verdict(ok, "supervision lift",
                   f"{good}/5 corpus seeds lift the gated variant "
                   f"({' '.join(details)})")
    assert ok, line


def test_probe_attention_and_trajectory_separation(default_corpus, dien_runs,
                                                   tmp_path_factory):
    _, labels = build_viz_probes(default_corpus)
    related, unrelated = labels
    good = 0
    details = []
    for seed, (model, _) in enumerate(dien_runs):
        out = tmp_path_factory.mktemp(f"viz{seed}")
        bundle = export_viz(model, default_corpus, out / "traj.csv", out / "attn.csv")
        attn = bundle.attention[related]
        peak_last = int(np.argmax(attn)) == attn.size - 1
        none = bundle.trajectories["none"]
        d_rel = float(np.linalg.norm(
            bundle.trajectories[related] - none, axis=1).mean())
        d_unrel = float(np.linalg.norm(
            bundle.trajectories[unrelated] - none, axis=1).mean())
        if peak_last and d_unrel < d_rel:
            good += 1
        details.append(f"s{seed}:{'Y' if peak_last else 'N'}"
                       f"/{d_unrel:.2f}<{d_rel:.2f}")
    ok = good == 5
    line = verdict(ok, "probe phenomenon",
                   f"{good}/5 runs peak attention at the last step and keep "
                   f"the unrelated curve nearer the target-free one "
                   f"({' '.join(details)})")
    assert ok, line


def test_bitwise_reproducibility(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    synth_dir = root / "synth"
    rc = main(["synth", "--n-users", "3000", "--seq-len", "5", "--seed", "11",
               "--out", str(synth_dir)])
    assert rc == 0
    corpus = str(synth_dir / "corpus.tsv")
    flags = ["--corpus", corpus, "--epochs", "1", "--batch-size", "128",
             "--embed-dim", "4", "--mlp-hidden", "8"]
    assert main(["train", *flags, "--out", str(root / "t1")]) == 0
    assert main(["train", *flags, "--out", str(root / "t2")]) == 0
    same_ckpt = ((root / "t1" / "model.ckpt").read_bytes()
                 == (root / "t2" / "model.ckpt").read_bytes())
    same_curves = ((root / "t1" / "curves.csv").read_bytes()
                   == (root / "t2" / "curves.csv").read_bytes())
    for run in ("e1", "e2"):  # 600 test rows: two scoring chunks
        rc = main(["eval", "--checkpoint", str(root / "t1" / "model.ckpt"),
                   "--corpus", corpus, "--out", str(root / run)])
        assert rc == 0
    same_eval = ((root / "e1" / "metrics.csv").read_bytes()
                 == (root / "e2" / "metrics.csv").read_bytes())
    ok = same_ckpt and same_curves and same_eval
    line = verdict(ok, "determinism",
                   f"repeat training byte-identical (checkpoint={same_ckpt}, "
                   f"curves={same_curves}), repeat eval byte-identical "
                   f"({same_eval})")
    assert ok, line


def test_projection_basis_properties():
    rng = np.random.default_rng(17)
    worst_orth, worst_var = 0.0, 0.0
    for _ in range(20):
        rows = int(rng.integers(10, 61))
        dims = int(rng.integers(3, 9))
        out_dim = int(rng.integers(1, dims + 1))
        cloud = rng.standard_normal((rows, dims)) * rng.uniform(0.5, 3.0, dims)
        basis, projected = pca_project(cloud, out_dim=out_dim)
        worst_orth = max(worst_orth, float(np.abs(
            basis.T @ basis - np.eye(out_dim)).max()))
        centered = cloud - cloud.mean(axis=0)
        eigvals = np.sort(np.linalg.eigvalsh(
            centered.T @ centered / (rows - 1)))[::-1]
        worst_var = max(worst_var, float(np.abs(
            projected.var(axis=0, ddof=1) - eigvals[:out_dim]).max()))
    ok = worst_orth < 1e-10 and worst_var < 1e-9
    line = verdict(ok, "projection basis",
                   f"20 random clouds: orthonormality off by {worst_orth:.2e} "
                   f"< 1e-10, variance vs eigenvalue gap {worst_var:.2e} < 1e-9")
    assert ok, line
