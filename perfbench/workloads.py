"""The three workloads: their corpora, set-up, timed phase and output checks.

Library calls come in the order the `dien synth`, `train` and `eval`
commands make them: generate a corpus, write it as TSV, parse it back,
train, save the checkpoint, load it, evaluate the held-out rows.  Every
call goes through its module attribute (`data.synth_generate`,
`training.train`, ...), so the tracer in `spans.py` sees it.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from dien import data, evaluation, training
from dien import model as dien_model
from dien.errors import DienError

import checks
import spans

TRAIN_DEFAULT = "train-default"
TRAIN_WIDE = "train-wide-vocab"
SCORE_MIXED = "score-mixed-history"
WORKLOADS = (TRAIN_DEFAULT, TRAIN_WIDE, SCORE_MIXED)

SETUP_REPEATS = 3  # set-up time is the median of these
MIN_REPS = 2  # trainings or evaluate calls; determinism compares two checkpoints
EVALS_PER_TRAIN_REP = 5
CHECK_ROWS = 128  # one training batch for the gradient and untouched-row checks
SAMPLE_ROWS = 64  # rows for the reference forward and the alone-vs-chunk check
MIXED_MAX_HISTORY = 50
DEFAULT_AUC_FLOOR = 0.75  # "clearly above chance" on train-default

# Each workload's corpus is fixed, so test_auc and final_click_loss are exact
# for a commit and move only when the arithmetic does; --seed picks what the
# output checks sample (the check batch and its impostors, the gradient
# coordinates and the rows run through the reference forward).
CORPUS_SEED = 0  # the `dien synth` default

TRAIN_CONFIG = training.TrainConfig()  # both train workloads: the defaults
# The scoring workload's checkpoint: the default config trained on the 10
# most recent steps of each row (142 steps, held-out AUC about 0.63); the
# scored rows keep their full 1-50 step histories.
CKPT_CONFIG = training.TrainConfig(max_history=10)
EVAL_MAX_HISTORY = 50  # what `dien eval` passes


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def synth_config(workload: str) -> data.SynthConfig:
    if workload == TRAIN_WIDE:
        return data.SynthConfig(seed=CORPUS_SEED, n_items=200_000, n_cats=1_000)
    if workload == SCORE_MIXED:
        # 100 items per category: a 50-step history cannot use up a
        # category, which at the default 20 per category fails some seeds.
        # Half the users keeps the longer histories' set-up affordable.
        return data.SynthConfig(seed=CORPUS_SEED, n_users=5_000, n_items=1_000,
                                seq_len=MIXED_MAX_HISTORY)
    return data.SynthConfig(seed=CORPUS_SEED)


def mix_history_lengths(corpus):
    """Keep the most recent L steps of each user's pair, L uniform in 1..50."""
    rng = np.random.default_rng([CORPUS_SEED, 1])
    lengths = rng.integers(1, MIXED_MAX_HISTORY + 1, size=len(corpus.instances) // 2)
    instances = [data.truncate_history(inst, int(lengths[k // 2]))
                 for k, inst in enumerate(corpus.instances)]
    return dataclasses.replace(corpus, instances=instances)


@dataclass
class TrainRun:
    instances: int  # training instances consumed
    seconds: float  # wall time of training.train
    curves: list
    digest: str  # of the saved checkpoint


@dataclass
class Prepared:
    corpus: object
    tsv_digest: str = ""
    checkpoint: TrainRun | None = None  # the scoring workload's training
    model: object = None  # and the checkpoint it loaded


def train_and_reload(corpus, config, work: Path):
    """Train, save the checkpoint, load it back: `dien train` then `dien eval`."""
    start = perf_counter()
    model, curves = training.train(corpus, config)
    seconds = perf_counter() - start
    ckpt = work / "model.ckpt"
    model.save(ckpt)
    digest = checks.file_digest(ckpt)
    loaded = dien_model.DienModel.load(ckpt)
    return TrainRun(len(corpus.train_idx) * config.epochs, seconds, curves, digest), loaded


def set_up(workload: str, work: Path) -> Prepared:
    corpus = data.synth_generate(synth_config(workload))
    if workload == SCORE_MIXED:
        corpus = mix_history_lengths(corpus)
    tsv = work / "corpus.tsv"
    data.save_corpus(corpus, tsv)
    prepared = Prepared(data.parse_corpus(tsv))
    if workload == SCORE_MIXED:
        prepared.checkpoint, prepared.model = train_and_reload(prepared.corpus, CKPT_CONFIG, work)
    return prepared


def steps_per_training(corpus, config) -> int:
    return math.ceil(len(corpus.train_idx) / config.batch_size) * config.epochs


@dataclass
class Phase:
    """What one timed phase measured."""

    trains: list = field(default_factory=list)  # TrainRun per repetition
    eval_seconds: list = field(default_factory=list)  # per evaluate call
    reports: list = field(default_factory=list)  # EvalReport per evaluate call
    model: object = None  # last checkpoint loaded
    attempted: int = 0
    failed: int = 0

    def extend(self, other: "Phase") -> None:
        self.trains += other.trains
        self.eval_seconds += other.eval_seconds
        self.reports += other.reports
        self.model = other.model
        self.attempted += other.attempted
        self.failed += other.failed


def _evaluate(phase: Phase, model, rows: list) -> None:
    start = perf_counter()
    try:
        report = evaluation.evaluate(model, rows, max_history=EVAL_MAX_HISTORY)
    except DienError as exc:
        log(f"evaluate failed: {exc}")
        return
    phase.eval_seconds.append(perf_counter() - start)
    phase.reports.append(report)


def train_phase(prepared: Prepared, seconds: float, min_reps: int, work: Path,
                tracer=None) -> Phase:
    """Whole trainings, each followed by checkpoint save, load and
    EVALS_PER_TRAIN_REP evaluations, until `seconds` have passed."""
    phase = Phase()
    steps = steps_per_training(prepared.corpus, TRAIN_CONFIG)
    test = prepared.corpus.test()
    start = perf_counter()
    while phase.attempted < min_reps * steps or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.next_run("rep")
        phase.attempted += steps
        try:
            run, phase.model = train_and_reload(prepared.corpus, TRAIN_CONFIG, work)
        except DienError as exc:
            log(f"training failed: {exc}")
            phase.failed += steps
            continue
        phase.trains.append(run)
        log(f"training {len(phase.trains)}: {run.instances / run.seconds:.1f} inst/s")
        for _ in range(EVALS_PER_TRAIN_REP):
            _evaluate(phase, phase.model, test)
    return phase


def score_phase(prepared: Prepared, seconds: float, min_reps: int, tracer=None) -> Phase:
    """Evaluate the held-out rows again and again until `seconds` have passed."""
    phase = Phase(model=prepared.model)
    test = prepared.corpus.test()
    start = perf_counter()
    calls = 0
    while calls < min_reps or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.next_run("rep")
        calls += 1
        phase.attempted += len(test)
        _evaluate(phase, phase.model, test)
    phase.failed = phase.attempted - len(test) * len(phase.reports)
    return phase


# -- figures ------------------------------------------------------------------


def _train_rate(runs: list) -> float:
    return statistics.median(r.instances / r.seconds for r in runs)


def _score_rate(phase: Phase, rows: int) -> float:
    return statistics.median(rows / s for s in phase.eval_seconds)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: str, setups: list, setup_seconds: list, phase: Phase) -> dict:
    rows = len(setups[-1].corpus.test_idx)
    trains = [p.checkpoint for p in setups] if workload == SCORE_MIXED else phase.trains
    return {
        "setup_s": statistics.median(setup_seconds),
        "train_inst_per_s": _train_rate(trains),
        "score_rows_per_s": _score_rate(phase, rows),
        "test_auc": phase.reports[0].auc,
        "final_click_loss": checks.tenth_means([c.l_target for c in trains[0].curves])[1],
        "peak_rss_mb": peak_rss_mb(),
    }


def overheads(workload: str, setups: list, traced_setup: Prepared,
              plain: Phase, traced: Phase) -> dict:
    """Throughput lost to tracing, as a share of the untraced figure."""
    rows = len(setups[-1].corpus.test_idx)
    if workload == SCORE_MIXED:
        train_plain = _train_rate([p.checkpoint for p in setups])
        train_traced = _train_rate([traced_setup.checkpoint])
    else:
        train_plain, train_traced = _train_rate(plain.trains), _train_rate(traced.trains)
    return {
        "tracing.train_inst_per_s_overhead": 1.0 - train_traced / train_plain,
        "tracing.score_rows_per_s_overhead":
            1.0 - _score_rate(traced, rows) / _score_rate(plain, rows),
    }


# -- output checks ------------------------------------------------------------


def _check_batch(corpus, config, seed: int):
    """Seeded training rows as one batch, with seeded impostor behaviours."""
    rng = np.random.default_rng([seed, 2])
    train = corpus.train()
    picks = rng.choice(len(train), size=min(CHECK_ROWS, len(train)), replace=False)
    batch = dien_model.make_batch([data.truncate_history(train[i], config.max_history)
                                   for i in np.sort(picks)])
    neg_items = dien_model.draw_negative_items(rng, len(corpus.item_vocab),
                                               batch.item_ids[:, 1:])
    return batch, (neg_items, corpus.item_cats[neg_items]), rng


def _one_step_rows(corpus, config, seed: int, model) -> list[str]:
    """One optimizer step leaves every row it did not touch bitwise alone."""
    batch, negatives, _ = _check_batch(corpus, config, seed)
    opt = training.Adam(model.param_arrays(), [model.item_table, model.cat_table],
                        config.learning_rate)
    tables = {"item table": (model.item_table, [batch.item_ids, batch.target_items, negatives[0]]),
              "category table": (model.cat_table, [batch.cat_ids, batch.target_cats, negatives[1]])}
    before = {name: t.lookup_many(np.arange(t.vocab_size)) for name, (t, _) in tables.items()}
    ctx = dien_model.forward_batch(model, batch, negatives)
    opt.step(dien_model.model_backward(model, ctx))
    failures = []
    for name, (table, id_arrays) in tables.items():
        touched = set(np.concatenate([np.ravel(a) for a in id_arrays]).tolist())
        after = table.lookup_many(np.arange(table.vocab_size))
        failures += checks.check_untouched_rows(name, before[name], after, touched)
    return failures


def check_train(workload: str, seed: int, setups: list, phase: Phase, work: Path) -> list[str]:
    corpus = setups[-1].corpus
    failures = checks.check_digests([p.tsv_digest for p in setups])
    failures += checks.check_digests([r.digest for r in phase.trains])
    failures += checks.check_count("distinct AUCs over evaluations",
                                   1, len({r.auc for r in phase.reports}))
    curves = phase.trains[0].curves
    failures += checks.check_losses_fall("click", [c.l_target for c in curves])
    failures += checks.check_losses_fall("aux", [c.l_aux for c in curves])

    test = [data.truncate_history(inst, EVAL_MAX_HISTORY) for inst in corpus.test()]
    scores = evaluation.model_scores(phase.model, test)
    floor = DEFAULT_AUC_FLOOR if workload == TRAIN_DEFAULT else None
    failures += checks.check_auc(scores, [inst.label for inst in test],
                                 phase.reports[0].auc, floor)

    ckpt = work / "model.ckpt"
    batch, negatives, rng = _check_batch(corpus, TRAIN_CONFIG, seed)
    numeric, analytic, shortfalls = checks.gradient_pair(dien_model.DienModel.load(ckpt),
                                                         batch, negatives, rng)
    failures += shortfalls + checks.check_gradients(numeric, analytic)
    failures += _one_step_rows(corpus, TRAIN_CONFIG, seed, dien_model.DienModel.load(ckpt))
    return failures


def check_score(seed: int, setups: list, phase: Phase) -> list[str]:
    corpus, model = setups[-1].corpus, phase.model
    failures = checks.check_digests([p.tsv_digest for p in setups])
    failures += checks.check_digests([p.checkpoint.digest for p in setups])
    test = corpus.test()
    failures += checks.check_count("rows scored per call", len(test),
                                   phase.reports[0].n_pos + phase.reports[0].n_neg)
    scores = evaluation.model_scores(model, test)
    failures += checks.check_count("scores returned", len(test), len(scores))
    failures += checks.check_auc(scores, [inst.label for inst in test], phase.reports[0].auc)

    rng = np.random.default_rng([seed, 3])
    sample = np.sort(rng.choice(len(test), size=min(SAMPLE_ROWS, len(test)), replace=False))
    reference = [checks.reference_score(model, test[i]) for i in sample]
    failures += checks.check_close("reference forward", reference, scores[sample],
                                   checks.REFERENCE_TOLERANCE)
    alone = [evaluation.model_scores(model, [test[i]])[0] for i in sample]
    failures += checks.check_close("row alone vs in its chunk", scores[sample], alone,
                                   checks.ALONE_TOLERANCE)
    return failures


# -- one run ------------------------------------------------------------------


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    failures: list


def run(workload: str, seed: int, seconds: float, traced: bool, work: Path,
        trace_path: Path) -> Result:
    setups, setup_seconds = [], []
    for k in range(SETUP_REPEATS):
        start = perf_counter()
        prepared = set_up(workload, work)
        setup_seconds.append(perf_counter() - start)
        prepared.tsv_digest = checks.file_digest(work / "corpus.tsv")
        setups.append(prepared)
        trained = prepared.checkpoint
        log(f"set-up {k}: {setup_seconds[-1]:.3f} s" + (
            f", checkpoint training {trained.instances / trained.seconds:.1f} inst/s"
            if trained else ""))

    def timed(run_seconds: float, min_reps: int, tracer=None) -> Phase:
        if workload == SCORE_MIXED:
            return score_phase(setups[-1], run_seconds, min_reps, tracer)
        return train_phase(setups[-1], run_seconds, min_reps, work, tracer)

    if traced:
        # one training or evaluate call untraced, then one traced, in turn:
        # the machine's drift falls on both alike, so the difference between
        # the two is the tracing overhead
        tracer = spans.Tracer()
        with spans.installed(tracer):
            tracer.run = "setup"
            traced_setup = set_up(workload, work)
        phase, traced_phase = Phase(), Phase()
        rounds, start = 0, perf_counter()
        while rounds < MIN_REPS or perf_counter() - start < 2 * seconds:
            rounds += 1
            phase.extend(timed(0.0, 1))
            with spans.installed(tracer):
                traced_phase.extend(timed(0.0, 1, tracer))
    else:
        phase = timed(seconds, MIN_REPS)
    if not phase.reports or (workload != SCORE_MIXED and not phase.trains):
        raise DienError("every timed operation failed")
    metrics = end_to_end(workload, setups, setup_seconds, phase)
    if workload == SCORE_MIXED:
        failures = check_score(seed, setups, phase)
    else:
        failures = check_train(workload, seed, setups, phase, work)

    if traced:
        timed_runs = sorted({s[4] for s in tracer.spans if s[4].startswith("rep-")})
        metrics = spans.layer_metrics(tracer, timed_runs, ["setup"])
        metrics.update(overheads(workload, setups, traced_setup, phase, traced_phase))
        tracer.write_jsonl(trace_path, {"workload": workload, "seed": seed,
                                        "fields": ["name", "start", "end", "parent", "run"]})
    return Result(metrics, phase.attempted, phase.failed, failures)
