"""Command-line behavior: config precedence, the settings echo, exit codes,
and one smoke run per subcommand."""

import contextlib
import importlib.metadata
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dien
from dien.cli import _SCHEMAS, main
from dien.data import SynthConfig, parse_corpus, synth_generate
from dien.model import DienModel, ModelVariant
from dien.training import TrainConfig, train

SYNTH_FLAGS = ["--n-users", "80", "--n-items", "120", "--n-cats", "10",
               "--seq-len", "6", "--seed", "7"]
TINY_TRAIN_FLAGS = ["--epochs", "1", "--batch-size", "32", "--embed-dim", "4",
                    "--mlp-hidden", "8"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", *SYNTH_FLAGS, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("train")
    rc = main(["train", "--corpus", str(corpus_dir / "corpus.tsv"),
               *TINY_TRAIN_FLAGS, "--out", str(out)])
    assert rc == 0
    return out


class TestSynth:
    def test_writes_corpus_and_echo(self, corpus_dir):
        corpus = parse_corpus(corpus_dir / "corpus.tsv")
        assert len(corpus.instances) == 160
        echo = (corpus_dir / "synth_config.ini").read_text()
        assert echo.startswith("[synth]")
        assert "n_users = 80" in echo
        assert "drift_prob = 0.3" in echo

    def test_echo_regenerates_artifact(self, corpus_dir, tmp_path):
        # the resolved-settings echo alone must reproduce the corpus
        rc = main(["synth", "--config", str(corpus_dir / "synth_config.ini"),
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "corpus.tsv").read_bytes() == \
            (corpus_dir / "corpus.tsv").read_bytes()


class TestConfigResolution:
    def write_cfg(self, tmp_path, body):
        path = tmp_path / "cfg.ini"
        path.write_text(body)
        return path

    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "[synth]\nseq_len = 4\n")
        base = ["synth", "--n-users", "10", "--n-items", "20", "--n-cats", "3"]

        assert main([*base, "--out", str(tmp_path / "a")]) == 0
        assert "seq_len = 10" in (tmp_path / "a" / "synth_config.ini").read_text()

        assert main([*base, "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert "seq_len = 4" in (tmp_path / "b" / "synth_config.ini").read_text()

        assert main([*base, "--config", str(cfg), "--seq-len", "5",
                     "--out", str(tmp_path / "c")]) == 0
        assert "seq_len = 5" in (tmp_path / "c" / "synth_config.ini").read_text()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "[synth]\nbogus = 1\n")
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_removed_keys_rejected(self, tmp_path, capsys):
        # the hidden width is derived from embed_dim, training and scoring
        # run serially, the corpus file holds no split, the viz probes
        # never read one, and an ablation trains each of its variants list:
        # none of these is a setting, and no flag abbreviates to a longer one
        # (--variant to --variants)
        removed = (("train", "hidden_size"), ("ablation", "workers"),
                   ("synth", "test_fraction"), ("viz", "split_seed"), ("eval", "workers"),
                   ("ablation", "variant"))
        for section, key in removed:
            cfg = self.write_cfg(tmp_path, f"[{section}]\n{key} = 8\n")
            rc = main([section, "--config", str(cfg), "--out", str(tmp_path / "out")])
            assert rc == 1
            assert f"unknown key {key!r}" in capsys.readouterr().err
            with pytest.raises(SystemExit) as exc:
                main([section, "--" + key.replace("_", "-"), "1",
                      "--out", str(tmp_path / "out")])
            assert exc.value.code == 1
        assert not (tmp_path / "out").exists()

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "[nonsense]\nx = 1\n")
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "nonsense" in capsys.readouterr().err

    def test_bad_flag_value(self, tmp_path, capsys):
        rc = main(["train", "--corpus", "unused.tsv", "--epochs", "three",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "expected an integer" in capsys.readouterr().err

    def test_missing_required_setting(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "corpus" in capsys.readouterr().err

    def test_usage_problems_exit_1(self):
        for argv in (["--no-such-flag"], ["frobnicate"], []):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1

    def test_missing_corpus_file_is_runtime_failure(self, tmp_path, train_dir):
        rc = main(["eval", "--checkpoint", str(train_dir / "model.ckpt"),
                   "--corpus", str(tmp_path / "absent.tsv"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2


class TestTrain:
    def test_outputs(self, train_dir):
        model = DienModel.load(train_dir / "model.ckpt")
        assert model.variant is ModelVariant.DIEN
        header = json.loads((train_dir / "model.ckpt").read_bytes().split(b"\n", 1)[0])
        assert header["embed_dim"] == 4 and header["hidden_size"] == 8
        curves = (train_dir / "curves.csv").read_text().splitlines()
        assert curves[0] == "epoch,step,l_target,l_aux,l_total"
        assert len(curves) == 1 + 5  # 144 train rows in batches of 32
        echo = (train_dir / "train_config.ini").read_text()
        assert "variant = dien" in echo
        assert "mlp_hidden = 8" in echo

    def test_variant_echoed_by_name(self, corpus_dir, tmp_path):
        rc = main(["train", "--corpus", str(corpus_dir / "corpus.tsv"),
                   "--variant", "DIEN", "--epochs", "0", *TINY_TRAIN_FLAGS[2:],
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "variant = dien" in (tmp_path / "train_config.ini").read_text()

    def test_rerun_is_byte_identical(self, corpus_dir, train_dir, tmp_path):
        rc = main(["train", "--corpus", str(corpus_dir / "corpus.tsv"),
                   *TINY_TRAIN_FLAGS, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "model.ckpt").read_bytes() == \
            (train_dir / "model.ckpt").read_bytes()
        assert (tmp_path / "curves.csv").read_bytes() == \
            (train_dir / "curves.csv").read_bytes()


class TestEval:
    def test_metrics_file(self, corpus_dir, train_dir, tmp_path):
        rc = main(["eval", "--checkpoint", str(train_dir / "model.ckpt"),
                   "--corpus", str(corpus_dir / "corpus.tsv"), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "variant,seed,auc"
        name, seed, value = lines[1].split(",")
        assert name == "dien" and seed == "0"
        assert 0.0 <= float(value) <= 1.0

    @pytest.mark.parametrize("command, expect", [
        ("eval", "no instances to score"), ("ablation", "corpus has no test instances"),
    ])
    def test_empty_test_split_is_bad_input(self, command, expect, tmp_path, capsys):
        # 4 users hold 8 rows, and a tenth of 4 split units rounds to none
        assert main(["synth", "--n-users", "4", "--out", str(tmp_path / "synth")]) == 0
        corpus = str(tmp_path / "synth" / "corpus.tsv")
        assert main(["train", "--corpus", corpus, *TINY_TRAIN_FLAGS,
                     "--out", str(tmp_path / "train")]) == 0
        capsys.readouterr()
        argv = [command, "--corpus", corpus, "--out", str(tmp_path / "out")]
        if command == "eval":
            argv += ["--checkpoint", str(tmp_path / "train" / "model.ckpt")]
        else:
            argv += [*TINY_TRAIN_FLAGS, "--n-repeats", "1"]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("ERROR ") and expect in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_history_must_be_positive(self, value, corpus_dir, train_dir, tmp_path,
                                          capsys):
        # a history cut to nothing would leave a row with no step to attend to
        rc = main(["eval", "--checkpoint", str(train_dir / "model.ckpt"),
                   "--corpus", str(corpus_dir / "corpus.tsv"), "--max-history", value,
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("ERROR ")
        assert f"max_history must be at least 1, got {value}" in err
        assert not (tmp_path / "out").exists()


class TestGradcheck:
    def test_pass_run(self, tmp_path, capsys):
        rc = main(["gradcheck", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[ok]" in out
        assert "PASS: worst group" in out
        assert (tmp_path / "gradcheck_config.ini").exists()

    def test_unreachable_tolerance_fails_with_2(self, tmp_path, capsys):
        rc = main(["gradcheck", "--tolerance", "1e-15", "--out", str(tmp_path)])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_tolerance_must_be_finite_and_positive(self, value, tmp_path, capsys):
        # every comparison with NaN is false, so a NaN tolerance failed
        # every group however small its error
        rc = main(["gradcheck", "--tolerance", value, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "tolerance must be finite and positive" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_epsilon_must_be_finite_and_positive(self, value, tmp_path, capsys):
        # an infinite step made every probe's loss non-finite, a runtime
        # failure (exit 2) for what is a bad setting
        rc = main(["gradcheck", "--epsilon", value, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "epsilon must be finite and positive" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("embed_dim", ["2000", "100000"])
    def test_over_budget_refused_before_build(self, embed_dim, tmp_path, capsys, monkeypatch):
        # 2000 would build 208,116,017 parameters (about 1.6 GB) first, and
        # 100000 would ask for hundreds of GiB
        def unbuilt(*args, **kwargs):
            raise AssertionError("DienModel.build ran for an over-budget config")

        monkeypatch.setattr(DienModel, "build", unbuilt)
        rc = main(["gradcheck", "--embed-dim", embed_dim, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert len(captured.err.splitlines()) == 1
        assert "parameters is past the 6000 budget" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestViz:
    def test_outputs(self, corpus_dir, train_dir, tmp_path):
        rc = main(["viz", "--checkpoint", str(train_dir / "model.ckpt"),
                   "--corpus", str(corpus_dir / "corpus.tsv"),
                   "--steps", "6", "--out", str(tmp_path)])
        assert rc == 0
        traj = (tmp_path / "viz_trajectories.csv").read_text().splitlines()
        attn = (tmp_path / "viz_attention.csv").read_text().splitlines()
        assert traj[0] == "probe,step,x,y"
        assert attn[0] == "probe,step,score"
        assert len(traj) == len(attn) == 1 + 3 * 6  # two probes plus none
        assert any(line.startswith("none,") for line in attn[1:])

    def test_flat_model_rejected(self, corpus_dir, tmp_path, capsys):
        rc = main(["train", "--corpus", str(corpus_dir / "corpus.tsv"),
                   "--variant", "base", "--epochs", "0", *TINY_TRAIN_FLAGS[2:],
                   "--out", str(tmp_path / "flat")])
        assert rc == 0
        rc = main(["viz", "--checkpoint", str(tmp_path / "flat" / "model.ckpt"),
                   "--corpus", str(corpus_dir / "corpus.tsv"),
                   "--steps", "6", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "no evolution layer" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_steps_below_1_rejected(self, steps, corpus_dir, train_dir, tmp_path, capsys):
        # a history of steps - 1 behaviors in one category used to come
        # out short and be blamed on the corpus
        rc = main(["viz", "--checkpoint", str(train_dir / "model.ckpt"),
                   "--corpus", str(corpus_dir / "corpus.tsv"),
                   "--steps", steps, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1
        assert f"steps must be at least 1, got {steps}" in err

    @pytest.mark.parametrize("case", ["steps 0", "flat model", "two-category corpus"])
    def test_bad_input_leaves_no_output(self, case, corpus_dir, train_dir, tmp_path, capsys):
        # every check runs before the output directory and its echo are made
        checkpoint, corpus, steps = train_dir / "model.ckpt", corpus_dir / "corpus.tsv", "6"
        if case == "steps 0":
            steps = "0"
        elif case == "flat model":
            checkpoint = tmp_path / "flat" / "model.ckpt"
            assert main(["train", "--corpus", str(corpus), "--variant", "base",
                         "--epochs", "0", *TINY_TRAIN_FLAGS[2:],
                         "--out", str(checkpoint.parent)]) == 0
        else:  # the probes need three categories
            corpus = tmp_path / "small" / "corpus.tsv"
            assert main(["synth", "--n-users", "20", "--n-items", "40", "--n-cats", "2",
                         "--seq-len", "4", "--out", str(corpus.parent)]) == 0
        capsys.readouterr()
        rc = main(["viz", "--checkpoint", str(checkpoint), "--corpus", str(corpus),
                   "--steps", steps, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("ERROR ")
        assert not (tmp_path / "out").exists()

    def test_one_step(self, corpus_dir, train_dir, tmp_path):
        rc = main(["viz", "--checkpoint", str(train_dir / "model.ckpt"),
                   "--corpus", str(corpus_dir / "corpus.tsv"),
                   "--steps", "1", "--out", str(tmp_path)])
        assert rc == 0
        traj = (tmp_path / "viz_trajectories.csv").read_text().splitlines()
        assert len(traj) == 1 + 3 * 1


class TestAblation:
    def test_two_variant_run(self, corpus_dir, tmp_path):
        rc = main(["ablation", "--corpus", str(corpus_dir / "corpus.tsv"),
                   "--variants", "base,gru_augru", "--n-repeats", "1",
                   *TINY_TRAIN_FLAGS, "--out", str(tmp_path)])
        assert rc == 0
        metrics = (tmp_path / "metrics.csv").read_text().splitlines()
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(metrics) == 1 + 2 and len(summary) == 1 + 2
        assert metrics[1].startswith("base,0,")
        assert metrics[2].startswith("gru_augru,0,")
        assert summary[1].split(",")[0] == "base"


class TestNegativeSeed:
    """A negative seed is a bad setting: exit 1 with one line, not a
    traceback from the random generator."""

    @pytest.mark.parametrize("command, flag", [
        ("synth", "--seed"), ("train", "--seed"), ("train", "--split-seed"),
        ("gradcheck", "--seed"), ("ablation", "--seed"),
    ])
    def test_exit_1_with_one_line(self, command, flag, corpus_dir, tmp_path, capsys):
        argv = [command, flag, "-1", "--out", str(tmp_path / "out")]
        if command in ("train", "ablation"):
            argv += ["--corpus", str(corpus_dir / "corpus.tsv")]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("ERROR ")
        assert f"{flag[2:].replace('-', '_')} must not be negative" in err
        assert not (tmp_path / "out").exists()


class TestInfiniteAlpha:
    """An infinite alpha is a bad setting, exit 1 with one line: inf times
    an aux loss of 0 is NaN, which ended the first step as a non-finite
    loss (exit 2) after the model was built."""

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_exit_1_with_one_line(self, command, corpus_dir, tmp_path, capsys):
        argv = [command, "--alpha", "inf", "--out", str(tmp_path / "out")]
        if command == "train":
            argv += ["--corpus", str(corpus_dir / "corpus.tsv")]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("ERROR ")
        assert "alpha must be finite and nonnegative, got inf" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestOversizedSizes:
    """A size past what numpy can hold is a bad setting, and an allocation
    the machine cannot make is a runtime failure: one line either way, not a
    traceback from numpy."""

    @pytest.mark.parametrize("argv, expect", [
        (["train", "--embed-dim", str(10**20)], "more than one float64 array can hold"),
        (["train", "--embed-dim", str(2**62)], "more than one float64 array can hold"),
        (["train", "--mlp-hidden", str(2**62)], "more than one float64 array can hold"),
        (["train", "--embed-dim", str(10**12)], "more than one float64 array can hold"),
        (["synth", "--n-users", "2", "--n-items", str(10**20)], "more than an int64 id"),
        (["synth", "--n-users", "2", "--n-cats", str(10**20), "--n-items", str(10**21)],
         "more than an int64 id"),
    ])
    def test_exit_1_with_one_line(self, argv, expect, corpus_dir, tmp_path, capsys):
        if argv[0] == "train":
            argv = [*argv, "--corpus", str(corpus_dir / "corpus.tsv")]
        rc = main([*argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("ERROR ") and expect in err
        assert not (tmp_path / "out").exists()

    def test_failed_allocation_exits_2_with_one_line(self, corpus_dir, tmp_path, capsys,
                                                     monkeypatch):
        # a 10**12 x 201 table fits a numpy array but not the machine
        def unable(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.43 PiB for an array")

        monkeypatch.setattr(dien.model, "EmbeddingTable", unable)
        rc = main(["train", "--variant", "base", "--embed-dim", str(10**12),
                   "--corpus", str(corpus_dir / "corpus.tsv"), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert err.splitlines() == ["ERROR out of memory: Unable to allocate 1.43 PiB for an array"]

    def test_largest_item_count_still_generates(self, tmp_path):
        out = tmp_path / "out"
        assert main(["synth", "--n-users", "2", "--n-items", str(2**62), "--out", str(out)]) == 0
        assert len((out / "corpus.tsv").read_text().splitlines()) == 4


def test_library_trains_the_cli_checkpoint(tmp_path):
    # the generated corpus in memory is the one `dien train` parses back
    assert main(["synth", "--n-users", "300", "--seed", "3",
                 "--out", str(tmp_path / "synth")]) == 0
    assert main(["train", "--corpus", str(tmp_path / "synth" / "corpus.tsv"), "--epochs", "1",
                 "--embed-dim", "4", "--mlp-hidden", "8", "--out", str(tmp_path / "train")]) == 0
    model, _ = train(synth_generate(SynthConfig(n_users=300, seed=3)),
                     TrainConfig(epochs=1, embed_dim=4, mlp_hidden=(8,)))
    model.save(tmp_path / "library.ckpt")
    assert (tmp_path / "library.ckpt").read_bytes() == \
        (tmp_path / "train" / "model.ckpt").read_bytes()


# command -> the flags of its reference run, path settings aside
REFERENCE_FLAGS = {
    "synth": SYNTH_FLAGS,
    "train": TINY_TRAIN_FLAGS,
    "eval": [],
    "viz": ["--steps", "6"],
    # dien, so that alpha reaches the AUC
    "ablation": ["--variants", "dien", "--n-repeats", "1", *TINY_TRAIN_FLAGS],
    "gradcheck": [],
}
PATH_KEYS = {"corpus", "checkpoint", "out"}
# (command, setting) -> a value that differs from the reference run's
PERTURBED = {
    ("synth", "n_users"): "81", ("synth", "n_items"): "130", ("synth", "n_cats"): "12",
    ("synth", "seq_len"): "5", ("synth", "drift_prob"): "0.5", ("synth", "noise"): "0.3",
    ("synth", "seed"): "8",
    ("train", "variant"): "gru_augru", ("train", "alpha"): "0.5", ("train", "epochs"): "2",
    ("train", "batch_size"): "16", ("train", "learning_rate"): "0.001",
    ("train", "seed"): "1", ("train", "embed_dim"): "3", ("train", "mlp_hidden"): "6",
    ("train", "max_history"): "3", ("train", "split_seed"): "1",
    ("eval", "seed"): "1", ("eval", "split_seed"): "1", ("eval", "max_history"): "1",
    ("viz", "steps"): "5",
    ("ablation", "variants"): "gru_augru", ("ablation", "n_repeats"): "2",
    ("ablation", "split_seed"): "1",
    # on the 80-row held-out split, alpha 0.5 happens to give the reference AUC
    ("ablation", "alpha"): "0.2", ("ablation", "epochs"): "2",
    ("ablation", "batch_size"): "16", ("ablation", "learning_rate"): "0.001",
    ("ablation", "seed"): "1", ("ablation", "embed_dim"): "3",
    ("ablation", "mlp_hidden"): "6", ("ablation", "max_history"): "3",
    ("gradcheck", "tolerance"): "0.001", ("gradcheck", "epsilon"): "0.0001",
    ("gradcheck", "variant"): "gru_augru", ("gradcheck", "alpha"): "0.5",
    ("gradcheck", "embed_dim"): "3", ("gradcheck", "mlp_hidden"): "6",
    ("gradcheck", "seed"): "1",
}


@pytest.fixture(scope="module")
def setting_inputs(tmp_path_factory):
    """(corpus dir, train dir) large enough that a rank metric over the
    test split moves when the scores do."""
    corpus_dir = tmp_path_factory.mktemp("setting_corpus")
    assert main(["synth", *SYNTH_FLAGS, "--n-users", "400", "--out", str(corpus_dir)]) == 0
    train_dir = tmp_path_factory.mktemp("setting_train")
    assert main(["train", "--corpus", str(corpus_dir / "corpus.tsv"), *TINY_TRAIN_FLAGS,
                 "--out", str(train_dir)]) == 0
    return corpus_dir, train_dir


@pytest.fixture(scope="module")
def reference_outputs(setting_inputs, tmp_path_factory):
    """command -> outputs of its reference run, computed on first use."""
    cache = {}

    def get(command):
        if command not in cache:
            out = tmp_path_factory.mktemp(f"reference_{command}")
            cache[command] = _run_outputs(command, [], *setting_inputs, out)
        return cache[command]
    return get


def _run_outputs(command, extra, corpus_dir, train_dir, out):
    """Every output file's bytes, the settings echo excluded, plus stdout,
    of one run of `command` with the reference flags and then `extra`."""
    paths = []
    if command not in ("synth", "gradcheck"):
        paths += ["--corpus", str(corpus_dir / "corpus.tsv")]
    if command in ("eval", "viz"):
        paths += ["--checkpoint", str(train_dir / "model.ckpt")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main([command, *paths, *REFERENCE_FLAGS[command], *extra, "--out", str(out)])
    assert rc == 0
    got = {p.name: p.read_bytes() for p in out.iterdir()
           if not p.name.endswith("_config.ini")}
    got["stdout"] = stdout.getvalue()
    return got


class TestEverySettingMatters:
    """A setting whose value reaches no output is dead weight: each one
    must change some output file or stdout when perturbed alone."""

    def test_table_covers_every_setting(self):
        # every command's copy of a shared TrainConfig field is perturbed on
        # its own: a command may drop or override what another one reads
        want = {(command, key) for command, schema in _SCHEMAS.items() for key in schema
                if key not in PATH_KEYS}
        assert set(PERTURBED) == want

    @pytest.mark.parametrize("command, key", sorted(PERTURBED),
                             ids=[f"{c}.{k}" for c, k in sorted(PERTURBED)])
    def test_setting_changes_an_output(self, command, key, reference_outputs,
                                       setting_inputs, tmp_path):
        flag = ["--" + key.replace("_", "-"), PERTURBED[command, key]]
        got = _run_outputs(command, flag, *setting_inputs, tmp_path)
        assert got != reference_outputs(command), f"{command} {key} changed no output"


def _checkpoint_edit(edit):
    """A corruption that rewrites the checkpoint's JSON header line and its
    array bytes: `edit(header, body)` returns both."""
    def corrupt(raw):
        head, body = raw.split(b"\n", 1)
        head, body = edit(json.loads(head), body)
        return json.dumps(head).encode() + b"\n" + body
    return corrupt


def _header_edit(edit):
    """A corruption that rewrites the checkpoint's JSON header line."""
    return _checkpoint_edit(lambda head, body: (edit(head), body))


def _listed(head, arrays):
    return {**head, "arrays": arrays}


def _ones(shape):
    return np.ones(shape, dtype="<f8").tobytes()


# name -> (corruption of the checkpoint bytes, text the error line must hold)
CORRUPT_CHECKPOINTS = {
    "header without arrays": (
        _header_edit(lambda h: {k: v for k, v in h.items() if k != "arrays"}), "'arrays'"),
    "text embed_dim": (_header_edit(lambda h: {**h, "embed_dim": "x"}), "'embed_dim'"),
    "NaN alpha": (_header_edit(lambda h: {**h, "alpha": float("nan")}), "'alpha'"),
    # alpha is a JSON number and version the JSON integer 1: float() read
    # true as 1.0 and "2.5" as 2.5, and true passed `!= 1`
    "boolean alpha": (_header_edit(lambda h: {**h, "alpha": True}), "'alpha'"),
    "text alpha": (_header_edit(lambda h: {**h, "alpha": "2.5"}), "'alpha'"),
    # a JSON integer past the float range: float() raised OverflowError
    "huge alpha": (_header_edit(lambda h: {**h, "alpha": 10**400}), "'alpha'"),
    "boolean version": (_header_edit(lambda h: {**h, "version": True}), "not a version-1"),
    "fractional version": (_header_edit(lambda h: {**h, "version": 1.0}), "not a version-1"),
    # sizes are JSON integers: int() overflowed on 1e999 and truncated 4.9
    # and True to sizes that loaded
    "infinite embed_dim": (lambda raw: raw.replace(b'"embed_dim":4', b'"embed_dim":1e999', 1),
                           "'embed_dim'"),
    "fractional shape": (_header_edit(lambda h: _listed(h, [
        ["item_emb", [h["arrays"][0][1][0] + 0.9, h["arrays"][0][1][1]]], *h["arrays"][1:]])),
        "'arrays'"),
    "boolean shape": (_header_edit(lambda h: _listed(h, [*h["arrays"][:-1], ["mlp.b1", [True]]])),
                      "'arrays'"),
    "list header": (lambda raw: b"[1,2]\n" + raw.split(b"\n", 1)[1], "not a version-1"),
    "non-UTF-8 header": (lambda raw: raw.replace(b'"variant":"dien"', b'"variant":"di\xe9n"', 1),
                         "bad checkpoint header"),
    # the last eight bytes are the head's output bias
    "NaN weight": (lambda raw: raw[:-8] + np.array([np.nan], dtype="<f8").tobytes(),
                   "'mlp.b1' holds non-finite"),
    # the dien model lists 25 arrays, item_emb first and mlp.b1 (1,) last;
    # each edit below keeps the byte count equal to what the header lists
    "array listed twice": (_checkpoint_edit(lambda h, b: (
        _listed(h, h["arrays"] + h["arrays"][:1]), b + _ones(h["arrays"][0][1]))),
        "array 25 is ('item_emb'"),
    "array the model lacks": (_checkpoint_edit(lambda h, b: (
        _listed(h, h["arrays"] + [["bogus", [2]]]), b + _ones(2))),
        "array 25 is ('bogus', (2,)), the model expects nothing"),
    "missing array": (_checkpoint_edit(lambda h, b: (_listed(h, h["arrays"][:-1]), b[:-8])),
                      "array 24 is nothing, the model expects ('mlp.b1', (1,))"),
    "wrong shape": (_checkpoint_edit(lambda h, b: (
        _listed(h, h["arrays"][:-1] + [["mlp.b1", [2]]]), b + _ones(1))),
        "array 24 is ('mlp.b1', (2,)), the model expects ('mlp.b1', (1,))"),
    # 32 TB of item_emb: the byte count is checked before anything is allocated
    "huge shape": (_header_edit(lambda h: _listed(
        h, [["item_emb", [h["arrays"][0][1][0], 10**12]], *h["arrays"][1:]])), "truncated"),
    # the header's sizes are checked against the listed shapes before the
    # model is built from them (numpy refuses 10**12 columns at once)
    "huge header vocabulary": (_header_edit(lambda h: {**h, "item_vocab": 10**12}),
                               "array 0 is ('item_emb', (4, 120)), the model expects "
                               "('item_emb', (4, 1000000000000))"),
    "huge header width": (_header_edit(lambda h: {**h, "mlp_widths": [
        *h["mlp_widths"][:1], 10**12, *h["mlp_widths"][2:]]}),
        "the model expects ('mlp.w0', (1000000000000, "),
    # the head's input width follows from the other sizes
    "head input width off": (_header_edit(lambda h: {**h, "mlp_widths": [
        h["mlp_widths"][0] + 1, *h["mlp_widths"][1:]]}),
        "header mlp_widths [17, 8, 1], the other header sizes give [16, 8, 1]"),
}


def _middle_line_edit(edit):
    """A corruption that rewrites the middle line of a corpus."""
    def corrupt(raw):
        lines = raw.splitlines(keepends=True)
        lines[len(lines) // 2] = edit(lines[len(lines) // 2])
        return b"".join(lines)
    return corrupt


def _pad_first_behavior(line):
    parts = line.split(b"\t")
    parts[3] = b",".join([b"<pad>", *parts[3].split(b",")[1:]])
    return b"\t".join(parts)


# name -> (corruption of the corpus bytes, text the error line must hold)
CORRUPT_CORPORA = {
    "non-UTF-8 corpus": (_middle_line_edit(lambda l: l.replace(b"\t", b"\xe9\t", 1)),
                         "not UTF-8"),
    # the padding token would alias id 0, the zero padding vector
    "padding token in corpus": (_middle_line_edit(_pad_first_behavior),
                                "line 81: field 4: <pad>"),
    "two-field corpus line": (_middle_line_edit(lambda l: b"1\tI1\n"),
                              "line 81: expected 5 fields, found 2"),
}


class TestCorruptInputs:
    """A corrupt checkpoint or corpus fails with exit 1 and one error line
    naming the file, never with a traceback."""

    @pytest.mark.parametrize("case", [*CORRUPT_CHECKPOINTS, *CORRUPT_CORPORA])
    def test_exit_1_with_one_line(self, case, corpus_dir, train_dir, tmp_path, capsys):
        corpus = corpus_dir / "corpus.tsv"
        if case in CORRUPT_CHECKPOINTS:
            corrupt, expect = CORRUPT_CHECKPOINTS[case]
            bad = tmp_path / "model.ckpt"
            bad.write_bytes(corrupt((train_dir / "model.ckpt").read_bytes()))
            argv = ["eval", "--checkpoint", str(bad), "--corpus", str(corpus)]
        else:
            corrupt, expect = CORRUPT_CORPORA[case]
            bad = tmp_path / "corpus.tsv"
            bad.write_bytes(corrupt(corpus.read_bytes()))
            argv = ["train", "--corpus", str(bad), *TINY_TRAIN_FLAGS]
        rc = main([*argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("ERROR ")
        assert str(bad) in err and expect in err
        assert not (tmp_path / "out").exists()


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_entry():
    """The `dien` entry of `[project.scripts]` in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11 on
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "dien" in scripts, "pyproject.toml declares no `dien` console script"
    return scripts["dien"]


def _installed_entry():
    """The installed distribution's `dien` console_scripts entry, or None
    when the distribution is not installed for this interpreter."""
    try:
        dist = importlib.metadata.distribution("dien")
    except importlib.metadata.PackageNotFoundError:
        return None
    found = [ep.value for ep in dist.entry_points
             if ep.group == "console_scripts" and ep.name == "dien"]
    assert found, "installed dien distribution has no `dien` console script"
    return found[0]


def _run_script(command, args, cwd):
    """Run `command + args` with the directory holding the imported `dien`
    package first on PYTHONPATH."""
    env = dict(os.environ)
    pkg_root = str(Path(dien.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([*command, *args], capture_output=True, text=True,
                          timeout=60, cwd=cwd, env=env)


def _wrapper(entry):
    """The launcher an installer generates for a `module:attr` entry."""
    ep = importlib.metadata.EntryPoint("dien", entry, "console_scripts")
    head = ep.attr.split(".")[0]
    code = "import sys\nfrom %s import %s\nsys.exit(%s())\n" % (
        ep.module, head, ep.attr)
    return [sys.executable, "-c", code]


class TestConsoleScript:
    def test_entry_point_installed(self, tmp_path):
        # The declared script must work as a program, installed or not: the
        # installer's wrapper is run here, not `main()` in-process.
        entry = _installed_entry()
        if entry is None:
            entry = _declared_entry()
        elif importlib.util.find_spec("tomllib") is not None:
            assert entry == _declared_entry(), \
                "installed `dien` script is stale: reinstall the package"
        launchers = [_wrapper(entry)]
        exe = shutil.which("dien")
        if exe:
            launchers.append([exe])

        for launcher in launchers:
            done = _run_script(launcher, ["train", "--help"], tmp_path)
            assert done.returncode == 0, done.stderr
            assert "--learning-rate" in done.stdout

            # main() returns its code instead of raising: sys.exit must carry it
            done = _run_script(launcher, ["train", "--out", str(tmp_path / "out")],
                               tmp_path)
            assert done.returncode == 1, done.stderr
            assert "corpus" in done.stderr
            assert "Traceback" not in done.stderr
