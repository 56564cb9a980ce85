"""Command-line front end.

Subcommands: synth, train, eval, ablation, gradcheck, viz.  Settings come
from built-in defaults, overridden by the matching section of an INI config
file (flat key = value), overridden by command-line flags.  Every run
writes the fully resolved settings next to its outputs, so any artifact can
be regenerated from that echo alone.

Logs go to standard error; data goes to files (gradcheck additionally
prints its report to standard output).  Exit codes: 0 success, 1 invalid
configuration or input, 2 runtime failure.

The --workers flag parallelizes independent units of work (evaluation
chunks, repeated training runs).  Work is always split at fixed boundaries
and merged in fixed order, so results are identical for any worker count.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import sys
from pathlib import Path

from .data import SynthConfig, parse_corpus, save_corpus, synth_generate
from .errors import ConfigError, DienError
from .evaluation import (
    build_viz_probes,
    evaluate,
    export_viz,
    run_ablation,
    write_metrics,
    write_summary,
)
from .model import DienModel, ModelVariant
from .training import TrainConfig, grad_check, train, write_curves

log = logging.getLogger("dien")


def _pint(raw, key: str) -> int:
    try:
        return int(str(raw), 10)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _pfloat(raw, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _pstr(raw, key: str) -> str:
    return str(raw)


def _pints(raw, key: str) -> tuple:
    if isinstance(raw, tuple):
        return raw
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected comma-separated integers, got {raw!r}")
    return tuple(_pint(p, key) for p in parts)


def _pstrs(raw, key: str) -> tuple:
    if isinstance(raw, tuple):
        return raw
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated list, got {raw!r}")
    return tuple(parts)


_TRAIN_KEYS = {
    "variant": _pstr, "alpha": _pfloat, "epochs": _pint, "batch_size": _pint,
    "learning_rate": _pfloat, "seed": _pint, "embed_dim": _pint,
    "hidden_size": _pint, "mlp_hidden": _pints, "max_history": _pint,
}

_SCHEMAS = {
    "synth": {
        "n_users": _pint, "n_items": _pint, "n_cats": _pint, "seq_len": _pint,
        "drift_prob": _pfloat, "noise": _pfloat, "test_fraction": _pfloat,
        "seed": _pint, "out": _pstr,
    },
    "train": {
        **_TRAIN_KEYS, "corpus": _pstr, "split_seed": _pint, "out": _pstr,
    },
    "eval": {
        "corpus": _pstr, "checkpoint": _pstr, "seed": _pint, "split_seed": _pint,
        "max_history": _pint, "workers": _pint, "out": _pstr,
    },
    "ablation": {
        **_TRAIN_KEYS, "corpus": _pstr, "split_seed": _pint, "variants": _pstrs,
        "n_repeats": _pint, "workers": _pint, "out": _pstr,
    },
    "gradcheck": {
        "variant": _pstr, "alpha": _pfloat, "embed_dim": _pint,
        "hidden_size": _pint, "mlp_hidden": _pints, "seed": _pint,
        "tolerance": _pfloat, "epsilon": _pfloat, "out": _pstr,
    },
    "viz": {
        "corpus": _pstr, "checkpoint": _pstr, "steps": _pint, "split_seed": _pint,
        "out": _pstr,
    },
}

_TRAIN_DEFAULTS = dict(
    variant="dien", alpha=1.0, epochs=2, batch_size=128, learning_rate=8e-4,
    seed=0, embed_dim=16, hidden_size=32, mlp_hidden=(64, 32), max_history=50,
)

_DEFAULTS = {
    "synth": dict(n_users=10000, n_items=200, n_cats=10, seq_len=10,
                  drift_prob=0.3, noise=0.1, test_fraction=0.1, seed=0,
                  out="out_synth"),
    "train": dict(_TRAIN_DEFAULTS, split_seed=0, out="out_train"),
    "eval": dict(seed=0, split_seed=0, max_history=50, workers=1, out="out_eval"),
    "ablation": dict(_TRAIN_DEFAULTS, split_seed=0, workers=1, n_repeats=5,
                     variants=("base", "two_layer_gru_att", "gru_augru", "dien"),
                     out="out_ablation"),
    "gradcheck": dict(variant="dien", alpha=1.0, embed_dim=2, hidden_size=4,
                      mlp_hidden=(8,), seed=0, tolerance=1e-4, epsilon=1e-5,
                      out="out_gradcheck"),
    "viz": dict(steps=10, split_seed=0, out="out_viz"),
}


def _load_file(path: str, command: str, schema: dict) -> dict:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for section in cp.sections():
        if section not in _SCHEMAS:
            raise ConfigError(f"{path}: unknown section [{section}]")
    out = {}
    if cp.has_section(command):
        for key, raw in cp.items(command):
            if key not in schema:
                raise ConfigError(f"{path}: unknown key {key!r} in [{command}]")
            out[key] = schema[key](raw, key)
    return out


def _resolve(command: str, ns: argparse.Namespace) -> dict:
    schema = _SCHEMAS[command]
    values = dict(_DEFAULTS[command])
    if ns.config:
        values.update(_load_file(ns.config, command, schema))
    for key, parse in schema.items():
        raw = getattr(ns, key, None)
        if raw is not None:
            values[key] = parse(raw, key)
    missing = sorted(k for k in schema if k not in values)
    if missing:
        raise ConfigError(f"{command}: missing required settings: {', '.join(missing)}")
    return values


def _fmt_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_echo(out_dir: Path, command: str, values: dict) -> None:
    lines = [f"[{command}]"]
    lines += [f"{key} = {_fmt_value(values[key])}" for key in sorted(values)]
    (out_dir / f"{command}_config.ini").write_text("\n".join(lines) + "\n",
                                                  encoding="utf-8")


def _out_dir(values: dict) -> Path:
    out = Path(values["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _train_config(values: dict) -> TrainConfig:
    cfg = TrainConfig(
        variant=ModelVariant.parse(values["variant"]), alpha=values["alpha"],
        epochs=values["epochs"], batch_size=values["batch_size"],
        learning_rate=values["learning_rate"], seed=values["seed"],
        embed_dim=values["embed_dim"], hidden_size=values["hidden_size"],
        mlp_hidden=tuple(values["mlp_hidden"]), max_history=values["max_history"],
    )
    cfg.validate()
    return cfg


def cmd_synth(values: dict) -> int:
    cfg = SynthConfig(
        n_users=values["n_users"], n_items=values["n_items"],
        n_cats=values["n_cats"], seq_len=values["seq_len"],
        drift_prob=values["drift_prob"], noise=values["noise"],
        seed=values["seed"], test_fraction=values["test_fraction"],
    )
    cfg.validate()
    corpus = synth_generate(cfg)
    out = _out_dir(values)
    _write_echo(out, "synth", values)
    save_corpus(corpus, out / "corpus.tsv")
    log.info("wrote %d instances (%d train / %d test) to %s",
             len(corpus.instances), len(corpus.train_idx), len(corpus.test_idx),
             out / "corpus.tsv")
    return 0


def cmd_train(values: dict) -> int:
    cfg = _train_config(values)
    corpus = parse_corpus(values["corpus"], split_seed=values["split_seed"])
    model, curves = train(corpus, cfg)
    out = _out_dir(values)
    _write_echo(out, "train", values)
    model.save(out / "model.ckpt")
    write_curves(out / "curves.csv", curves)
    tail = curves[-1].l_total if curves else float("nan")
    log.info("trained %s: %d steps, final loss %.6f; checkpoint at %s",
             cfg.variant.value, len(curves), tail, out / "model.ckpt")
    return 0


def cmd_eval(values: dict) -> int:
    model = DienModel.load(values["checkpoint"])
    corpus = parse_corpus(values["corpus"], split_seed=values["split_seed"])
    report = evaluate(model, corpus.test(), max_history=values["max_history"],
                      workers=values["workers"])
    out = _out_dir(values)
    _write_echo(out, "eval", values)
    write_metrics(out / "metrics.csv", [(model.variant, values["seed"], report.auc)])
    log.info("auc %.6f on %d positives / %d negatives", report.auc,
             report.n_pos, report.n_neg)
    return 0


def cmd_ablation(values: dict) -> int:
    cfg = _train_config(values)
    variants = [ModelVariant.parse(v) for v in values["variants"]]
    corpus = parse_corpus(values["corpus"], split_seed=values["split_seed"])
    results = run_ablation(corpus, cfg, variants, n_repeats=values["n_repeats"],
                           workers=values["workers"])
    out = _out_dir(values)
    _write_echo(out, "ablation", values)
    metric_rows = []
    for variant, report in results:
        for k, value in enumerate(report.per_seed):
            metric_rows.append((variant, cfg.seed + k, value))
        log.info("%s: mean auc %.6f, std %.6f", variant.value, report.mean, report.std)
    write_metrics(out / "metrics.csv", metric_rows)
    write_summary(out / "summary.csv", results)
    return 0


def cmd_gradcheck(values: dict) -> int:
    cfg = TrainConfig(
        variant=ModelVariant.parse(values["variant"]), alpha=values["alpha"],
        embed_dim=values["embed_dim"], hidden_size=values["hidden_size"],
        mlp_hidden=tuple(values["mlp_hidden"]), seed=values["seed"],
    )
    cfg.validate()
    report = grad_check(cfg, tolerance=values["tolerance"], epsilon=values["epsilon"])
    out = _out_dir(values)
    _write_echo(out, "gradcheck", values)
    for line in report.lines():
        print(line)
    verdict = "PASS" if report.passed() else "FAIL"
    worst_name, worst_err = report.worst()
    print(f"{verdict}: worst group {worst_name} at {worst_err:.3e} "
          f"(tolerance {values['tolerance']:g})")
    return 0 if report.passed() else 2


def cmd_viz(values: dict) -> int:
    model = DienModel.load(values["checkpoint"])
    corpus = parse_corpus(values["corpus"], split_seed=values["split_seed"])
    probes, labels, step_labels = build_viz_probes(corpus, steps=values["steps"])
    out = _out_dir(values)
    _write_echo(out, "viz", values)
    bundle = export_viz(model, probes, labels, out / "viz_trajectories.csv",
                        out / "viz_attention.csv", step_labels)
    log.info("wrote %d trajectories over %d steps to %s", len(bundle.labels),
             values["steps"], out)
    return 0


_COMMANDS = {
    "synth": cmd_synth, "train": cmd_train, "eval": cmd_eval,
    "ablation": cmd_ablation, "gradcheck": cmd_gradcheck, "viz": cmd_viz,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract reserves 2 for
    # runtime failures, so downgrade usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dien", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    help_hints = {
        "corpus": "corpus TSV path", "checkpoint": "model checkpoint path",
        "out": "output directory", "workers": "worker threads for parallel sections",
        "variants": "comma-separated variant list",
        "mlp_hidden": "comma-separated hidden widths",
    }
    for command, schema in _SCHEMAS.items():
        sub = subs.add_parser(command)
        sub.add_argument("--config", help="INI file with a [%s] section" % command)
        for key in schema:
            flag = "--" + key.replace("_", "-")
            sub.add_argument(flag, dest=key, help=help_hints.get(key), default=None)
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s", force=True)
    try:
        values = _resolve(ns.command, ns)
        return _COMMANDS[ns.command](values)
    except DienError as exc:
        log.error("%s", exc)
        return 1 if isinstance(exc, ValueError) else 2
    except OSError as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
