"""Command-line front end.

Subcommands: synth, train, eval, ablation, gradcheck, viz.  Settings come
from built-in defaults, overridden by the matching section of an INI config
file (flat key = value), overridden by command-line flags.  Every run
writes the fully resolved settings next to its outputs, so any artifact can
be regenerated from that echo alone.

Logs go to standard error; data goes to files (gradcheck additionally
prints its report to standard output).  Exit codes: 0 success, 1 invalid
configuration or input, 2 runtime failure.

The train and synth settings are the fields of TrainConfig and SynthConfig,
with their defaults; ablation takes TrainConfig's fields except variant.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import sys
from dataclasses import fields
from pathlib import Path

from .data import SynthConfig, parse_corpus, save_corpus, synth_generate
from .errors import ConfigError, DienError
from .evaluation import (
    evaluate,
    run_ablation,
    viz_bundle,
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
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected comma-separated integers, got {raw!r}")
    return tuple(_pint(p, key) for p in parts)


def _pstrs(raw, key: str) -> tuple:
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated list, got {raw!r}")
    return tuple(parts)


def _pvariant(raw, key: str) -> ModelVariant:
    return ModelVariant.parse(raw)


_PARSE_BY_TYPE = {int: _pint, float: _pfloat, tuple: _pints, ModelVariant: _pvariant}


def _fields_of(config_cls, only=None, **defaults) -> dict:
    """key -> (parser, default) for the fields of a config dataclass, the
    parser chosen by the type of the field's default; keyword arguments
    replace defaults."""
    return {f.name: (_PARSE_BY_TYPE[type(f.default)], defaults.get(f.name, f.default))
            for f in fields(config_cls) if only is None or f.name in only}


_REQUIRED = (_pstr, None)  # a path with no default: it must be given


# key -> (parser, default) per command
_SCHEMAS = {
    "synth": {**_fields_of(SynthConfig), "out": (_pstr, "out_synth")},
    "train": {
        **_fields_of(TrainConfig), "corpus": _REQUIRED, "split_seed": (_pint, 0),
        "out": (_pstr, "out_train"),
    },
    "eval": {
        "corpus": _REQUIRED, "checkpoint": _REQUIRED, "seed": (_pint, 0),
        "split_seed": (_pint, 0), "max_history": (_pint, 50), "out": (_pstr, "out_eval"),
    },
    "ablation": {
        # the variants list takes the place of TrainConfig's one variant
        **{k: v for k, v in _fields_of(TrainConfig).items() if k != "variant"},
        "corpus": _REQUIRED, "split_seed": (_pint, 0),
        "variants": (_pstrs, ("base", "two_layer_gru_att", "gru_augru", "dien")),
        "n_repeats": (_pint, 5), "out": (_pstr, "out_ablation"),
    },
    "gradcheck": {
        # toy scale: the finite differences perturb every parameter twice
        **_fields_of(TrainConfig, ("variant", "alpha", "embed_dim", "mlp_hidden", "seed"),
                     embed_dim=2, mlp_hidden=(8,)),
        "tolerance": (_pfloat, 1e-4), "epsilon": (_pfloat, 1e-5),
        "out": (_pstr, "out_gradcheck"),
    },
    "viz": {
        "corpus": _REQUIRED, "checkpoint": _REQUIRED, "steps": (_pint, 10),
        "out": (_pstr, "out_viz"),
    },
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
            out[key] = schema[key][0](raw, key)
    return out


def _resolve(command: str, ns: argparse.Namespace) -> dict:
    schema = _SCHEMAS[command]
    values = {key: default for key, (_, default) in schema.items() if default is not None}
    if ns.config:
        values.update(_load_file(ns.config, command, schema))
    for key, (parse, _) in schema.items():
        raw = getattr(ns, key, None)
        if raw is not None:
            values[key] = parse(raw, key)
    missing = sorted(k for k in schema if k not in values)
    if missing:
        raise ConfigError(f"{command}: missing required settings: {', '.join(missing)}")
    return values


def _fmt_value(value) -> str:
    if isinstance(value, ModelVariant):
        return value.value
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


def _config(config_cls, values: dict):
    """The config dataclass built from the resolved settings that name its
    fields; fields without a setting keep their defaults."""
    cfg = config_cls(**{f.name: values[f.name] for f in fields(config_cls)
                        if f.name in values})
    cfg.validate()
    return cfg


def cmd_synth(values: dict) -> int:
    corpus = synth_generate(_config(SynthConfig, values))
    out = _out_dir(values)
    _write_echo(out, "synth", values)
    save_corpus(corpus, out / "corpus.tsv")
    log.info("wrote %d instances (%d train / %d test) to %s",
             len(corpus.instances), len(corpus.train_idx), len(corpus.test_idx),
             out / "corpus.tsv")
    return 0


def cmd_train(values: dict) -> int:
    cfg = _config(TrainConfig, values)
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
    report = evaluate(model, corpus.test(), max_history=values["max_history"])
    out = _out_dir(values)
    _write_echo(out, "eval", values)
    write_metrics(out / "metrics.csv", [(model.variant, values["seed"], report.auc)])
    log.info("auc %.6f on %d positives / %d negatives", report.auc,
             report.n_pos, report.n_neg)
    return 0


def cmd_ablation(values: dict) -> int:
    cfg = _config(TrainConfig, values)
    variants = [ModelVariant.parse(v) for v in values["variants"]]
    corpus = parse_corpus(values["corpus"], split_seed=values["split_seed"])
    results = run_ablation(corpus, cfg, variants, n_repeats=values["n_repeats"])
    out = _out_dir(values)
    _write_echo(out, "ablation", values)
    metric_rows = []
    for variant, report in results:
        for k, value in enumerate(report.per_seed):
            metric_rows.append((variant, cfg.seed + k, value))
        log.info("%s: mean auc %.6f, std %.6f", variant.value, report.auc, report.std)
    write_metrics(out / "metrics.csv", metric_rows)
    write_summary(out / "summary.csv", results)
    return 0


def cmd_gradcheck(values: dict) -> int:
    report = grad_check(_config(TrainConfig, values), tolerance=values["tolerance"],
                        epsilon=values["epsilon"])
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
    # the probes read only the vocabularies and item categories, not the split
    corpus = parse_corpus(values["corpus"])
    bundle = viz_bundle(model, corpus, steps=values["steps"])
    out = _out_dir(values)
    _write_echo(out, "viz", values)
    bundle.write(out / "viz_trajectories.csv", out / "viz_attention.csv")
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
        "out": "output directory",
        "variants": "comma-separated variant list",
        "mlp_hidden": "comma-separated hidden widths",
    }
    for command, schema in _SCHEMAS.items():
        # no abbreviated flags: a removed setting must not resolve to a longer one
        sub = subs.add_parser(command, allow_abbrev=False)
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
    except MemoryError as exc:
        log.error("out of memory: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
