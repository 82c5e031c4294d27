"""Command-line surface: synth | train | score | eval | oracle.

Every command but ``oracle`` without ``--out`` writes a JSON manifest
(resolved configuration, the sha256 of each input file, a ``--config`` file
included, seed, artifact paths, wall-clock timings) next to its primary
output; ``tsgad --manifest <file>``, given no command, replays the recorded
run. Exit codes: 0 success, 1 usage/configuration error (an output path that
cannot be written, a missing directory included), 2 data error (a missing
input file included), 3 numeric failure, 4 property-suite failure.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, fields

from . import __version__
from .dataio import (
    AnomalyInterval,
    SeriesDataset,
    fit_normalization,
    normalize_with,
    read_series,
    synth_generate,
    write_series,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataFormatError,
    DivergenceError,
    MetricUndefinedError,
)
from .graph import adjacency_export
from .oracles import run_all
from .train import (
    PAPER_SCALE,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    score,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_SUITE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage is 1 here
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


class _UnusableOutput(OSError):
    """An output path open() would refuse; never a FileNotFoundError, so a missing directory exits 1."""


def _check_outputs(outputs, inputs):
    """Refuse, before any work starts, an output path that open() would refuse
    or that names the same file as another output or an input.

    A collision raises ConfigError. Otherwise it raises the error that opening
    the path for writing would raise, as an ``_UnusableOutput``: it exits 1
    like a failed write, even for a missing directory (a missing input file
    exits 2), and no earlier output of the command has been written yet.
    """
    named = {os.path.realpath(p): f"input {p}" for p in filter(None, inputs)}
    for path in filter(None, outputs):
        key = os.path.realpath(path)
        if key in named:
            raise ConfigError(f"output {path} names the same file as {named[key]}")
        named[key] = f"output {path}"
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise _UnusableOutput(code, os.strerror(code), str(path))


def _parse_interval(text, kind):
    try:
        start, stop = text.split(":")
        return AnomalyInterval(kind, int(start), int(stop))
    except (ValueError, TypeError):
        raise ConfigError(
            f"bad interval {text!r}; expected START:STOP, e.g. --{'shift' if kind != 'spike' else 'spike'} 1200:1320"
        ) from None


def _add_train_config_flags(parser):
    """One flag per TrainConfig field but the seed, which each command declares
    itself; the flag, help and choices come from the field's metadata. The
    values are checked by TrainConfig, as config files and checkpoints skip argparse."""
    for f in fields(TrainConfig):
        if f.name != "seed":
            parser.add_argument(f.metadata.get("flag", "--" + f.name.replace("_", "-")), dest=f.name,
                                type=_FIELD_PARSERS[f.type][0], help=f.metadata.get("help"),
                                choices=f.metadata.get("choices"))


# TrainConfig field annotation -> (parser, what its values must be)
_FIELD_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "text"),
}


def _read_config_file(path):
    types = {f.name: f.type for f in fields(TrainConfig)}
    typed = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        parse, expected = _FIELD_PARSERS[types[key]]
        try:
            typed[key] = parse(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: {key} = {value!r} is not {expected}") from None
    return typed


def _read_manifest(path):
    with open(path, encoding="utf-8") as fh:
        try:
            recorded = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not a JSON manifest ({exc})") from None
    if not isinstance(recorded, dict):
        raise ConfigError(f"{path}: manifest must be a JSON object, got {type(recorded).__name__}")
    return recorded


def _resolve_config(args):
    """Precedence: flags > config file > paper-scale switch > defaults."""
    values = {}
    if getattr(args, "paper_scale", False):
        values.update(PAPER_SCALE)
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for f in fields(TrainConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    return TrainConfig.from_dict(values)


def _split_rows(ds, split, fraction):
    """The rows of ``split`` (train, test or all), cut where split_normalize cuts,
    and the index of the first of them in ``ds``."""
    cut = int(ds.length * fraction)
    lo, hi = {"train": (0, cut), "test": (cut, ds.length), "all": (0, ds.length)}[split]
    return SeriesDataset(list(ds.channel_names), ds.values[lo:hi], ds.labels[lo:hi]), lo


def _format_float(x):
    return repr(float(x))


def cmd_synth(args, out):
    spec = [_parse_interval(s, "interdependency_shift") for s in args.shift or []]
    spec += [_parse_interval(s, "spike") for s in args.spike or []]
    ds = synth_generate(
        n_channels=args.channels, length=args.length, anomaly_spec=spec,
        seed=args.seed, noise=args.noise,
    )
    write_series(ds, out)
    config = {"channels": args.channels, "length": args.length, "noise": args.noise,
              "anomalies": [[iv.kind, iv.start, iv.stop] for iv in spec]}
    return config, args.seed, {}, (
        f"wrote {out} ({ds.length} rows x {ds.n_channels} channels, "
        f"{int(ds.labels.sum())} anomalous steps)"), EXIT_OK


def cmd_train(args, checkpoint_path, curve_path):
    t0 = time.time()
    config = _resolve_config(args)
    # only the training cut is standardized: a value in the unused test split must not stop training
    part, _ = _split_rows(read_series(args.data, label_column=args.label_column), "train", config.split_fraction)
    if part.length < 2:
        raise ConfigError("training split would be shorter than 2 rows")
    train_ds = normalize_with(part, *fit_normalization(part, slice(None)))
    t_load = time.time() - t0
    result = train(train_ds, config)
    t_train = time.time() - t0 - t_load
    save_checkpoint(result.checkpoint, checkpoint_path)
    with open(curve_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,batch,loss\n")
        for epoch, batch, loss in result.loss_curve:
            fh.write(f"{epoch},{batch},{_format_float(loss)}\n")
    return asdict(config), config.seed, {"load": t_load, "train": t_train}, (
        f"trained {config.epochs} epochs on {train_ds.length} rows; "
        f"final epoch loss {result.epoch_means[-1]:.6g}; checkpoint {checkpoint_path}"), EXIT_OK


def cmd_score(args, scores_path, summary_path, graphs_path):
    """``score``, and ``eval``, which also requires both classes of window."""
    checkpoint = load_checkpoint(args.checkpoint)
    config = TrainConfig.from_dict(checkpoint["config"])
    part, offset = _split_rows(read_series(args.data, label_column=args.label_column),
                               args.split, config.split_fraction)
    report = score(part, checkpoint)
    if args.command == "eval" and report.auc is None:
        raise MetricUndefinedError(
            "eval needs both normal and anomalous windows in the data; "
            "use `tsgad score` for unlabeled data"
        )
    with open(scores_path, "w", encoding="utf-8") as fh:
        fh.write("window_start,label,d_ga,nll,score,predicted\n")
        for i in range(len(report.scores)):
            fh.write(
                f"{int(report.window_starts[i]) + offset},{int(report.labels[i])},"
                f"{_format_float(report.d_ga[i])},{_format_float(report.nll[i])},"
                f"{_format_float(report.scores[i])},{int(report.predicted[i])}\n"
            )
    _write_json(summary_path, {
        "auc": report.auc,
        "threshold": report.threshold,
        "counts": report.counts,
        "n_windows": int(len(report.scores)),
        "n_predicted_anomalous": int(report.predicted.sum()),
    })
    if graphs_path:
        adjacency_export(report.window_starts + offset, report.adjacency, graphs_path)
    auc_text = "n/a" if report.auc is None else f"{report.auc:.4f}"
    outputs = ", ".join(filter(None, (scores_path, summary_path, graphs_path)))
    return asdict(config), config.seed, {}, (
        f"{args.command}: {len(report.scores)} windows, auc {auc_text}, threshold {report.threshold:.6g}, "
        f"flagged {int(report.predicted.sum())}; outputs {outputs}"), EXIT_OK


def cmd_oracle(args, out):
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    results = run_all(seeds=args.seeds)
    all_passed = True
    for suite in results:
        status = "PASS" if suite["passed"] else "FAIL"
        all_passed &= suite["passed"]
        print(
            f"[{status}] {suite['name']}: {suite['checks']} checks, "
            f"max deviation {suite['max_deviation']:.3e}, {suite['seconds']:.1f}s"
        )
        for failure in suite["failures"]:
            print(f"         {failure}")
    if out:
        _write_json(out, results)
    # the suites draw their own seeds 0..n-1; --seeds is their count, not a seed
    return {"seeds": args.seeds}, None, {}, None, EXIT_OK if all_passed else EXIT_SUITE


# Each command's files, named once: (manifest, outputs, inputs) of its
# arguments, where an unset optional path is None (oracle without --out writes
# no manifest). _run checks them before the command and records them after it.
_FILES = {
    "synth": lambda a: (f"{a.out}.manifest.json", [a.out], []),
    "train": lambda a: (f"{a.out}.manifest.json", [a.out, a.loss_curve or f"{a.out}.loss.csv"],
                        [a.data, a.config]),
    "score": lambda a: (f"{a.out_prefix}.manifest.json",
                        [f"{a.out_prefix}.scores.csv", f"{a.out_prefix}.summary.json", a.export_graphs],
                        [a.data, a.checkpoint]),
    "oracle": lambda a: (a.out and f"{a.out}.manifest.json", [a.out], []),
}
_FILES["eval"] = _FILES["score"]


def _run(args, argv):
    """Check the command's files, run it with its outputs, then write its manifest
    and print its line. The command returns (config, seed, timings, line, exit code)."""
    t0 = time.time()
    manifest, outputs, inputs = _FILES[args.command](args)
    _check_outputs([*outputs, manifest], inputs)
    config, seed, timings, line, code = args.run(args, *outputs)
    if manifest:
        _write_json(manifest, {
            "tool": "tsgad", "tool_version": __version__, "command": args.command, "argv": argv,
            "config": config, "inputs": {str(p): _sha256(p) for p in filter(None, inputs)},
            "outputs": [str(p) for p in filter(None, outputs)], "seed": seed,
            "timings_seconds": {**timings, "total": time.time() - t0},
        })
    if line:
        print(f"{line}; manifest {manifest}")
    return code


def build_parser():
    parser = _Parser(prog="tsgad", description=__doc__)
    parser.add_argument("--manifest", help="replay a previously recorded run")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    p.add_argument("--channels", type=int, default=5)
    p.add_argument("--length", type=int, default=2000)
    p.add_argument("--shift", action="append", metavar="START:STOP",
                   help="interdependency_shift interval (repeatable)")
    p.add_argument("--spike", action="append", metavar="START:STOP",
                   help="spike interval (repeatable)")
    p.add_argument("--noise", type=float, default=0.08)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_synth)

    p = sub.add_parser("train", help="train a detector on the train split of a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--loss-curve", help="loss curve CSV (default: <out>.loss.csv)")
    p.add_argument("--label-column", default="label")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--paper-scale", action="store_true",
                   help="switch window/batch/epochs to the full-scale experiment values")
    p.add_argument("--seed", type=int, required=True)
    _add_train_config_flags(p)
    p.set_defaults(run=cmd_train)

    for name, help_text in (
        ("score", "score windows of a CSV with a checkpoint"),
        ("eval", "score and require a labeled dataset (AUC-ROC)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", required=True)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--out-prefix", required=True)
        p.add_argument("--label-column", default="label")
        p.add_argument("--split", choices=("test", "train", "all"), default="test")
        p.add_argument("--export-graphs", metavar="CSV",
                       help="also export the adjacency each window was scored with")
        p.set_defaults(run=cmd_score)

    p = sub.add_parser("oracle", help="run solver-vs-enumeration and gradient suites")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--out", help="write suite results as JSON")
    p.set_defaults(run=cmd_oracle)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.manifest:
            if args.command is not None:
                raise ConfigError(f"--manifest replays the recorded command; {args.command!r} given with it")
            recorded = _read_manifest(args.manifest)
            argv = recorded.get("argv")
            if not (isinstance(argv, list) and argv and all(isinstance(arg, str) for arg in argv)):
                raise ConfigError(
                    f"{args.manifest}: manifest has no recorded argv (a list of strings) to replay"
                )
            print(f"replaying {recorded.get('command')} from {args.manifest}")
            args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("no command given; see tsgad --help")
        return _run(args, argv)
    except SystemExit as exc:  # argparse: --help exits 0, a usage error 1 (see _Parser)
        return exc.code
    except ConfigError as exc:
        print(f"tsgad: configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, CheckpointError, MetricUndefinedError, FileNotFoundError) as exc:
        print(f"tsgad: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # a directory or unwritable path given for a file
        print(f"tsgad: cannot use {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except (DivergenceError, FloatingPointError) as exc:
        print(f"tsgad: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
