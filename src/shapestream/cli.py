"""Command-line front end: dataset generation, training, evaluation, bench.

Each ``train``, ``eval`` and ``bench`` setting is one dataclass field
(``ModelConfig`` and ``train.TrainSettings``, ``metrics.EvalSettings``,
``bench.BenchSettings``): the field gives its flag, the default ``--help``
shows and its check. One merge builds a command's settings from the field
defaults, then ``$MVP_SEED``, then ``--config`` (``train`` only), then the
flags given, and checks them before ``--out`` is created.

Every command is reproducible: outputs are fully determined by the command
line, the config and the seed, and each output directory carries a
machine-readable provenance record. Exit codes: 0 success, 2 usage error,
3 data/config mismatch, an unreadable input path or a malformed
manifest/.vxg/checkpoint file, 4 numeric failure (aborted training).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bench import BenchSettings, bench_attention, format_table, write_results
from .checkpoint import CheckpointError, load_model
from .checks import check_fields
from .metrics import EXPORT_KINDS, EvalSettings, evaluate_split
from .model import ModelConfig
from .scenes import DEFAULT_VIEWS, PROTOCOLS, SPLITS, DatasetError, build_manifest, \
    read_manifest, read_sequence_grids, write_dataset
from .train import TrainingDiverged, TrainSettings, train
from .voxel import VxgError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_NUMERIC = 4

# each command's setting fields, one flag each
SETTING_FIELDS = {"train": fields(ModelConfig) + fields(TrainSettings),
                  "eval": fields(EvalSettings), "bench": fields(BenchSettings)}
# the flags not named as their field with '-' for '_'
SETTING_FLAGS = {"resolution": "--res", "feature_count": "--features",
                 "performer_layers": "--layers", "attention_heads": "--heads",
                 "conv_channels": "--channels", "learning_rate": "--lr"}
SETTING_HELP = {"resolution": "default: the dataset's resolution",
                "seed": "random seed (default $MVP_SEED, else {})",
                "threshold": "f-score threshold as a fraction of the grid diagonal (default {})"}


class UsageError(Exception):
    pass


class MismatchError(Exception):
    pass


def _default_seed() -> int:
    raw = os.environ.get("MVP_SEED", "0")
    if not raw.isdecimal():
        raise UsageError(f"MVP_SEED must be an integer >= 0, got {raw!r}")
    return int(raw)


def _int_list(text: str) -> tuple:
    """A comma list of integers, as ``--channels`` and ``--lengths`` take it."""
    return tuple(int(c) for c in text.split(","))


def _prepare_out(path: str, force: bool) -> Path:
    out = Path(path)
    if out.exists() and not out.is_dir():
        raise UsageError(f"output path {out} exists and is not a directory")
    if out.exists() and any(out.iterdir()) and not force:
        raise UsageError(f"output directory {out} is not empty; pass --force to reuse it")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_provenance(out: Path, argv: list, seed: int, config: dict) -> None:
    canonical = json.dumps(config, sort_keys=True)
    record = {
        "command": argv,
        "seed": seed,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "package_version": __version__,
        "numpy_version": np.__version__,
    }
    (out / "provenance.json").write_text(json.dumps(record, indent=2, sort_keys=True))


def _merge_settings(args, **defaults) -> dict:
    """The command's settings by field name from one merge: the field
    defaults and ``defaults``, then $MVP_SEED, then --config (train only),
    then the flags given."""
    settings = {f.name: f.default for f in SETTING_FIELDS[args.command]}
    settings.update(defaults, seed=_default_seed())
    if getattr(args, "config", None):
        try:
            loaded = json.loads(Path(args.config).read_text())
        except ValueError as err:  # not UTF-8 text, or not JSON
            raise UsageError(f"--config {args.config} is not a JSON file: {err}") from err
        if not isinstance(loaded, dict):
            raise UsageError(f"--config {args.config} must hold a JSON object, "
                             f"got {type(loaded).__name__}")
        settings.update(loaded)
    settings.update((f.name, getattr(args, f.name)) for f in SETTING_FIELDS[args.command]
                    if getattr(args, f.name) is not None)
    return settings


def _load_split(data_dir, manifest, split: str):
    out = []
    for spec in manifest.split_sequences(split):
        frames, targets = read_sequence_grids(data_dir, manifest, spec)
        out.append((spec.seq_id, frames, targets))
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args, argv: list) -> int:
    seed = _default_seed() if args.seed is None else args.seed
    manifest = build_manifest(args.protocol, args.objects, args.res, args.views, seed)
    out = _prepare_out(args.out, args.force)
    write_dataset(manifest, out)
    _write_provenance(out, argv, seed, {
        "protocol": args.protocol, "objects": args.objects, "res": args.res,
        "views": args.views, "seed": seed,
    })
    splits = {s: sum(1 for q in manifest.sequences if q.split == s)
              for s in SPLITS}
    print(f"protocol {manifest.protocol}: {len(manifest.objects)} objects, "
          f"{len(manifest.sequences)} sequences "
          f"(train/val/test = {splits['train']}/{splits['val']}/{splits['test']}), "
          f"{len(manifest.sequences) * manifest.views} frames at r={manifest.resolution}")
    print(f"wrote dataset to {out}")
    return EXIT_OK


def _assemble_model_config(args, manifest) -> tuple[ModelConfig, TrainSettings]:
    """Checked model config and training settings from one merge, in which
    the dataset's resolution is the default."""
    settings = _merge_settings(args, resolution=manifest.resolution)
    training = TrainSettings(**{f.name: settings.pop(f.name) for f in fields(TrainSettings)})
    check_fields(training, "training", ValueError)
    config = ModelConfig.from_dict(settings)
    if config.resolution != manifest.resolution:
        raise MismatchError(
            f"config resolution {config.resolution} does not match dataset "
            f"resolution {manifest.resolution}")
    return config, training


def cmd_train(args, argv: list) -> int:
    manifest = read_manifest(args.data)
    config, training = _assemble_model_config(args, manifest)
    train_data = [(f, t) for _, f, t in _load_split(args.data, manifest, "train")]
    val_data = [(f, t) for _, f, t in _load_split(args.data, manifest, "val")]
    if not train_data:
        raise MismatchError(f"dataset {args.data} has no train split")
    out = _prepare_out(args.out, args.force)
    if config.variant == "single_view":
        print("note: single_view keeps no sequence state; views are completed "
              "independently")
    result = train(config, train_data, val_data, checkpoint_path=out / "checkpoint.mvpc",
                   metrics_path=out / "metrics.csv", **asdict(training))
    _write_provenance(out, argv, config.seed, {**config.to_dict(), **asdict(training)})
    print(f"trained {config.variant} ({result.model.parameter_count} parameters) "
          f"for {result.steps_run} steps")
    if np.isfinite(result.best_val_jaccard):
        print(f"best validation jaccard {result.best_val_jaccard:.4f}")
    print(f"final train jaccard {result.final_train_jaccard:.4f}")
    print(f"checkpoint: {out / 'checkpoint.mvpc'}")
    return EXIT_OK


def cmd_eval(args, argv: list) -> int:
    export = tuple(args.export.split(",")) if args.export else ()
    for name in export:
        if name not in EXPORT_KINDS:
            raise UsageError(f"unknown --export entry {name!r}; expected {','.join(EXPORT_KINDS)}")
    settings = check_fields(EvalSettings(**_merge_settings(args)), "eval", UsageError)
    manifest = read_manifest(args.data)
    if args.checkpoint == "oracle":
        model = None
        config_dict = {"oracle": True}
    else:
        try:
            model = load_model(args.checkpoint)
        except CheckpointError as err:
            raise MismatchError(str(err)) from err
        if model.config.resolution != manifest.resolution:
            raise MismatchError(
                f"checkpoint resolution {model.config.resolution} does not match "
                f"dataset resolution {manifest.resolution}")
        config_dict = model.config.to_dict()
    sequences = _load_split(args.data, manifest, args.split)
    if not sequences:
        raise MismatchError(f"dataset {args.data} has no {args.split!r} split")
    out = _prepare_out(args.out, args.force)
    report = evaluate_split(model, sequences, manifest.protocol, args.split,
                            extent=manifest.extent, export_dir=out if export else None,
                            export=export, **asdict(settings))
    report.to_csv(out / "frames.csv")
    report.write_summary(out / "summary.json")
    _write_provenance(out, argv, settings.seed, {"model": config_dict, **asdict(settings),
                                                 "split": args.split, "export": export})
    print(f"{manifest.protocol} {args.split}: mean jaccard {report.mean_jaccard:.4f}, "
          f"mean f-score {report.mean_fscore:.4f} over {len(report.rows)} frames")
    print(f"report: {out / 'summary.json'}")
    return EXIT_OK


def cmd_bench(args, argv: list) -> int:
    settings = check_fields(BenchSettings(**_merge_settings(args)), "bench", UsageError)
    out = _prepare_out(args.out, args.force) if args.out else None
    results = bench_attention(**asdict(settings))
    print(format_table(results))
    if out:
        write_results(results, out / "bench.json")
        _write_provenance(out, argv, settings.seed, asdict(settings))
        print(f"wrote {out / 'bench.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process, so ``main`` reads ``$MVP_SEED`` per call."""
    parser = argparse.ArgumentParser(
        prog="shapestream",
        description="streaming multi-view shape completion at toy voxel scale")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a protocol dataset")
    gen.add_argument("--protocol", required=True, choices=PROTOCOLS)
    gen.add_argument("--objects", type=int, default=10,
                     help="objects to generate (default %(default)s)")
    gen.add_argument("--res", type=int, default=16,
                     help="voxel grid resolution (default %(default)s)")
    gen.add_argument("--views", type=int, default=DEFAULT_VIEWS,
                     help="views per sequence (default %(default)s)")
    gen.add_argument("--seed", type=int, default=None, help=SETTING_HELP["seed"].format(0))
    gen.add_argument("--out", required=True)
    gen.add_argument("--force", action="store_true")
    gen.set_defaults(func=cmd_gen_data)

    tr = sub.add_parser("train", help="train a model variant on a dataset")
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--config", default=None, help="JSON config file")
    tr.add_argument("--force", action="store_true")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    ev.add_argument("--checkpoint", required=True,
                    help="checkpoint path, or 'oracle' for the identity test hook")
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", choices=SPLITS, default="test")
    ev.add_argument("--out", required=True)
    ev.add_argument("--export", default="",
                    help=f"comma-separated exports: {','.join(EXPORT_KINDS)}")
    ev.add_argument("--force", action="store_true")
    ev.set_defaults(func=cmd_eval)

    be = sub.add_parser("bench", help="attention-block throughput microbenchmark")
    be.add_argument("--out", default=None)
    be.add_argument("--force", action="store_true")
    be.set_defaults(func=cmd_bench)

    kinds = {"int": int, "float": float, "str": str, "tuple": _int_list}
    for command, setting_fields in SETTING_FIELDS.items():
        for f in setting_fields:
            default = ",".join(map(str, f.default)) if f.type == "tuple" else f.default
            sub.choices[command].add_argument(
                SETTING_FLAGS.get(f.name, "--" + f.name.replace("_", "-")), dest=f.name,
                type=kinds[f.type], choices=f.metadata.get("choices"), default=None,
                help=SETTING_HELP.get(f.name, "default {}").format(default))
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, argv)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (MismatchError, OSError, VxgError, DatasetError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDiverged as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
