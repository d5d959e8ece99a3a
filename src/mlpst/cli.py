"""The ``mlpst`` command: ingest, synth, train, predict, evaluate, inspect.

Exit codes are a stable contract: 0 success, 2 data error, 3 configuration
error, 1 internal error. The env var MLPST_THREADS caps internal (BLAS)
parallelism; 0 or unset leaves the platform default. When set, it overrides
OMP_NUM_THREADS and the other BLAS thread variables, and it takes effect only
if this module is imported before numpy. A value that is not a non-negative
integer sets nothing, and :func:`main` exits 3 naming it.
"""

from __future__ import annotations

import os

_threads = os.environ.get("MLPST_THREADS", "0").strip()
_threads_ok = _threads == "" or (_threads.isascii() and _threads.isdigit())
if _threads_ok and int(_threads or "0") > 0:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ[_var] = _threads

import argparse
import json
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import evaluation, ingestion, mixer, training
from .checkpoint import load_checkpoint
from .errors import ConfigError, DataError
from .fileio import atomic_open
from .griddata import apply_norm, invert_norm, required_history
from .runconfig import RunConfig, TemporalConfig, parse_config_file, read_config_text
from .training import stats_for_output


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are configuration errors
        raise ConfigError(message)


def _load_gridspec(path) -> ingestion.GridSpec:
    try:
        data = json.loads(read_config_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: bad spec JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: spec JSON must be an object, got {json.dumps(data)[:40]}")
    fields = {
        "lat_min": float, "lat_max": float, "lon_min": float, "lon_max": float,
        "h": int, "w": int, "interval_seconds": int,
        "t_start": ingestion.parse_time, "t_end": ingestion.parse_time,
    }
    kwargs = {}
    for name, convert in fields.items():
        if name not in data:
            raise ConfigError(f"spec JSON missing field {name!r}")
        try:
            kwargs[name] = convert(str(data[name]))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"spec JSON field {name!r} is invalid: {exc}") from exc
    spec = ingestion.GridSpec(**kwargs)
    spec.validate()
    return spec


def _load_config(path) -> RunConfig:
    cfg = parse_config_file(path) if path else RunConfig()
    cfg.validate()
    return cfg


def _dataset_name(path) -> str:
    return Path(path).stem


def cmd_ingest(args) -> int:
    spec = _load_gridspec(args.spec)
    dataset, summary = ingestion.ingest_csv(args.trips, spec)
    ingestion.write_dataset(args.out, dataset)
    for line in summary.lines():
        print(line, file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    dataset = ingestion.synth(
        args.kind, args.height, args.width, args.steps,
        d=args.channels, interval_seconds=args.interval,
        seed=args.seed, noise=args.noise, period=args.period,
    )
    ingestion.write_dataset(args.out, dataset)
    return 0


def cmd_train(args) -> int:
    dataset = ingestion.read_dataset(args.data)
    cfg = _load_config(args.config)
    cfg = cfg.resolve_grid(dataset.h, dataset.w, dataset.d)

    # the log replaces the old file only when the run succeeds; every line
    # is printed as it comes, so a failed run's lines are not lost
    with atomic_open(args.log) if args.log else nullcontext() as log_fh:

        def log(line: str) -> None:
            print(line)
            if log_fh:
                log_fh.write(f"{line}\n".encode())

        result = training.train(
            dataset.values,
            cfg.model_config(),
            cfg.train_config(),
            cfg.loss_config(),
            checkpoint_path=args.out,
            config_text=cfg.to_text(),
            log=log,
        )
    print(f"best_epoch,{result.best_epoch}")
    print(f"best_val_mae,{result.best_val_mae!r}")
    return 0


def _split_anchors(cfg: RunConfig, n_steps: int, which: str):
    parts = training.split_anchors(n_steps, cfg.temporal_config(), cfg.split, cfg.min_history)
    return getattr(parts, which)


def cmd_evaluate(args) -> int:
    if args.checkpoint and args.config:
        raise ConfigError("--config applies only to --baseline; a --checkpoint carries its own")
    if args.period is not None and args.baseline != "havg":
        raise ConfigError("--period applies only to --baseline havg")
    period = 24 if args.period is None else args.period
    if args.baseline == "havg" and period < 1:
        raise ConfigError(f"--period must be >= 1, got {period}")
    dataset = ingestion.read_dataset(args.data)
    if args.baseline:
        if args.config:
            cfg = _load_config(args.config)
            anchors = _split_anchors(cfg, dataset.n_steps, args.split)
        else:
            # without a config, a baseline only needs its own warm-up
            cfg = RunConfig()
            warm = period if args.baseline == "havg" else 1
            minimal = TemporalConfig(trend=0, period=0, closeness=1)
            try:
                parts = training.split_anchors(dataset.n_steps, minimal, cfg.split, warm)
            except ConfigError as exc:
                if args.baseline != "havg":
                    raise
                raise DataError(f"--period {period} is too long for the series: {exc}") from exc
            anchors = getattr(parts, args.split)
        if args.baseline == "havg" and period > anchors.min():
            raise DataError(
                f"--period {period} is longer than the {anchors.min()} maps "
                f"before the first {args.split} anchor"
            )
        report = evaluation.evaluate_baseline(
            args.baseline, dataset.values, anchors,
            period=period, batch_size=cfg.batch_size,
            dataset_name=_dataset_name(args.data),
        )
    else:
        ckpt = load_checkpoint(args.checkpoint)
        anchors = _split_anchors(ckpt.config, dataset.n_steps, args.split)
        report = evaluation.evaluate_model(
            ckpt.params, ckpt.temporal, dataset.values, anchors, ckpt.stats,
            batch_size=ckpt.config.batch_size, dataset_name=_dataset_name(args.data),
        )
    print(evaluation.CSV_HEADER)
    print(report.csv_row())
    print(report.table())
    if args.report:
        with atomic_open(args.report) as fh:
            fh.write(f"{evaluation.CSV_HEADER}\n".encode())
            fh.write(f"{report.csv_row()}\n".encode())
    return 0


def cmd_predict(args) -> int:
    header = ingestion.read_header(args.data)
    anchor = args.at if args.at is not None else header.n_steps
    if anchor < 1 or anchor > header.n_steps:
        raise ConfigError(f"--at must be in [1, {header.n_steps}], got {anchor}")
    ckpt = load_checkpoint(args.checkpoint)
    # the window needs only the last required_history maps, so only they are
    # read, checked and normalised
    start = max(0, anchor - required_history(ckpt.temporal))
    history = apply_norm(ingestion.read_maps(args.data, header, start, anchor), ckpt.stats)
    pred_norm, _ = mixer.model_forward(history, ckpt.params, keep_cache=False)
    pred = invert_norm(
        pred_norm, stats_for_output(ckpt.stats, ckpt.params.predict_channel)
    )
    out = ingestion.GridDataset(
        h=header.h, w=header.w, d=pred.shape[-1],
        interval_seconds=header.interval_seconds, box=header.box,
        values=pred[np.newaxis],
    )
    ingestion.write_dataset(args.out, out)
    return 0


def cmd_inspect(args) -> int:
    if args.checkpoint:
        params = load_checkpoint(args.checkpoint).params
    else:
        cfg = _load_config(args.config)
        h, w, d = cfg.h or 10, cfg.w or 20, cfg.d or 2
        params = mixer.build_params(cfg.model_config(), h, w, d, seed=cfg.seed)
    counts = mixer.param_count(params)
    for group, count in counts.items():
        print(f"{group},{count}")
    print(f"total,{sum(counts.values())}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="mlpst", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="aggregate a trips CSV into an STGRID1 dataset")
    p.add_argument("--trips", required=True, help="trips CSV file")
    p.add_argument("--spec", required=True, help="grid spec JSON file")
    p.add_argument("--out", required=True, help="output STGRID1 path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic STGRID1 dataset")
    p.add_argument("--kind", required=True, choices=ingestion.SYNTH_KINDS)
    p.add_argument("--out", required=True)
    p.add_argument("--height", type=int, default=10)
    p.add_argument("--width", type=int, default=10)
    p.add_argument("--steps", type=int, default=600)
    p.add_argument("--channels", type=int, default=2)
    p.add_argument("--interval", type=int, default=3600)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--period", type=int, default=24)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on an STGRID1 dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="key=value config file (defaults apply if omitted)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", help="also write the epoch log to this file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint or baseline on the test split")
    p.add_argument("--data", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint")
    source.add_argument("--baseline", choices=("persistence", "havg"))
    p.add_argument("--config", help="config for split/window when using --baseline")
    p.add_argument("--period", type=int, help="phase length for --baseline havg (default 24)")
    p.add_argument("--split", choices=("train", "val", "test"), default="test",
                   help="which chronological split to evaluate on")
    p.add_argument("--report", help="write the CSV report to this file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="write a single-step prediction as STGRID1")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--at", type=int, help="anchor step (history = first AT maps); default all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("inspect", help="print per-group parameter counts")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint")
    source.add_argument("--config")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        if not _threads_ok:
            raise ConfigError(f"MLPST_THREADS must be a non-negative integer, got {_threads!r}")
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - anything else is an internal error
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
