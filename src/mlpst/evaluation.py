"""Metrics, naive baselines, and evaluation reports in original data scale."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, MlpstError
from .griddata import NormStats, apply_norm, invert_norm, required_history
from .mixer import ModelParams, check_window, param_total
from .runconfig import TemporalConfig, TrainConfig
from .training import predict_batches, select_target, stats_for_output

Array = np.ndarray

CSV_HEADER = "model,dataset,mae,rmse,r2,params,train_s,infer_ms_per_batch"


class MetricUndefined(MlpstError):
    """The requested metric has no defined value for this input."""


def _check_series(pred: Array, target: Array) -> tuple[Array, Array]:
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    if pred.size != target.size:
        raise DataError(f"series lengths differ: {pred.size} vs {target.size}")
    if pred.size == 0:
        raise DataError("metrics need at least one value")
    return pred, target


def mae(pred: Array, target: Array) -> float:
    pred, target = _check_series(pred, target)
    return float(np.abs(pred - target).mean())


def rmse(pred: Array, target: Array) -> float:
    pred, target = _check_series(pred, target)
    return float(np.sqrt(((pred - target) ** 2).mean()))


def r2(pred: Array, target: Array) -> float:
    """Coefficient of determination, 1 - SSE/SST about the target mean."""
    pred, target = _check_series(pred, target)
    if np.all(target == target[0]):
        raise MetricUndefined("R^2 is undefined for a constant target series")
    sst = float(((target - target.mean()) ** 2).sum())
    sse = float(((pred - target) ** 2).sum())
    return 1.0 - sse / sst


# ---------------------------------------------------------------------------
# naive baselines


def baseline_persistence(history: Array) -> Array:
    """Predict the next map as the last observed map."""
    history = np.asarray(history)
    if history.shape[0] == 0:
        raise DataError("persistence baseline needs at least one observation")
    return history[-1]


def baseline_historical_average(history: Array, period: int) -> Array:
    """Mean of past maps in the same phase as the predicted slot."""
    history = np.asarray(history)
    n = history.shape[0]
    if period < 1 or period > n:
        raise DataError(f"historical average needs period in [1, {n}], got {period}")
    phase = n % period  # the predicted slot's phase
    picks = history[np.arange(phase, n, period)]
    if picks.shape[0] == 0:
        raise DataError("no past observations share the predicted slot's phase")
    return picks.mean(axis=0)


# ---------------------------------------------------------------------------
# reports


@dataclass
class EvalReport:
    model: str
    dataset: str
    mae: float
    rmse: float
    r2: float | None
    n_samples: int
    params: int
    train_s: float | None  # None: unknown, as for a loaded checkpoint
    infer_ms_per_batch: float
    # data channel -> (mae, rmse)
    per_channel: dict[int, tuple[float, float]] = field(default_factory=dict)

    def csv_row(self) -> str:
        r2_text = "nan" if self.r2 is None else repr(self.r2)
        train_text = "nan" if self.train_s is None else f"{self.train_s:.3f}"
        return (
            f"{self.model},{self.dataset},{self.mae!r},{self.rmse!r},{r2_text},"
            f"{self.params},{train_text},{self.infer_ms_per_batch:.3f}"
        )

    def table(self) -> str:
        rows = [
            ("model", self.model),
            ("dataset", self.dataset),
            ("samples", str(self.n_samples)),
            ("mae", f"{self.mae:.6f}"),
            ("rmse", f"{self.rmse:.6f}"),
            ("r2", "undefined" if self.r2 is None else f"{self.r2:.6f}"),
            ("parameters", str(self.params)),
            ("train_s", "unknown" if self.train_s is None else f"{self.train_s:.3f}"),
            ("infer_ms_per_batch", f"{self.infer_ms_per_batch:.3f}"),
        ]
        for ch, (m, r) in self.per_channel.items():
            rows.append((f"channel_{ch}", f"mae={m:.6f} rmse={r:.6f}"))
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _metrics_report(
    preds: Array,
    targets: Array,
    *,
    model: str,
    dataset: str,
    params: int,
    train_s: float | None,
    infer_ms: float,
    first_channel: int = 0,
) -> EvalReport:
    try:
        r2_value: float | None = r2(preds, targets)
    except MetricUndefined:
        r2_value = None
    per_channel = {
        first_channel + c: (mae(preds[..., c], targets[..., c]), rmse(preds[..., c], targets[..., c]))
        for c in range(targets.shape[-1])
    }
    return EvalReport(
        model=model,
        dataset=dataset,
        mae=mae(preds, targets),
        rmse=rmse(preds, targets),
        r2=r2_value,
        n_samples=targets.shape[0],
        params=params,
        train_s=train_s,
        infer_ms_per_batch=infer_ms,
        per_channel=per_channel,
    )


def evaluate_model(
    params: ModelParams,
    temporal: TemporalConfig,
    maps: Array,
    anchors: Array,
    stats: NormStats,
    batch_size: int = TrainConfig.batch_size,
    dataset_name: str = "dataset",
    train_seconds: float | None = None,
) -> EvalReport:
    """Evaluate a trained model on raw maps over the given anchors.

    Predictions are made in normalised space and inverted to the original
    scale before any metric is computed. Every anchor needs its full window
    and a target inside ``maps``; only the maps the windows read are
    normalised. ``temporal`` must be the window ``params`` were built for.
    ``train_seconds`` is the training time to report; ``None`` (a loaded
    checkpoint records none) is reported as unknown.
    """
    check_window(params, temporal)
    anchors = np.asarray(anchors)
    if anchors.size == 0:
        raise ConfigError("empty test split: nothing to evaluate")
    need = required_history(temporal)
    bad = (anchors < need) | (anchors >= len(maps))
    if bad.any():
        raise DataError(
            f"anchor {anchors[bad][0]} is outside [{need}, {len(maps) - 1}]: "
            f"a window needs {need} earlier maps and the target map"
        )
    first = int(anchors.min()) - need
    normed = apply_norm(maps[first : int(anchors.max())], stats)
    t0 = time.monotonic()
    preds_norm = predict_batches(params, normed, anchors - first, temporal, batch_size)
    elapsed = time.monotonic() - t0
    n_batches = -(-anchors.size // batch_size)
    preds = invert_norm(preds_norm, stats_for_output(stats, params.predict_channel))
    targets = select_target(maps[anchors], params.predict_channel)
    return _metrics_report(
        preds,
        targets,
        model="mlpst",
        dataset=dataset_name,
        params=param_total(params),
        train_s=train_seconds,
        infer_ms=elapsed / n_batches * 1000.0,
        first_channel=params.predict_channel or 0,
    )


def evaluate_baseline(
    kind: str,
    maps: Array,
    anchors: Array,
    period: int = 24,
    batch_size: int = TrainConfig.batch_size,
    dataset_name: str = "dataset",
) -> EvalReport:
    """Evaluate a naive baseline (original scale throughout)."""
    anchors = np.asarray(anchors)
    if anchors.size == 0:
        raise ConfigError("empty test split: nothing to evaluate")
    if kind == "persistence":
        predictor = lambda history: baseline_persistence(history)  # noqa: E731
    elif kind == "havg":
        predictor = lambda history: baseline_historical_average(history, period)  # noqa: E731
    else:
        raise ConfigError(f"unknown baseline {kind!r} (expected persistence or havg)")
    t0 = time.monotonic()
    preds = np.stack([predictor(maps[:a]) for a in anchors])
    elapsed = time.monotonic() - t0
    n_batches = -(-anchors.size // batch_size)
    targets = maps[anchors]
    return _metrics_report(
        preds,
        targets,
        model=kind,
        dataset=dataset_name,
        params=0,
        train_s=0.0,
        infer_ms=elapsed / n_batches * 1000.0,
    )
