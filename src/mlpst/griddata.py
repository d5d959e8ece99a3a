"""Spatio-temporal data model: grid maps, patches, temporal slicing.

A traffic flow grid map is an ``(H, W, d)`` float64 array for one time
interval; a history is a time-ordered ``(T, H, W, d)`` stack. All
operations accept extra leading batch axes and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .runconfig import TemporalConfig

Array = np.ndarray


# ---------------------------------------------------------------------------
# patch partitioning


def n_patches(h: int, w: int, patch: int) -> int:
    _check_divides(h, w, patch)
    return (h // patch) * (w // patch)


def _check_divides(h: int, w: int, patch: int) -> None:
    if patch < 1 or h % patch != 0 or w % patch != 0:
        raise ConfigError(
            f"patch size {patch} must divide both grid dimensions (H={h}, W={w})"
        )


def patchify(x: Array, patch: int) -> Array:
    """Split ``(..., H, W, d)`` into flattened patch tokens ``(..., N_P, P*P*d)``.

    Token k is the k-th patch in row-major patch order, flattened row-major
    within the patch with the feature channels innermost.
    """
    x = np.asarray(x, dtype=np.float64)
    *lead, h, w, d = x.shape
    _check_divides(h, w, patch)
    gh, gw = h // patch, w // patch
    y = x.reshape(*lead, gh, patch, gw, patch, d)
    y = np.swapaxes(y, -4, -3)  # (..., gh, gw, P, P, d)
    return y.reshape(*lead, gh * gw, patch * patch * d)


# ---------------------------------------------------------------------------
# temporal dependency slicing


def branch_offsets(cfg: TemporalConfig) -> tuple[Array, Array, Array]:
    """Per-branch history offsets relative to the prediction anchor.

    The anchor is the number of available steps T, i.e. the index of the
    predicted map; offset -1 is the most recent observation. Strided mode
    selects steps T-k*l for k=len..1 (as in ST-ResNet: closeness with l=1
    ends at the latest map, and the period branch samples the predicted
    slot's phase one and two periods back), never the anchor step itself;
    block mode splits the last t+p+c steps into contiguous
    trend/period/closeness blocks.
    """
    if cfg.block_mode:
        w = cfg.window
        trend = np.arange(-w, -w + cfg.trend)
        period = np.arange(-w + cfg.trend, -w + cfg.trend + cfg.period)
        closeness = np.arange(-cfg.closeness, 0)
        return trend, period, closeness

    def strided(length: int, interval: int) -> Array:
        ks = np.arange(length, 0, -1)
        return -(ks * interval)

    return (
        strided(cfg.trend, cfg.trend_interval),
        strided(cfg.period, cfg.period_interval),
        strided(cfg.closeness, cfg.closeness_interval),
    )


def required_history(cfg: TemporalConfig) -> int:
    """Minimum number of past steps needed to form one input window: the
    furthest step back that any branch reads."""
    return -int(np.concatenate(branch_offsets(cfg)).min(initial=0))


def slice_dependencies(
    history: Array, cfg: TemporalConfig
) -> tuple[Array, Array, Array]:
    """Slice a history stack into (trend, period, closeness) sub-sequences.

    ``history`` is ``(T_avail, H, W, d)``; the anchor is T_avail, i.e. the
    returned sequences feed a prediction of the step right after the stack.
    """
    history = np.asarray(history, dtype=np.float64)
    n = history.shape[0]
    need = required_history(cfg)
    if n < need:
        earliest = n - need
        raise DataError(
            f"insufficient history: {n} steps available but the window reaches "
            f"back to index {earliest} (needs at least {need} steps)"
        )
    trend, period, closeness = branch_offsets(cfg)
    return history[n + trend], history[n + period], history[n + closeness]


def check_finite(maps: Array, source: str | None = None, first_step: int = 0) -> None:
    """Raise :class:`DataError` naming the first time step holding NaN or inf.

    ``maps`` is a ``(T, ...)`` stack whose first map is time step
    ``first_step``; ``source`` (a file name) prefixes the message when given.
    """
    bad = ~np.isfinite(maps)
    if bad.any():
        step = int(np.argmax(bad.reshape(len(maps), -1).any(axis=1)))
        value = maps[step][bad[step]][0]
        where = f"{source}: " if source else ""
        raise DataError(f"{where}non-finite value {value} at time step {first_step + step}")


# ---------------------------------------------------------------------------
# min-max normalisation


@dataclass
class NormStats:
    """Per-channel min/max of the training split."""

    lo: Array  # (d,)
    hi: Array  # (d,)


def fit_norm(maps: Array) -> NormStats:
    """Per-channel bounds over a ``(..., d)`` stack; fit on the training split only."""
    maps = np.asarray(maps, dtype=np.float64)
    axes = tuple(range(maps.ndim - 1))
    return NormStats(lo=maps.min(axis=axes), hi=maps.max(axis=axes))


def apply_norm(maps: Array, stats: NormStats) -> Array:
    """Min-max scale to [0, 1]; a constant channel maps to 0."""
    span = stats.hi - stats.lo
    scaled = span > 0  # False for a zero, negative or NaN span
    out = np.subtract(maps, stats.lo)
    out /= np.where(scaled, span, 1.0)
    out[..., ~scaled] = 0.0
    return out


def invert_norm(maps: Array, stats: NormStats) -> Array:
    """Undo :func:`apply_norm`; restores a constant channel exactly."""
    return maps * (stats.hi - stats.lo) + stats.lo
