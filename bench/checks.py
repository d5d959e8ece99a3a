"""Correctness checks the workloads apply to the program's outputs.

Each check returns a list of failure messages; an empty list means the
output passed. ``bench/test_checks.py`` shows that each accepts the
program's output and rejects a corrupted copy.
"""

from __future__ import annotations

import math

import numpy as np

PREDICTION_RTOL = 1e-10
DIRECTIONAL_RTOL = 1e-6


def check_predictions(name: str, got: np.ndarray, want: np.ndarray, rtol: float = PREDICTION_RTOL) -> list[str]:
    """Every entry within ``rtol`` of the reference, relative to ``max(|want|, 1)``.

    Predictions are flow counts around 10; the floor of 1 keeps entries
    near zero from demanding more than absolute roundoff.
    """
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != reference {want.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{name}: non-finite prediction"]
    err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
    worst = float(err.max())
    if not worst <= rtol:
        return [f"{name}: worst relative error {worst:.3e} > {rtol:.0e}"]
    return []


def check_directional_derivative(name: str, fd: float, inner: float, rtol: float = DIRECTIONAL_RTOL) -> list[str]:
    """A central difference of the loss against ``<gradient, direction>``."""
    if not (math.isfinite(fd) and math.isfinite(inner)):
        return [f"{name}: non-finite derivative (fd {fd}, analytic {inner})"]
    rel = abs(fd - inner) / max(abs(inner), 1e-300)
    if not rel <= rtol:
        return [f"{name}: central difference {fd!r} vs gradient {inner!r} (relative {rel:.3e} > {rtol:.0e})"]
    return []


def check_grid(name: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    """Exact equality of an aggregated grid with the counts the benchmark built."""
    got = np.asarray(got)
    if got.shape != want.shape:
        return [f"{name}: grid shape {got.shape} != {want.shape}"]
    diff = np.argwhere(got != want)
    if diff.size:
        t, r, c, ch = diff[0]
        return [
            f"{name}: {len(diff)} cells differ, first at (t={t}, row={r}, col={c}, ch={ch}): "
            f"{float(got[t, r, c, ch])} != {float(want[t, r, c, ch])}"
        ]
    return []


def check_tallies(name: str, got: dict, want: dict) -> list[str]:
    return [f"{name}: {key} = {got[key]} != {want[key]}" for key in want if got[key] != want[key]]


def check_bytes(name: str, got: bytes, want: bytes) -> list[str]:
    """Byte-for-byte equality, naming the first differing offset."""
    if got == want:
        return []
    if len(got) != len(want):
        return [f"{name}: {len(got)} bytes != {len(want)}"]
    first = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    return [f"{name}: bytes differ from offset {first}"]


def check_finite_log(name: str, history, epochs: int) -> list[str]:
    """Every logged loss and validation MAE finite, and ``epochs`` epochs ran."""
    problems = []
    if len(history) != epochs:
        problems.append(f"{name}: {len(history)} epochs ran, {epochs} requested")
    for epoch, train_loss, val_mae in history:
        if not (math.isfinite(train_loss) and math.isfinite(val_mae)):
            problems.append(f"{name}: epoch {epoch} logged loss {train_loss} val_mae {val_mae}")
    return problems
