"""Central finite-difference gradient checking.

The checker perturbs one coordinate at a time and compares the analytic
gradient against ``(f(x+h) - f(x-h)) / 2h``. It only ever calls forward
code, so it stays independent of the hand-written backward passes it
verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray

# Relative error uses a denominator floor: coordinates where both gradients
# are below the floor are compared absolutely at that scale, which keeps
# finite-difference roundoff (~1e-10) from registering as huge relative
# error on near-zero gradients.
DENOM_FLOOR = 1e-4


def central_diff(f: Callable[[], float], arr: Array, step: float = 1e-5) -> Array:
    """Numerical gradient of scalar ``f()`` w.r.t. ``arr``, perturbed in place."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        h = step * max(1.0, abs(orig))
        flat[i] = orig + h
        f_plus = f()
        flat[i] = orig - h
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def rel_errors(analytic: Array, numeric: Array) -> Array:
    """Per-coordinate relative error with a small denominator floor."""
    denom = np.maximum(DENOM_FLOOR, np.maximum(np.abs(analytic), np.abs(numeric)))
    return np.abs(analytic - numeric) / denom


@dataclass
class GradCheckResult:
    n_coords: int
    max_rel: float
    frac_within: float  # fraction of coordinates with rel error <= tol

    def ok(self, worst: float = 1e-3, quantile: float = 0.99) -> bool:
        return self.frac_within >= quantile and self.max_rel <= worst


def compare_grads(analytic: Array, numeric: Array, tol: float = 1e-4) -> GradCheckResult:
    errs = rel_errors(np.asarray(analytic), np.asarray(numeric))
    return GradCheckResult(
        n_coords=errs.size,
        max_rel=float(errs.max()) if errs.size else 0.0,
        frac_within=float((errs <= tol).mean()) if errs.size else 1.0,
    )


def merge_results(results: list[GradCheckResult]) -> GradCheckResult:
    total = sum(r.n_coords for r in results)
    if total == 0:
        return GradCheckResult(0, 0.0, 1.0)
    within = sum(r.frac_within * r.n_coords for r in results)
    return GradCheckResult(
        n_coords=total,
        max_rel=max(r.max_rel for r in results),
        frac_within=within / total,
    )
