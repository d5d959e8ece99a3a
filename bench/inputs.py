"""Seeded inputs for the benchmark workloads, made without the program.

Every generator takes the workload seed and returns the same bytes for the
same seed. The STGRID1 encoder here is written from the format description
in the README, so the benchmark can compare the program's files with it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

STGRID_MAGIC = b"STGRID1"
STGRID_HEADER = struct.Struct("<IIIIQ4d")
UNIT_BOX = (0.0, 1.0, 0.0, 1.0)


def encode_stgrid(values: np.ndarray, interval_seconds: int, box) -> bytes:
    """STGRID1 bytes for a ``(T, H, W, d)`` float64 stack."""
    t, h, w, d = values.shape
    header = STGRID_HEADER.pack(h, w, d, t, interval_seconds, *box)
    return STGRID_MAGIC + header + np.ascontiguousarray(values, dtype="<f8").tobytes()


def periodic_series(seed: int, steps: int, h: int, w: int, d: int = 2) -> np.ndarray:
    """Hourly flow maps: a daily harmonic profile per cell, a weekly swing, noise.

    Values are nonnegative counts around 10; the noise keeps every map
    distinct, so a frame is identified by its time index alone.
    """
    rng = np.random.default_rng([seed, 11])
    t = np.arange(steps, dtype=np.float64).reshape(steps, 1, 1, 1)
    values = 10.0 + 2.0 * rng.standard_normal((h, w, d))
    for k, strength in ((1, 5.0), (2, 2.5), (3, 1.5)):
        amp = strength * (0.5 + rng.random((h, w, d)))
        phase = 2.0 * np.pi * rng.random((h, w, d))
        values = values + amp * np.sin(2.0 * np.pi * k * t / 24.0 + phase)
    values = values + 1.5 * np.sin(2.0 * np.pi * t / 168.0)
    values = values + 0.5 * rng.standard_normal((steps, h, w, d))
    return np.maximum(values, 0.0)


# ---------------------------------------------------------------------------
# trips


@dataclass
class TripsSpec:
    """The grid the trips are aggregated onto (mirrors the README's spec JSON)."""

    lat_min: float = 40.0
    lat_max: float = 40.32
    lon_min: float = -74.0
    lon_max: float = -73.68
    h: int = 32
    w: int = 32
    interval_seconds: int = 3600
    t_start: int = 1_700_000_000
    n_intervals: int = 168

    @property
    def t_end(self) -> int:
        return self.t_start + self.n_intervals * self.interval_seconds


@dataclass
class TripsExpected:
    """What a correct ingest of the generated CSV must report."""

    rows: int
    unparseable: int
    out_of_range: int
    outflow_counted: int
    inflow_counted: int
    grid: np.ndarray  # (T, H, W, 2): channel 0 inflow, channel 1 outflow


TRIP_HEADER = "pickup_datetime,dropoff_datetime,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon"
_BAD_ROWS = (
    "{p},not-a-time,{a},{b},{c},{d}",      # unparseable dropoff time
    "{p},{q},north,{b},{c},{d}",           # non-numeric latitude
    "{p},{q},{a},nan,{c},{d}",             # non-finite coordinate
    "{q},{p},{a},{b},{c},{d}",             # dropoff before pickup
)


def _iso(seconds: np.ndarray, style: int) -> list[str]:
    text = np.datetime_as_string(seconds.astype("datetime64[s]"), unit="s")
    suffix = ("Z", "+00:00", "")[style]
    return [s + suffix for s in text]


def trips_csv(seed: int, rows: int, spec: TripsSpec) -> tuple[str, TripsExpected]:
    """A trips CSV of ``rows`` rows and the exact result of ingesting it.

    Shares are fixed, positions are seeded: 2% unparseable rows (four
    kinds), 2% rows whose pickup and dropoff both fall outside the box or
    the time range, 3% with only the pickup inside and 3% with only the
    dropoff inside; the rest count at both ends. Coordinates sit at least
    10% of a cell away from every cell edge and times at least a minute
    away from interval edges, so binning is unambiguous. A quarter of the
    rows carry epoch seconds, the rest ISO-8601 with ``Z``, ``+00:00`` or
    no offset (UTC), a quarter each.
    """
    rng = np.random.default_rng([seed, 23])
    n_bad = rows // 50
    n_out = rows // 50
    n_pick_only = 3 * rows // 100
    n_drop_only = 3 * rows // 100
    kind = np.zeros(rows, dtype=np.int64)  # 0 both in, 1 pickup only, 2 dropoff only, 3 out, 4 bad
    start = 0
    for k, n in ((4, n_bad), (3, n_out), (1, n_pick_only), (2, n_drop_only)):
        kind[start : start + n] = k
        start += n
    kind = rng.permutation(kind)

    cell_h = (spec.lat_max - spec.lat_min) / spec.h
    cell_w = (spec.lon_max - spec.lon_min) / spec.w
    p_t = rng.integers(0, spec.n_intervals - 1, rows)
    d_t = p_t + rng.integers(0, 2, rows)
    p_r, p_c = rng.integers(0, spec.h, rows), rng.integers(0, spec.w, rows)
    d_r, d_c = rng.integers(0, spec.h, rows), rng.integers(0, spec.w, rows)
    p_sec = spec.t_start + p_t * spec.interval_seconds + rng.integers(60, 1800, rows)
    d_sec = spec.t_start + d_t * spec.interval_seconds + rng.integers(1800, spec.interval_seconds - 60, rows)

    def coords(r, c):
        lat = spec.lat_min + (r + rng.uniform(0.1, 0.9, rows)) * cell_h
        lon = spec.lon_min + (c + rng.uniform(0.1, 0.9, rows)) * cell_w
        return lat, lon

    p_lat, p_lon = coords(p_r, p_c)
    d_lat, d_lon = coords(d_r, d_c)
    # an end is moved out of range either in space (north of the box) or in
    # time (before t_start), alternately
    far = rng.integers(0, 2, rows).astype(bool)
    drop_out = (kind == 1) | (kind == 3)
    pick_out = (kind == 2) | (kind == 3)
    d_lat = np.where(drop_out & far, spec.lat_max + 0.5, d_lat)
    p_lat = np.where(pick_out & far, spec.lat_max + 0.5, p_lat)
    shift = spec.n_intervals * spec.interval_seconds * 3
    p_sec = np.where(pick_out & ~far, p_sec - shift, p_sec)
    d_sec = np.where(drop_out & ~far & ~pick_out, d_sec + shift, d_sec)
    d_sec = np.where(drop_out & ~far & pick_out, d_sec - shift, d_sec)

    style = rng.integers(0, 4, rows)  # 0 epoch, 1-3 ISO variants
    p_iso = {s: _iso(p_sec, s - 1) for s in (1, 2, 3)}
    d_iso = {s: _iso(d_sec, s - 1) for s in (1, 2, 3)}
    bad_kind = rng.integers(0, len(_BAD_ROWS), rows)

    columns = [x.tolist() for x in (style, p_sec, d_sec, p_lat, p_lon, d_lat, d_lon, kind, bad_kind)]
    lines = [TRIP_HEADER]
    for i, (s, ps, ds, a, b, c, d, k, bk) in enumerate(zip(*columns)):
        fields = dict(
            p=str(ps) if s == 0 else p_iso[s][i],
            q=str(ds) if s == 0 else d_iso[s][i],
            a=repr(a), b=repr(b), c=repr(c), d=repr(d),
        )
        template = _BAD_ROWS[bk] if k == 4 else "{p},{q},{a},{b},{c},{d}"
        lines.append(template.format(**fields))
    text = "\n".join(lines) + "\n"

    grid = np.zeros((spec.n_intervals, spec.h, spec.w, 2))
    pick_in = (kind == 0) | (kind == 1)
    drop_in = (kind == 0) | (kind == 2)
    np.add.at(grid, (p_t[pick_in], p_r[pick_in], p_c[pick_in], 1), 1.0)
    np.add.at(grid, (d_t[drop_in], d_r[drop_in], d_c[drop_in], 0), 1.0)
    expected = TripsExpected(
        rows=rows,
        unparseable=n_bad,
        out_of_range=n_out,
        outflow_counted=int(pick_in.sum()),
        inflow_counted=int(drop_in.sum()),
        grid=grid,
    )
    return text, expected
