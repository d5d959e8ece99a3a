"""Turn raw trip records into grid-map sequences, plus dataset file I/O.

Aggregation rule: each trip increments the *outflow* channel of its pickup
cell at the pickup interval and the *inflow* channel of its dropoff cell at
the dropoff interval (channel 0 = inflow, channel 1 = outflow). Rows run
with latitude (row 0 at the minimum latitude), columns with longitude.
A coordinate exactly on an interior cell boundary lands in the lower-index
cell; the box maximum edge lands in the last cell.

STGRID1 files: magic ``STGRID1``, little-endian header (H, W, d, T as u32,
interval_seconds as u64, bounding box as 4 f64), then T*H*W*d float64
values in (t, h, w, d) order.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import DataError, ConfigError, FormatError
from .fileio import atomic_open
from .griddata import check_finite

Array = np.ndarray

MAGIC = b"STGRID1"
_HEADER = struct.Struct("<IIIIQ4d")
_HEADER_END = len(MAGIC) + _HEADER.size

TRIP_COLUMNS = (
    "pickup_datetime",
    "dropoff_datetime",
    "pickup_lat",
    "pickup_lon",
    "dropoff_lat",
    "dropoff_lon",
)


@dataclass
class TripRecord:
    pickup_time: float
    dropoff_time: float
    pickup_lat: float
    pickup_lon: float
    dropoff_lat: float
    dropoff_lon: float


@dataclass
class GridSpec:
    """Spatial box, grid resolution and time range for aggregation."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    h: int
    w: int
    interval_seconds: int
    t_start: float
    t_end: float

    def validate(self) -> None:
        if not (self.lat_max > self.lat_min and self.lon_max > self.lon_min):
            raise ConfigError("bounding box must be nondegenerate")
        if self.h < 1 or self.w < 1:
            raise ConfigError("grid dimensions must be >= 1")
        if self.interval_seconds <= 0:
            raise ConfigError("interval_seconds must be positive")
        if not self.t_end > self.t_start:
            raise ConfigError("time range must be nondegenerate")

    @property
    def n_intervals(self) -> int:
        return int((self.t_end - self.t_start) // self.interval_seconds)


@dataclass
class GridDataset:
    h: int
    w: int
    d: int
    interval_seconds: int
    box: tuple[float, float, float, float]  # lat_min, lat_max, lon_min, lon_max
    values: Array  # (T, H, W, d)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]


@dataclass
class IngestSummary:
    total_rows: int = 0
    unparseable: int = 0
    out_of_range: int = 0     # records that contributed nothing
    outflow_counted: int = 0  # pickups inside box and time range
    inflow_counted: int = 0   # dropoffs inside box and time range

    def lines(self) -> list[str]:
        return [
            f"rows,{self.total_rows}",
            f"skipped_unparseable,{self.unparseable}",
            f"skipped_out_of_range,{self.out_of_range}",
            f"outflow_counted,{self.outflow_counted}",
            f"inflow_counted,{self.inflow_counted}",
        ]


# ---------------------------------------------------------------------------
# trip CSV parsing


def parse_time(text: str) -> float:
    """Seconds since the epoch from a number or an ISO-8601 time (UTC if no offset)."""
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def parse_trip_row(row: dict) -> TripRecord:
    """Build a record from a CSV row; raises ValueError on any bad field."""
    record = TripRecord(
        pickup_time=parse_time(row["pickup_datetime"]),
        dropoff_time=parse_time(row["dropoff_datetime"]),
        pickup_lat=float(row["pickup_lat"]),
        pickup_lon=float(row["pickup_lon"]),
        dropoff_lat=float(row["dropoff_lat"]),
        dropoff_lon=float(row["dropoff_lon"]),
    )
    values = (
        record.pickup_lat, record.pickup_lon, record.dropoff_lat, record.dropoff_lon
    )
    if not all(math.isfinite(v) for v in values):
        raise ValueError("coordinates must be finite")
    if record.dropoff_time < record.pickup_time:
        raise ValueError("dropoff before pickup")
    return record


def read_trips(path, summary: IngestSummary):
    """Yield parseable records from a trips CSV; tally bad rows."""
    with open(path, newline="") as fh:
        # a short row's absent fields read as "", which fails to parse
        reader = csv.DictReader(fh, restval="")
        header = reader.fieldnames or []
        missing = [c for c in TRIP_COLUMNS if c not in header]
        if missing:
            raise DataError(f"trips CSV is missing columns: {', '.join(missing)}")
        for row in reader:
            summary.total_rows += 1
            try:
                yield parse_trip_row(row)
            except (ValueError, KeyError, TypeError):
                summary.unparseable += 1


# ---------------------------------------------------------------------------
# aggregation


def _cell_index(x: float, lo: float, hi: float, n: int) -> int | None:
    """Bin a coordinate; interior boundaries go to the lower-index cell."""
    if not lo <= x <= hi:
        return None
    f = (x - lo) / (hi - lo) * n
    idx = math.ceil(f) - 1
    return min(max(idx, 0), n - 1)


def _locate(spec: GridSpec, time: float, lat: float, lon: float):
    if time < spec.t_start:
        return None
    t = int((time - spec.t_start) // spec.interval_seconds)
    if t >= spec.n_intervals:
        return None
    r = _cell_index(lat, spec.lat_min, spec.lat_max, spec.h)
    c = _cell_index(lon, spec.lon_min, spec.lon_max, spec.w)
    if r is None or c is None:
        return None
    return t, r, c


def aggregate(records, spec: GridSpec, summary: IngestSummary | None = None
              ) -> tuple[GridDataset, IngestSummary]:
    """Single-pass fold of trip records into inflow/outflow grid maps."""
    spec.validate()
    if summary is None:
        summary = IngestSummary()
    values = np.zeros((spec.n_intervals, spec.h, spec.w, 2))
    for record in records:
        contributed = False
        pickup = _locate(spec, record.pickup_time, record.pickup_lat, record.pickup_lon)
        if pickup is not None:
            t, r, c = pickup
            values[t, r, c, 1] += 1.0
            summary.outflow_counted += 1
            contributed = True
        dropoff = _locate(spec, record.dropoff_time, record.dropoff_lat, record.dropoff_lon)
        if dropoff is not None:
            t, r, c = dropoff
            values[t, r, c, 0] += 1.0
            summary.inflow_counted += 1
            contributed = True
        if not contributed:
            summary.out_of_range += 1
    if summary.outflow_counted == 0 and summary.inflow_counted == 0:
        raise DataError(
            f"no usable trip records ({summary.total_rows} rows, "
            f"{summary.unparseable} unparseable, {summary.out_of_range} out of range)"
        )
    dataset = GridDataset(
        h=spec.h,
        w=spec.w,
        d=2,
        interval_seconds=spec.interval_seconds,
        box=(spec.lat_min, spec.lat_max, spec.lon_min, spec.lon_max),
        values=values,
    )
    return dataset, summary


def ingest_csv(path, spec: GridSpec) -> tuple[GridDataset, IngestSummary]:
    summary = IngestSummary()
    return aggregate(read_trips(path, summary), spec, summary)


# ---------------------------------------------------------------------------
# STGRID1 file format


def write_dataset(path, dataset: GridDataset) -> None:
    t = dataset.values.shape[0]
    header = _HEADER.pack(
        dataset.h, dataset.w, dataset.d, t, dataset.interval_seconds, *dataset.box
    )
    with atomic_open(path) as fh:
        fh.write(MAGIC)
        fh.write(header)
        fh.write(np.ascontiguousarray(dataset.values, dtype="<f8").data)


@dataclass(frozen=True)
class GridHeader:
    """An STGRID1 header whose payload size has been checked against it."""

    h: int
    w: int
    d: int
    n_steps: int
    interval_seconds: int
    box: tuple[float, float, float, float]


def read_header(path) -> GridHeader:
    """Read an STGRID1 header; the payload must hold exactly ``T*H*W*d`` values."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER_END)
    if head[: len(MAGIC)] != MAGIC:
        raise FormatError(f"not an STGRID1 file: bad magic {head[:7]!r}", offset=0)
    if len(head) < _HEADER_END:
        raise FormatError(
            f"truncated header: expected {_HEADER_END} bytes, got {len(head)}",
            offset=len(head),
        )
    h, w, d, t, interval, *box = _HEADER.unpack(head[len(MAGIC) :])
    expected = t * h * w * d * 8
    actual = size - _HEADER_END
    if actual != expected:
        raise FormatError(
            f"payload length mismatch: expected {expected} bytes for "
            f"{t}x{h}x{w}x{d} values, got {actual}",
            offset=_HEADER_END,
        )
    return GridHeader(h=h, w=w, d=d, n_steps=t, interval_seconds=interval, box=tuple(box))


def read_maps(path, header: GridHeader, start: int, stop: int) -> Array:
    """Maps ``start:stop`` of a file ``header`` describes, as ``(stop - start, H, W, d)``.

    Only those maps are read, and only they are checked for NaN and inf; an
    error names the absolute time step.
    """
    shape = (stop - start, header.h, header.w, header.d)
    with open(path, "rb") as fh:
        fh.seek(_HEADER_END + 8 * start * header.h * header.w * header.d)
        values = np.fromfile(fh, dtype="<f8", count=math.prod(shape))
    values = values.astype(np.float64, copy=False).reshape(shape)
    check_finite(values, str(path), first_step=start)
    return values


def read_dataset(path) -> GridDataset:
    header = read_header(path)
    return GridDataset(
        h=header.h, w=header.w, d=header.d,
        interval_seconds=header.interval_seconds, box=header.box,
        values=read_maps(path, header, 0, header.n_steps),
    )


# ---------------------------------------------------------------------------
# synthetic processes

SYNTH_KINDS = ("constant", "periodic", "trend", "diffusive")


def _smooth(field: Array, rounds: int = 3, axes: tuple[int, int] = (0, 1)) -> Array:
    """Neighbour-average two grid axes a few times (torus topology)."""
    ax0, ax1 = axes
    for _ in range(rounds):
        field = (
            field
            + np.roll(field, 1, axis=ax0) + np.roll(field, -1, axis=ax0)
            + np.roll(field, 1, axis=ax1) + np.roll(field, -1, axis=ax1)
        ) / 5.0
    return field


def _ar1(rng, n: int, shape: tuple, rho: float) -> Array:
    g = rng.normal(size=(n, *shape))
    z = np.empty_like(g)
    z[0] = g[0]
    scale = math.sqrt(1.0 - rho * rho)
    for i in range(1, n):
        z[i] = rho * z[i - 1] + scale * g[i]
    return z


def _smooth_unit(field: Array, rounds: int, h: int, w: int) -> Array:
    """Spatially smooth (axes 1, 2) and renormalise back to unit variance."""
    delta = np.zeros((h, w, 1))
    delta[0, 0, 0] = 1.0
    kernel = _smooth(delta, rounds=rounds)
    factor = math.sqrt(float((kernel**2).sum()))
    return _smooth(field, rounds=rounds, axes=(1, 2)) / factor


def _cycle_memory_noise(
    rng, steps: int, h: int, w: int, d: int, period: int
) -> Array:
    """Unit-variance Gaussian wander with cycle-level and phase-level memory.

    Two components: a per-(phase, cell) process with long memory across
    whole cycles and short memory across adjacent phases (today's rush hour
    predicts tomorrow's), plus a per-cycle level shared by all phases of a
    cycle (a busy day is busy all day). Both are smoothed in space, the
    phase process over a wider radius than one patch.
    """
    n_cycles = steps // period + 2
    z = _ar1(rng, n_cycles, (period, h, w, d), rho=0.95)
    # blend over adjacent phases: kernel (1, 2, 1)/sqrt(6) keeps unit variance
    z = (np.roll(z, 1, axis=1) + 2.0 * z + np.roll(z, -1, axis=1)) / math.sqrt(6.0)
    z = _smooth_unit(z.reshape(-1, h, w, d), 2, h, w).reshape(z.shape)
    level = _ar1(rng, n_cycles, (h, w, d), rho=0.7)
    level = _smooth_unit(level, 1, h, w)
    mix = math.sqrt(0.65) * z + math.sqrt(0.35) * level[:, np.newaxis]
    return mix.reshape(-1, h, w, d)[:steps]


def synth(
    kind: str,
    h: int,
    w: int,
    steps: int,
    d: int = 2,
    interval_seconds: int = 3600,
    seed: int = 0,
    noise: float = 0.0,
    period: int = 24,
) -> GridDataset:
    """Seeded synthetic spatio-temporal processes, clamped nonnegative.

    ``periodic`` tiles one precomputed cycle so map ``s`` and map
    ``s + period`` are bit-identical when ``noise`` is 0.
    """
    if kind not in SYNTH_KINDS:
        raise ConfigError(f"unknown synthetic kind {kind!r} (expected one of {SYNTH_KINDS})")
    if h < 1 or w < 1 or steps < 1 or d < 1:
        raise ConfigError("synthetic dataset dimensions must be >= 1")
    rng = np.random.default_rng(seed)

    if kind == "constant":
        # uniform level per channel, fixed across space and time
        levels = rng.uniform(1.0, 10.0, size=d)
        values = np.broadcast_to(levels, (steps, h, w, d)).copy()
    elif kind == "periodic":
        if period < 1:
            raise ConfigError("period must be >= 1")
        # per-cell periodic waveform: a harmonic mix over spatially smooth
        # parameter fields, so nearby cells carry related signals and the
        # within-period profile is richer than one sinusoid (rush-hour-like)
        s = np.arange(period).reshape(period, 1, 1, 1)
        cycle = 9.0 + 2.0 * _smooth(rng.normal(size=(h, w, d)))
        for k, strength in ((1, 6.0), (2, 3.5), (3, 2.5), (4, 2.5), (6, 2.0)):
            amp = strength * _smooth(rng.normal(size=(h, w, d)))
            phase = np.pi * _smooth(rng.normal(size=(h, w, d)))
            cycle = cycle + amp * np.sin(2.0 * np.pi * k * s / period + phase)
        values = cycle[np.arange(steps) % period]
        if noise > 0.0:
            # the periodic kind's corruption is a structured Gaussian field
            # with short memory across phases and long memory across cycles
            # (today's rush hour predicts tomorrow's), plus a white part
            wander = _cycle_memory_noise(rng, steps, h, w, d, period)
            white = rng.normal(size=values.shape)
            values = values + noise * (
                math.sqrt(0.8) * wander + math.sqrt(0.2) * white
            )
            noise = 0.0  # consumed; skip the generic white-noise step below
    elif kind == "trend":
        base = rng.uniform(1.0, 5.0, size=(h, w, d))
        slope = rng.uniform(0.0, 5.0 / steps, size=(h, w, d))
        ts = np.arange(steps).reshape(steps, 1, 1, 1)
        values = base + slope * ts
    else:  # diffusive
        values = np.empty((steps, h, w, d))
        state = rng.uniform(2.0, 8.0, size=(h, w, d))
        values[0] = state
        for t in range(1, steps):
            neighbours = (
                np.roll(state, 1, axis=0) + np.roll(state, -1, axis=0)
                + np.roll(state, 1, axis=1) + np.roll(state, -1, axis=1)
            ) / 4.0
            state = 0.5 * state + 0.5 * neighbours + rng.normal(0.0, 0.5, size=state.shape)
            state = np.maximum(state, 0.0)
            values[t] = state

    if noise > 0.0:
        values = values + rng.normal(0.0, noise, size=values.shape)
    values = np.maximum(values, 0.0)
    return GridDataset(
        h=h, w=w, d=d, interval_seconds=interval_seconds,
        box=(0.0, 1.0, 0.0, 1.0), values=values,
    )
