"""Turn raw trip records into grid-map sequences, plus dataset file I/O.

Aggregation rule: each trip increments the *outflow* channel of its pickup
cell at the pickup interval and the *inflow* channel of its dropoff cell at
the dropoff interval (channel 0 = inflow, channel 1 = outflow). Rows run
with latitude (row 0 at the minimum latitude), columns with longitude.
A coordinate exactly on an interior cell boundary lands in the lower-index
cell; the box maximum edge lands in the last cell.

Trips CSVs are read in chunks of ``CHUNK_ROWS`` lines, column by column:
each chunk becomes one float64 block of its parseable trips, which
:func:`aggregate` bins with array arithmetic and adds into the grid with
``np.add.at``; the counts are exact integers. Memory is bounded by the
chunk, not the file.

STGRID1 files: magic ``STGRID1``, little-endian header (H, W, d, T as u32,
interval_seconds as u64, bounding box as 4 f64), then T*H*W*d float64
values in (t, h, w, d) order.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, compress, islice

import numpy as np

from .errors import DataError, ConfigError, FormatError
from .fileio import atomic_open
from .griddata import check_finite

Array = np.ndarray

MAGIC = b"STGRID1"
_HEADER = struct.Struct("<IIIIQ4d")
_HEADER_END = len(MAGIC) + _HEADER.size

CHUNK_ROWS = 1 << 14  # trips CSV lines read and parsed at a time

TRIP_COLUMNS = (
    "pickup_datetime",
    "dropoff_datetime",
    "pickup_lat",
    "pickup_lon",
    "dropoff_lat",
    "dropoff_lon",
)


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
        for name in ("lat_min", "lat_max", "lon_min", "lon_max", "t_start", "t_end"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"spec field {name!r} must be finite, got {value}")
        if not (self.lat_max > self.lat_min and self.lon_max > self.lon_min):
            raise ConfigError(f"spec needs lat_max > lat_min and lon_max > lon_min, got lat "
                              f"{self.lat_min}..{self.lat_max}, lon {self.lon_min}..{self.lon_max}")
        if self.h < 1 or self.w < 1:
            raise ConfigError(f"spec fields h and w must be >= 1, got h={self.h}, w={self.w}")
        if not 1 <= self.interval_seconds < 2**64:  # STGRID1 stores it as a u64
            raise ConfigError(f"interval_seconds must be in [1, 2**64), got {self.interval_seconds}")
        if not self.t_end > self.t_start:
            raise ConfigError(f"spec needs t_end > t_start, got {self.t_start}..{self.t_end}")

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


def _floats(column) -> Array:
    """``float`` of every string; NaN where it raises."""
    values, rest = [], iter(column)
    while True:
        try:
            values.extend(map(float, rest))
            return np.array(values, dtype=np.float64)
        except ValueError:  # ``rest`` has moved past the string that raised
            values.append(math.nan)


# the strict ISO form YYYY-MM-DDTHH:MM:SS, optionally followed by Z or +00:00
_ISO_WIDTH = 25
_ISO_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_ISO_PUNCT = [4, 7, 10, 13, 16]
_ISO_PUNCT_CODES = [ord(ch) for ch in "--T::"]
_UTC_CODES = [ord(ch) for ch in "+00:00"]
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _days_from_civil(year: Array, month: Array, day: Array) -> Array:
    """Days since 1970-01-01 of proleptic Gregorian dates with ``year >= 1``."""
    year = year - (month <= 2)
    era = year // 400
    yoe = year - era * 400
    doy = (153 * np.where(month > 2, month - 3, month + 9) + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def _times(column) -> Array:
    """:func:`parse_time` of every string; NaN where it raises.

    Up to 15 ASCII digits (epoch seconds) and the strict UTC form
    ``YYYY-MM-DDTHH:MM:SS[Z|+00:00]`` with an existing date and time are
    converted vectorised; every other string goes through ``parse_time``.
    """
    n = len(column)
    lengths = np.fromiter(map(len, column), np.intp, n)
    # longer strings are cut short here, but their lengths send them to parse_time
    codes = np.array(column, dtype=f"U{_ISO_WIDTH}").view(np.int32).reshape(n, _ISO_WIDTH)
    digit = (codes >= ord("0")) & (codes <= ord("9"))
    out = np.empty(n)

    # float() reads up to 15 digits exactly, as parse_time does
    epoch = (lengths >= 1) & (lengths <= 15) & (digit.sum(axis=1) == lengths)
    out[epoch] = np.fromiter(map(float, compress(column, epoch)), np.float64, np.count_nonzero(epoch))

    iso = (lengths == 19) | ((lengths == 20) & (codes[:, 19] == ord("Z")))
    iso |= (lengths == 25) & (codes[:, 19:25] == _UTC_CODES).all(axis=1)
    iso &= digit[:, _ISO_DIGITS].all(axis=1) & (codes[:, _ISO_PUNCT] == _ISO_PUNCT_CODES).all(axis=1)
    rows = np.flatnonzero(iso)
    d = codes[rows, :19].astype(np.int64) - ord("0")
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    month, day = d[:, 5] * 10 + d[:, 6], d[:, 8] * 10 + d[:, 9]
    hour, minute, second = d[:, 11] * 10 + d[:, 12], d[:, 14] * 10 + d[:, 15], d[:, 17] * 10 + d[:, 18]
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _DAYS_IN_MONTH[np.clip(month, 0, 12)] + (leap & (month == 2))
    valid = (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    valid &= (hour <= 23) & (minute <= 59) & (second <= 59)
    days = _days_from_civil(year[valid], month[valid], day[valid])
    seconds = days * 86400 + hour[valid] * 3600 + minute[valid] * 60 + second[valid]
    out[rows[valid]] = seconds.astype(np.float64)
    iso[rows[~valid]] = False  # parse_time has the last word on impossible dates

    for i in np.flatnonzero(~(epoch | iso)).tolist():
        try:
            out[i] = parse_time(column[i])
        except ValueError:
            out[i] = math.nan
    return out


def _trip_block(columns, summary: IngestSummary) -> Array:
    """The parseable rows of one chunk as an ``(n, 6)`` block; tallies the chunk.

    A row is unparseable if any of its six values is not a finite number
    or its dropoff precedes its pickup.
    """
    n = len(columns[0])
    block = np.empty((n, len(TRIP_COLUMNS)))
    block[:, 0] = _times(columns[0])
    block[:, 1] = _times(columns[1])
    for j in range(2, len(TRIP_COLUMNS)):
        block[:, j] = _floats(columns[j])
    ok = np.isfinite(block).all(axis=1) & (block[:, 1] >= block[:, 0])
    summary.total_rows += n
    summary.unparseable += n - int(ok.sum())
    return block[ok]


def _columns(rows, width: int, picks: list[int]):
    """Columns ``picks`` of split rows, read as ``csv.DictReader`` reads them.

    Blank rows are skipped, short rows are padded with ``""`` and extra
    fields are ignored; ``None`` if every row is blank.
    """
    rows = [row if len(row) == width else (row + [""] * width)[:width] for row in rows if row]
    if not rows:
        return None
    columns = list(zip(*rows))
    return [columns[j] for j in picks]


def _chunk_columns(fh, width: int, picks: list[int]):
    """Columns ``picks`` of each chunk of ``CHUNK_ROWS`` lines, as sequences of strings.

    A chunk holding no quote and no CR is split with ``str.split``, which on
    such text is exactly what the csv module does; from the first chunk that
    holds either, the rest of the file goes through ``csv.reader``.
    """
    limit = csv.field_size_limit()
    while lines := list(islice(fh, CHUNK_ROWS)):
        text = "".join(lines)
        if '"' in text or "\r" in text:
            reader = csv.reader(chain(lines, fh))
            while chunk := list(islice(reader, CHUNK_ROWS)):
                if columns := _columns(chunk, width, picks):
                    yield columns
            return
        if not text.endswith("\n"):
            text += "\n"
        # every line end becomes a field of its own: a chunk whose rows all
        # hold ``width`` fields has one at every (width + 1)-th place
        fields = text.replace("\n", ",\n,").split(",")
        del fields[-1]
        n = len(lines)
        regular = len(fields) == n * (width + 1) and fields[width :: width + 1].count("\n") == n
        if max(map(len, lines)) > limit and max(map(len, fields)) > limit:
            raise csv.Error(f"field larger than field limit ({limit})")
        if regular:
            yield [fields[j :: width + 1] for j in picks]
        elif columns := _columns([line.split(",") for line in text.split("\n")[:-1] if line], width, picks):
            yield columns


def read_trips(path, summary: IngestSummary):
    """Yield the parseable trips of a trips CSV; tally every row in ``summary``.

    Reads ``CHUNK_ROWS`` lines at a time and yields one ``(n, 6)`` float64
    block per chunk (none for a chunk without parseable trips), columns in
    ``TRIP_COLUMNS`` order, times in epoch seconds. A header name that
    repeats reads its last column. Text that is not UTF-8 or a field over
    ``csv.field_size_limit()`` is a :class:`DataError` naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), [])
            missing = [c for c in TRIP_COLUMNS if c not in header]
            if missing:
                raise DataError(f"trips CSV is missing columns: {', '.join(missing)}")
            where = {name: i for i, name in enumerate(header)}
            for columns in _chunk_columns(fh, len(header), [where[c] for c in TRIP_COLUMNS]):
                block = _trip_block(columns, summary)
                if len(block):
                    yield block
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start : exc.start + 1]
        raise DataError(f"{path}: not UTF-8 text (byte {byte.hex()} cannot be decoded)") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# aggregation


def _cells(spec: GridSpec, time: Array, lat: Array, lon: Array) -> tuple[Array, Array]:
    """Flat ``(t, row, col)`` index of each point, and whether it lies in the grid.

    Interior cell boundaries go to the lower-index cell and the box maximum
    to the last cell; the operations are those of the scalar rule
    ``ceil((x - lo) / (hi - lo) * n) - 1`` and Python's float ``//``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.floor_divide(time - spec.t_start, spec.interval_seconds)
        inside = (time >= spec.t_start) & (t < spec.n_intervals)
        index = np.where(inside, t, 0.0)
        for x, lo, hi, n in (
            (lat, spec.lat_min, spec.lat_max, spec.h),
            (lon, spec.lon_min, spec.lon_max, spec.w),
        ):
            inside &= (x >= lo) & (x <= hi)
            cell = np.clip(np.ceil((x - lo) / (hi - lo) * n) - 1, 0, n - 1)
            index = index * n + np.where(inside, cell, 0.0)
    return index.astype(np.int64), inside


def _grid_zeros(shape: tuple[int, ...]) -> Array:
    """``np.zeros(shape)``, or a :class:`ConfigError` naming the shape and its bytes."""
    try:
        return np.zeros(shape)
    except (MemoryError, ValueError):  # ValueError: more bytes than an intp counts
        raise ConfigError(f"cannot allocate a grid of {' x '.join(map(str, shape))} values "
                          f"({8 * math.prod(shape):.3g} bytes)") from None


def aggregate(blocks, spec: GridSpec, summary: IngestSummary | None = None
              ) -> tuple[GridDataset, IngestSummary]:
    """Fold trips into inflow/outflow grid maps.

    ``blocks`` yields ``(n, 6)`` float64 arrays in ``TRIP_COLUMNS`` order,
    as :func:`read_trips` does.
    """
    spec.validate()
    if summary is None:
        summary = IngestSummary()
    values = _grid_zeros((spec.n_intervals, spec.h, spec.w, 2))
    flat = values.reshape(-1)
    for block in blocks:
        pickup, pick_in = _cells(spec, block[:, 0], block[:, 2], block[:, 3])
        dropoff, drop_in = _cells(spec, block[:, 1], block[:, 4], block[:, 5])
        # channel 0 counts dropoffs (inflow), channel 1 pickups (outflow)
        # np.add.at costs O(trips), where a bincount over the grid costs O(cells)
        np.add.at(flat, 2 * dropoff[drop_in], 1.0)
        np.add.at(flat, 2 * pickup[pick_in] + 1, 1.0)
        summary.outflow_counted += int(pick_in.sum())
        summary.inflow_counted += int(drop_in.sum())
        summary.out_of_range += int((~pick_in & ~drop_in).sum())
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
    """Aggregate a trips CSV; memory is bounded by one chunk, not the file."""
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
        raise FormatError(f"{path}: not an STGRID1 file: bad magic {head[:7]!r}", offset=0)
    if len(head) < _HEADER_END:
        raise FormatError(
            f"{path}: truncated header: expected {_HEADER_END} bytes, got {len(head)}",
            offset=len(head),
        )
    h, w, d, t, interval, *box = _HEADER.unpack(head[len(MAGIC) :])
    expected = t * h * w * d * 8
    actual = size - _HEADER_END
    if actual != expected:
        raise FormatError(
            f"{path}: payload length mismatch: expected {expected} bytes for "
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
        raise ConfigError(f"height, width, steps and channels must be >= 1, got {h}, {w}, {steps}, {d}")
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ConfigError(f"noise must be finite and >= 0, got {noise}")
    if not 1 <= interval_seconds < 2**64:  # STGRID1 stores it as a u64
        raise ConfigError(f"interval must be in [1, 2**64) seconds, got {interval_seconds}")
    values = _grid_zeros((steps, h, w, d))  # each kind fills it
    rng = np.random.default_rng(seed)

    if kind == "constant":
        # uniform level per channel, fixed across space and time
        values[...] = rng.uniform(1.0, 10.0, size=d)
    elif kind == "periodic":
        if period < 1:
            raise ConfigError(f"period must be >= 1, got {period}")
        # per-cell periodic waveform: a harmonic mix over spatially smooth
        # parameter fields, so nearby cells carry related signals and the
        # within-period profile is richer than one sinusoid (rush-hour-like)
        s = np.arange(period).reshape(period, 1, 1, 1)
        cycle = 9.0 + 2.0 * _smooth(rng.normal(size=(h, w, d)))
        for k, strength in ((1, 6.0), (2, 3.5), (3, 2.5), (4, 2.5), (6, 2.0)):
            amp = strength * _smooth(rng.normal(size=(h, w, d)))
            phase = np.pi * _smooth(rng.normal(size=(h, w, d)))
            cycle = cycle + amp * np.sin(2.0 * np.pi * k * s / period + phase)
        np.take(cycle, np.arange(steps), axis=0, out=values, mode="wrap")
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
        np.multiply(slope, ts, out=values)
        values += base
    else:  # diffusive
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
