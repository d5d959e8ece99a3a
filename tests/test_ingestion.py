"""Tests for trip aggregation, the STGRID1 format, and synthetic data."""

import csv
import math
import random
import sys
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from mlpst import ingestion
from mlpst.errors import ConfigError, DataError, FormatError
from mlpst.ingestion import (
    GridDataset,
    GridSpec,
    IngestSummary,
    aggregate,
    read_dataset,
    synth,
    write_dataset,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import inputs  # noqa: E402  (the benchmark's seeded trips generator)


def unit_spec(h=2, w=2, intervals=2, interval_seconds=100):
    return GridSpec(
        lat_min=0.0, lat_max=1.0, lon_min=0.0, lon_max=1.0,
        h=h, w=w, interval_seconds=interval_seconds,
        t_start=0.0, t_end=float(intervals * interval_seconds),
    )


def trip(pt, dt, plat, plon, dlat, dlon):
    """One trip as the one-row ``(1, 6)`` block ``aggregate`` reads."""
    return np.array([[pt, dt, plat, plon, dlat, dlon]], dtype=np.float64)


class TestAggregate:
    def test_two_pickups_same_cell_and_interval(self):
        spec = unit_spec()
        records = [
            trip(10, 20, 0.2, 0.2, 0.8, 0.8),
            trip(30, 40, 0.3, 0.1, 0.7, 0.9),
        ]
        dataset, summary = aggregate(records, spec)
        # both pickups in cell (0, 0) during interval 0
        assert dataset.values[0, 0, 0, 1] == 2.0
        assert summary.outflow_counted == 2

    def test_max_corner_lands_in_last_cell(self):
        spec = unit_spec()
        dataset, _ = aggregate([trip(0, 150, 1.0, 1.0, 0.1, 0.1)], spec)
        assert dataset.values[0, 1, 1, 1] == 1.0  # pickup at box max corner
        assert dataset.values[1, 0, 0, 0] == 1.0  # dropoff in second interval

    def test_interior_boundary_goes_to_lower_cell(self):
        spec = unit_spec()
        dataset, _ = aggregate([trip(0, 10, 0.5, 0.5, 0.9, 0.9)], spec)
        assert dataset.values[0, 0, 0, 1] == 1.0

    def test_min_corner_lands_in_first_cell(self):
        spec = unit_spec()
        dataset, _ = aggregate([trip(0, 10, 0.0, 0.0, 0.9, 0.9)], spec)
        assert dataset.values[0, 0, 0, 1] == 1.0

    def test_five_record_hand_fixture(self):
        # 2x2 grid over the unit box, two 100s intervals
        spec = unit_spec()
        records = [
            # pickup cell / interval -> outflow ; dropoff cell / interval -> inflow
            trip(0, 50, 0.25, 0.25, 0.75, 0.75),    # out (0,0) t0 ; in (1,1) t0
            trip(50, 120, 0.25, 0.75, 0.25, 0.25),  # out (0,1) t0 ; in (0,0) t1
            trip(110, 130, 0.75, 0.25, 0.75, 0.75), # out (1,0) t1 ; in (1,1) t1
            trip(120, 140, 0.25, 0.25, 0.25, 0.75), # out (0,0) t1 ; in (0,1) t1
            trip(150, 260, 0.75, 0.75, 0.25, 0.25), # out (1,1) t1 ; dropoff after range
        ]
        dataset, summary = aggregate(records, spec)
        outflow_t0 = np.array([[1, 1], [0, 0]], dtype=float)
        outflow_t1 = np.array([[1, 0], [1, 1]], dtype=float)
        inflow_t0 = np.array([[0, 0], [0, 1]], dtype=float)
        inflow_t1 = np.array([[1, 1], [0, 1]], dtype=float)
        np.testing.assert_array_equal(dataset.values[0, :, :, 1], outflow_t0)
        np.testing.assert_array_equal(dataset.values[1, :, :, 1], outflow_t1)
        np.testing.assert_array_equal(dataset.values[0, :, :, 0], inflow_t0)
        np.testing.assert_array_equal(dataset.values[1, :, :, 0], inflow_t1)
        assert summary.outflow_counted == 5
        assert summary.inflow_counted == 4

    def test_conservation(self):
        rng = np.random.default_rng(0)
        spec = unit_spec(h=3, w=4, intervals=5)
        records = [
            trip(
                float(rng.uniform(0, 400)), float(rng.uniform(400, 499)),
                float(rng.uniform(0, 1)), float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)), float(rng.uniform(0, 1)),
            )
            for _ in range(200)
        ]
        dataset, summary = aggregate(records, spec)
        assert dataset.values[..., 1].sum() == summary.outflow_counted == 200
        assert dataset.values[..., 0].sum() == summary.inflow_counted == 200

    def test_all_records_skipped_is_data_error(self):
        spec = unit_spec()
        with pytest.raises(DataError):
            aggregate([trip(0, 10, 5.0, 5.0, 6.0, 6.0)], spec)

    def test_no_records_is_data_error(self):
        with pytest.raises(DataError):
            aggregate([], unit_spec())


class TestTripCsv:
    def test_read_trips_with_iso_and_epoch_times(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text(
            "pickup_datetime,dropoff_datetime,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon\n"
            "1970-01-01T00:00:10+00:00,1970-01-01T00:00:20+00:00,0.2,0.2,0.8,0.8\n"
            "30,40,0.3,0.1,0.7,0.9\n"
        )
        summary = IngestSummary()
        records = np.concatenate(list(ingestion.read_trips(path, summary)))
        assert len(records) == 2
        assert records[0, 0] == 10.0  # pickup time
        assert records[1, 1] == 40.0  # dropoff time

    def test_unparseable_rows_tallied(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text(
            "pickup_datetime,dropoff_datetime,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon\n"
            "10,20,0.2,0.2,0.8,0.8\n"
            "not-a-time,20,0.2,0.2,0.8,0.8\n"
            "30,20,0.2,0.2,0.8,0.8\n"  # dropoff before pickup
            "10,20,nan,0.2,0.8,0.8\n"  # nonfinite coordinate
        )
        summary = IngestSummary()
        records = list(ingestion.read_trips(path, summary))
        assert len(records) == 1
        assert summary.total_rows == 4
        assert summary.unparseable == 3

    def test_short_row_counts_unparseable(self, tmp_path, capsys):
        # a row holding only a pickup time; the other five fields are absent
        header = "pickup_datetime,dropoff_datetime,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon\n"
        path = tmp_path / "trips.csv"
        path.write_text(header + "10\n")
        summary = IngestSummary()
        assert list(ingestion.read_trips(path, summary)) == []
        assert (summary.total_rows, summary.unparseable) == (1, 1)

        from mlpst.cli import main

        path.write_text(header + "10\n" + "10,20,0.2,0.2,0.8,0.8\n")
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"lat_min": 0, "lat_max": 1, "lon_min": 0, "lon_max": 1, "h": 2, "w": 2,'
            ' "interval_seconds": 100, "t_start": 0, "t_end": 200}'
        )
        out = tmp_path / "out.stgrid"
        assert main(["ingest", "--trips", str(path), "--spec", str(spec), "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert "rows,2" in err and "skipped_unparseable,1" in err

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text("pickup_datetime,dropoff_datetime\n10,20\n")
        with pytest.raises(DataError, match="pickup_lat"):
            list(ingestion.read_trips(path, IngestSummary()))


# ---------------------------------------------------------------------------
# the per-row reader the columnar one replaced, kept as its reference


def ref_parse_trip_row(row: dict) -> np.ndarray:
    """One parsed row as a ``(1, 6)`` block in ``TRIP_COLUMNS`` order."""
    block = trip(
        ingestion.parse_time(row["pickup_datetime"]),
        ingestion.parse_time(row["dropoff_datetime"]),
        float(row["pickup_lat"]),
        float(row["pickup_lon"]),
        float(row["dropoff_lat"]),
        float(row["dropoff_lon"]),
    )
    pickup_time, dropoff_time, *coords = block[0].tolist()
    if not all(math.isfinite(v) for v in coords):
        raise ValueError("coordinates must be finite")
    if dropoff_time < pickup_time:
        raise ValueError("dropoff before pickup")
    return block


def ref_cell_index(x, lo, hi, n):
    if not lo <= x <= hi:
        return None
    f = (x - lo) / (hi - lo) * n
    idx = math.ceil(f) - 1
    return min(max(idx, 0), n - 1)


def ref_locate(spec, time, lat, lon):
    if time < spec.t_start:
        return None
    t = int((time - spec.t_start) // spec.interval_seconds)
    if t >= spec.n_intervals:
        return None
    r = ref_cell_index(lat, spec.lat_min, spec.lat_max, spec.h)
    c = ref_cell_index(lon, spec.lon_min, spec.lon_max, spec.w)
    if r is None or c is None:
        return None
    return t, r, c


def ref_ingest(path, spec):
    """Grid values and tallies of ``csv.DictReader`` plus the scalar rules, row by row."""
    summary = IngestSummary()
    values = np.zeros((spec.n_intervals, spec.h, spec.w, 2))
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh, restval=""):
            summary.total_rows += 1
            try:
                block = ref_parse_trip_row(row)
            except (ValueError, KeyError, TypeError):
                summary.unparseable += 1
                continue
            pickup_time, dropoff_time, plat, plon, dlat, dlon = block[0].tolist()
            pickup = ref_locate(spec, pickup_time, plat, plon)
            dropoff = ref_locate(spec, dropoff_time, dlat, dlon)
            if pickup is not None:
                values[(*pickup, 1)] += 1.0
                summary.outflow_counted += 1
            if dropoff is not None:
                values[(*dropoff, 0)] += 1.0
                summary.inflow_counted += 1
            if pickup is None and dropoff is None:
                summary.out_of_range += 1
    return values, summary


def assert_ingests_like_reference(path, spec):
    values, summary = ref_ingest(path, spec)
    if summary.outflow_counted == 0 and summary.inflow_counted == 0:
        with pytest.raises(DataError, match="no usable trip records"):
            ingestion.ingest_csv(path, spec)
        return
    dataset, got = ingestion.ingest_csv(path, spec)
    assert dataset.values.tobytes() == values.tobytes()
    assert vars(got) == vars(summary)


FUZZ_T0 = 1577836800  # 2020-01-01T00:00:00Z
FUZZ_SPEC = GridSpec(lat_min=0.0, lat_max=1.0, lon_min=0.0, lon_max=1.0, h=3, w=4,
                     interval_seconds=3600, t_start=float(FUZZ_T0), t_end=float(FUZZ_T0 + 48 * 3600))
ODD_TIMES = (
    " {s} ", "{s}.5", "{s}.0", "0{s}", "{s:016d}", "+{s}", "1_577_836_800", "1e9", "-5",
    "{iso}+01:00", "{iso}-00:30", "{iso}.25", "{iso}z", "{iso}+0000", "{iso}Z ", "{date}",
    "2020-02-30T00:00:00", "2020-01-01T24:00:00", "2020-01-01T00:00:60", "0000-01-01T00:00:00",
    "2020-13-01T00:00:00", "2020-00-10T00:00:00", "2020-01-00T00:00:00", "2020-01-01T00:60:00",
    "2020-02-29T12:00:00Z", "1900-02-29T00:00:00", "2000-02-29T00:00:00+00:00",
    "0001-01-01T00:00:00", "9999-12-31T23:59:59", "20200101T000000", "2020-W01-1T00:00:00",
    "not-a-time", "", "\x00", "{s}\x00", "１５７７",
)
ODD_COORDS = (
    "0", "1", "0.5", "0.25", "0.75", "1.0", "-0.0", " 0.5 ", "0_5", ".5", "5e-1", "0x1p-1",
    "north", "", "2", "-1", "1e308", "-1e308", "nan", "inf", "-inf", "1e400", "0.3333333333333333",
)


def fuzz_time(rng):
    s = FUZZ_T0 + rng.choice([rng.randrange(-7200, 50 * 3600), 3600 * rng.randrange(49), -1])
    iso = datetime.fromtimestamp(s, timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
    k = rng.randrange(8)
    if k < 5:
        return (str(s), iso, iso + "Z", iso + "+00:00", str(s))[k]
    return rng.choice(ODD_TIMES).format(s=s, iso=iso, date=iso[:10])


def fuzz_csv(rng) -> str:
    """A small trips CSV mixing every row shape, quoting, line end and time form."""
    header = list(ingestion.TRIP_COLUMNS)
    rng.shuffle(header)
    if rng.random() < 0.3:
        header.insert(rng.randrange(len(header) + 1), "extra")
    if rng.random() < 0.2:  # a repeated name reads its last column
        header.insert(rng.randrange(len(header) + 1), rng.choice(ingestion.TRIP_COLUMNS))
    quoting = rng.random() < 0.2
    lines = [",".join(header)]
    for _ in range(rng.randrange(1, 60)):
        r = rng.random()
        if r < 0.04:
            lines.append("")
            continue
        row = [
            fuzz_time(rng) if name.endswith("datetime")
            else repr(rng.uniform(-0.2, 1.2)) if name.startswith(("pickup", "dropoff")) and rng.random() < 0.6
            else rng.choice(ODD_COORDS) if name.startswith(("pickup", "dropoff"))
            else str(rng.random())
            for name in header
        ]
        if r < 0.08:
            row = row[: rng.randrange(1, len(row))]
        elif r < 0.12:
            row += ["x"] * rng.randrange(1, 3)
        if quoting:
            row = ['"' + f + '"' if rng.random() < 0.3 else f for f in row]
        lines.append(",".join(row))
    end = "\r\n" if rng.random() < 0.15 else "\n"
    return end.join(lines) + (end if rng.random() < 0.9 else "")


def trips_grid(spec: inputs.TripsSpec) -> GridSpec:
    """The grid a benchmark-generated trips CSV is aggregated onto."""
    return GridSpec(lat_min=spec.lat_min, lat_max=spec.lat_max, lon_min=spec.lon_min,
                    lon_max=spec.lon_max, h=spec.h, w=spec.w, interval_seconds=spec.interval_seconds,
                    t_start=float(spec.t_start), t_end=float(spec.t_end))


class TestColumnarReader:
    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_matches_per_row_reference(self, tmp_path, seed):
        rng = random.Random(seed)
        path = tmp_path / "trips.csv"
        for _ in range(40):
            path.write_text(fuzz_csv(rng), encoding="utf-8", newline="")
            assert_ingests_like_reference(path, FUZZ_SPEC)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_fuzz_matches_reference_across_chunk_edges(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(ingestion, "CHUNK_ROWS", chunk)
        rng = random.Random(100 + chunk)
        path = tmp_path / "trips.csv"
        for _ in range(25):
            path.write_text(fuzz_csv(rng), encoding="utf-8", newline="")
            assert_ingests_like_reference(path, FUZZ_SPEC)

    def test_bench_generator_matches_reference(self, tmp_path):
        spec = inputs.TripsSpec()
        text, expected = inputs.trips_csv(3, 3000, spec)
        path = tmp_path / "trips.csv"
        path.write_text(text)
        gspec = trips_grid(spec)
        assert_ingests_like_reference(path, gspec)
        dataset, _ = ingestion.ingest_csv(path, gspec)
        assert dataset.values.tobytes() == expected.grid.tobytes()

    @pytest.mark.parametrize("small", [True, False], ids=["chunk 16", "chunk constant"])
    def test_quoted_rows_after_the_first_chunk_read_like_plain_ones(self, tmp_path, monkeypatch, small):
        if small:
            monkeypatch.setattr(ingestion, "CHUNK_ROWS", 16)
        rows = 2 * ingestion.CHUNK_ROWS + 1
        spec = inputs.TripsSpec(h=4, w=4, n_intervals=24)
        text, _ = inputs.trips_csv(11, rows, spec)
        lines = text.splitlines()
        assert len(lines) == rows + 1  # the header and one line per row
        quoted = list(lines)
        for i in range(ingestion.CHUNK_ROWS + 2, rows + 1, 3):
            quoted[i] = ",".join(f'"{f}"' for f in lines[i].split(","))
        plain_path, quoted_path, crlf_path = (tmp_path / f"{k}.csv" for k in ("plain", "quoted", "crlf"))
        plain_path.write_text("\n".join(lines) + "\n")
        quoted_path.write_text("\n".join(quoted) + "\n")
        crlf_path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        gspec = trips_grid(spec)
        plain, plain_summary = ingestion.ingest_csv(plain_path, gspec)
        for path in (quoted_path, crlf_path):
            got, summary = ingestion.ingest_csv(path, gspec)
            assert got.values.tobytes() == plain.values.tobytes()
            assert vars(summary) == vars(plain_summary)
        assert_ingests_like_reference(quoted_path, gspec)

    def test_memory_is_bounded_by_the_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingestion, "CHUNK_ROWS", 512)
        spec = inputs.TripsSpec(h=2, w=2, n_intervals=4)
        gspec = trips_grid(spec)
        peaks = []
        for rows in (4096, 4 * 4096):
            path = tmp_path / f"trips{rows}.csv"
            path.write_text(inputs.trips_csv(5, rows, spec)[0])
            tracemalloc.start()
            try:
                ingestion.ingest_csv(path, gspec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_non_finite_times_are_unparseable(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text(
            "pickup_datetime,dropoff_datetime,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon\n"
            "nan,20,0.2,0.2,0.8,0.8\n"
            "10,inf,0.2,0.2,0.8,0.8\n"
            "10,1e400,0.2,0.2,0.8,0.8\n"
            "-inf,20,0.2,0.2,0.8,0.8\n"  # the dropoff of this row used to count
            "10,20,0.2,0.2,0.8,0.8\n"
        )
        dataset, summary = ingestion.ingest_csv(path, unit_spec())
        assert (summary.total_rows, summary.unparseable) == (5, 4)
        assert (summary.outflow_counted, summary.inflow_counted) == (1, 1)
        assert dataset.values.sum() == 2.0

    def test_repeated_header_name_reads_its_last_column(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text(
            "pickup_lat,pickup_datetime,dropoff_datetime,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon\n"
            "north,10,20,0.2,0.2,0.8,0.8\n"
        )
        (block,) = ingestion.read_trips(path, IngestSummary())
        assert block.tolist() == [[10.0, 20.0, 0.2, 0.2, 0.8, 0.8]]

    @pytest.mark.parametrize("quote", [False, True], ids=["split", "csv module"])
    def test_field_over_the_csv_limit_is_a_data_error(self, tmp_path, quote):
        limit = csv.field_size_limit()
        header = "pickup_datetime,dropoff_datetime,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon\n"
        first = '"10",20,0.2,0.2,0.8,0.8\n' if quote else "10,20,0.2,0.2,0.8,0.8\n"
        path = tmp_path / "trips.csv"
        path.write_text(header + first + "10,20,0.2,0.2,0.8," + "1" * limit + "\n")
        ingestion.ingest_csv(path, unit_spec())  # a field of exactly the limit is read
        path.write_text(header + first + "10,20,0.2,0.2,0.8," + "1" * (limit + 1) + "\n")
        with pytest.raises(DataError, match=rf"trips\.csv: field larger than field limit \({limit}\)$"):
            ingestion.ingest_csv(path, unit_spec())


class TestStgridFormat:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        dataset = GridDataset(
            h=3, w=4, d=2, interval_seconds=900,
            box=(40.5, 40.9, -74.1, -73.7),
            values=rng.uniform(0, 100, size=(7, 3, 4, 2)),
        )
        path = tmp_path / "data.stgrid"
        write_dataset(path, dataset)
        back = read_dataset(path)
        np.testing.assert_array_equal(back.values, dataset.values)
        assert (back.h, back.w, back.d) == (3, 4, 2)
        assert back.interval_seconds == 900
        assert back.box == dataset.box

    def test_file_size_arithmetic(self, tmp_path):
        dataset = GridDataset(
            h=10, w=20, d=2, interval_seconds=3600,
            box=(0.0, 1.0, 0.0, 1.0),
            values=np.zeros((100, 10, 20, 2)),
        )
        path = tmp_path / "data.stgrid"
        write_dataset(path, dataset)
        header_bytes = 4 * 4 + 8 + 4 * 8  # H,W,d,T u32 + interval u64 + box 4xf64
        assert path.stat().st_size == 7 + header_bytes + 100 * 10 * 20 * 2 * 8

    def test_truncated_file_names_lengths(self, tmp_path):
        dataset = GridDataset(
            h=2, w=2, d=2, interval_seconds=60, box=(0, 1, 0, 1),
            values=np.ones((3, 2, 2, 2)),
        )
        path = tmp_path / "data.stgrid"
        write_dataset(path, dataset)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError, match="expected 192.*got 184"):
            read_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_file_and_step(self, tmp_path, value):
        values = np.ones((5, 2, 2, 2))
        values[3, 1, 0, 1] = value
        path = tmp_path / "data.stgrid"
        write_dataset(path, GridDataset(h=2, w=2, d=2, interval_seconds=60,
                                        box=(0, 1, 0, 1), values=values))
        with pytest.raises(DataError, match=rf"data\.stgrid: non-finite value {value} at time step 3$"):
            read_dataset(path)

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "data.stgrid"
        write_dataset(path, GridDataset(h=1, w=1, d=1, interval_seconds=60,
                                        box=(0, 1, 0, 1), values=np.ones((2, 1, 1, 1))))
        old = path.read_bytes()
        # the header is written before the values fail to convert to float64
        broken = GridDataset(h=1, w=1, d=1, interval_seconds=60, box=(0, 1, 0, 1),
                             values=np.array([[[["x"]]]], dtype=object))
        with pytest.raises(ValueError):
            write_dataset(path, broken)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["data.stgrid"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "data.stgrid"
        path.write_bytes(b"GARBAGE" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            read_dataset(path)


class TestSynth:
    def test_constant_maps_identical(self):
        data = synth("constant", 3, 4, steps=10, seed=0)
        for t in range(1, 10):
            np.testing.assert_array_equal(data.values[t], data.values[0])

    def test_periodic_exact_with_zero_noise(self):
        data = synth("periodic", 3, 3, steps=60, seed=1, period=24)
        for s in range(60 - 24):
            np.testing.assert_array_equal(data.values[s], data.values[s + 24])

    def test_seed_determinism(self):
        a = synth("diffusive", 4, 4, steps=20, seed=7)
        b = synth("diffusive", 4, 4, steps=20, seed=7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_nonnegative_even_with_noise(self):
        data = synth("periodic", 4, 4, steps=50, seed=2, noise=5.0)
        assert data.values.min() >= 0.0

    def test_trend_is_monotone_without_noise(self):
        data = synth("trend", 3, 3, steps=30, seed=3)
        diffs = np.diff(data.values, axis=0)
        assert np.all(diffs >= 0.0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            synth("sawtooth", 3, 3, steps=10)
