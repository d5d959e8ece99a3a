"""Tests for trip aggregation, the STGRID1 format, and synthetic data."""

import numpy as np
import pytest

from mlpst import ingestion
from mlpst.errors import ConfigError, DataError, FormatError
from mlpst.ingestion import (
    GridDataset,
    GridSpec,
    IngestSummary,
    TripRecord,
    aggregate,
    read_dataset,
    synth,
    write_dataset,
)


def unit_spec(h=2, w=2, intervals=2, interval_seconds=100):
    return GridSpec(
        lat_min=0.0, lat_max=1.0, lon_min=0.0, lon_max=1.0,
        h=h, w=w, interval_seconds=interval_seconds,
        t_start=0.0, t_end=float(intervals * interval_seconds),
    )


def trip(pt, dt, plat, plon, dlat, dlon):
    return TripRecord(pt, dt, plat, plon, dlat, dlon)


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
        records = list(ingestion.read_trips(path, summary))
        assert len(records) == 2
        assert records[0].pickup_time == 10.0
        assert records[1].dropoff_time == 40.0

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
