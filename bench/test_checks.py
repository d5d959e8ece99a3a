"""Each benchmark check accepts the program's output and rejects a corrupted copy.

Run with ``PYTHONPATH=src python -m pytest bench/test_checks.py``. The
models and files here are small, so the module takes a few seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_UNITS  # noqa: E402

from mlpst import ingestion, mixer, training, tree  # noqa: E402
from mlpst.griddata import TemporalConfig  # noqa: E402
from mlpst.training import LossConfig  # noqa: E402

H, W, D = 4, 4, 2
TEMPORAL = TemporalConfig(trend=2, period=2, closeness=3, trend_interval=8, period_interval=4)
WARM = 16


@pytest.fixture(scope="module")
def model():
    cfg = mixer.ModelConfig(temporal=TEMPORAL, channels_spatial=3, channels_temporal=4, expansion=3, n_layers=2)
    params = workloads.nontrivial_params(cfg, H, W, D, [7, 5])
    values = inputs.periodic_series(7, 40, H, W, D)
    lo, hi = values.min(axis=(0, 1, 2)), values.max(axis=(0, 1, 2))
    return params, values, lo, hi


def test_predictions_accept_program_reject_perturbed_entry(model):
    params, values, lo, hi = model
    normed = reference.normalise(values, lo, hi)
    anchors = np.arange(WARM, 40)
    got = reference.denormalise(training.predict_batches(params, normed, anchors, TEMPORAL, 8), lo, hi)
    want = reference.denormalise(reference.forward(params, TEMPORAL, normed, anchors), lo, hi)
    assert checks.check_predictions("program", got, want) == []
    corrupted = got.copy()
    i = np.unravel_index(np.argmax(np.abs(want)), want.shape)
    corrupted[i] *= 1.0 + 2e-10
    assert checks.check_predictions("corrupted", corrupted, want)


def test_directional_derivative_rejects_scaled_gradient(model):
    params, values, lo, hi = model
    normed = reference.normalise(values, lo, hi)
    anchors = np.arange(WARM, WARM + 3)
    branch_maps = workloads._branch_maps(normed, anchors, TEMPORAL)
    fd, grads, direction = workloads.directional_derivative(
        params, branch_maps, normed[anchors], LossConfig(), [7, 31]
    )
    assert checks.check_directional_derivative("program", fd, workloads.inner_product(grads, direction)) == []
    scaled = tree.tree_map(lambda g: g * 1.001, grads)
    assert checks.check_directional_derivative("scaled", fd, workloads.inner_product(scaled, direction))


SMALL = inputs.TripsSpec(h=3, w=4, n_intervals=6)


def test_grid_rejects_trip_moved_to_neighbouring_cell(tmp_path):
    text, expected = inputs.trips_csv(3, 600, SMALL)
    path = tmp_path / "trips.csv"
    path.write_text(text)
    dataset, summary = ingestion.ingest_csv(path, workloads.grid_spec(SMALL))
    assert checks.check_grid("program", dataset.values, expected.grid) == []
    assert vars(summary) == {
        "total_rows": 600, "unparseable": expected.unparseable, "out_of_range": expected.out_of_range,
        "outflow_counted": expected.outflow_counted, "inflow_counted": expected.inflow_counted,
    }
    moved = dataset.values.copy()
    t, r, c, ch = np.argwhere(moved > 0)[0]
    moved[t, r, c, ch] -= 1.0
    moved[t, r, (c + 1) % SMALL.w, ch] += 1.0
    assert checks.check_grid("moved", moved, expected.grid)


def test_stgrid_bytes_reject_flipped_payload_byte(tmp_path):
    values = inputs.periodic_series(5, 6, H, W, D)
    path = tmp_path / "series.stgrid"
    box = (1.0, 2.0, 3.0, 4.0)
    ingestion.write_dataset(path, ingestion.GridDataset(h=H, w=W, d=D, interval_seconds=900, box=box, values=values))
    want = inputs.encode_stgrid(values, 900, box)
    blob = path.read_bytes()
    assert checks.check_bytes("program", blob, want) == []
    flipped = bytearray(blob)
    flipped[len(inputs.STGRID_MAGIC) + inputs.STGRID_HEADER.size + 17] ^= 0x01
    assert checks.check_bytes("flipped", bytes(flipped), want)


# A dozen trips on a 2x2 grid over lat/lon [0, 2] with three 60 s
# intervals from t=0, counted by hand (channel 0 inflow, 1 outflow).
HAND_TRIPS = """pickup_datetime,dropoff_datetime,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon
10,50,0.5,0.5,1.5,1.5
70,130,0.5,1.5,0.5,0.5
1970-01-01T00:00:20Z,1970-01-01T00:01:30Z,1.5,0.5,1.5,0.5
100,170,1.0,1.0,2.0,2.0
200,230,0.5,0.5,0.5,0.5
30,90,2.5,0.5,0.5,0.5
40,50,0.5,0.5,-0.1,0.5
abc,60,0.5,0.5,0.5,0.5
50,20,0.5,0.5,0.5,0.5
1970-01-01T00:02:00+00:00,1970-01-01T00:02:59,1.5,1.5,1.5,1.5
-10,10,0.5,0.5,0.5,0.5
5,15,0.5,nan,0.5,0.5
"""
# row 4 sits on the interior boundary (lower cell) and drops off on the box
# maximum (last cell); row 5 is after t_end at both ends; rows 8, 9 and 12
# are unparseable; rows 6, 7 and 11 count at one end only
HAND_COUNTS = {
    # (t, row, col, channel): trips
    (0, 0, 0, 1): 2, (0, 1, 0, 1): 1, (1, 0, 1, 1): 1, (1, 0, 0, 1): 1, (2, 1, 1, 1): 1,
    (0, 1, 1, 0): 1, (0, 0, 0, 0): 1, (1, 1, 0, 0): 1, (1, 0, 0, 0): 1, (2, 0, 0, 0): 1, (2, 1, 1, 0): 2,
}
HAND_TALLIES = {"total_rows": 12, "unparseable": 3, "out_of_range": 1, "outflow_counted": 6, "inflow_counted": 7}


def test_hand_counted_ingest_oracle(tmp_path):
    path = tmp_path / "trips.csv"
    path.write_text(HAND_TRIPS)
    spec = ingestion.GridSpec(lat_min=0.0, lat_max=2.0, lon_min=0.0, lon_max=2.0, h=2, w=2,
                              interval_seconds=60, t_start=0.0, t_end=180.0)
    dataset, summary = ingestion.ingest_csv(path, spec)
    want = np.zeros((3, 2, 2, 2))
    for index, n in HAND_COUNTS.items():
        want[index] = n
    assert checks.check_grid("hand", dataset.values, want) == []
    assert checks.check_tallies("hand", vars(summary), HAND_TALLIES) == []


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
