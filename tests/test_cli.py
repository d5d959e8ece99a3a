"""End-to-end tests of the command-line surface and its exit-code contract."""

import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from mlpst import ingestion, mixer, training
from mlpst.cli import main
from mlpst.errors import DataError
from mlpst.runconfig import RunConfig, parse_config_file


def run(argv):
    return main(argv)


@pytest.fixture
def synth_data(tmp_path):
    path = tmp_path / "periodic.stgrid"
    assert run([
        "synth", "--kind", "periodic", "--out", str(path),
        "--height", "4", "--width", "4", "--steps", "120",
        "--period", "12", "--seed", "5",
    ]) == 0
    return path


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# tiny desk-scale configuration\n"
        "patch = 2\n"
        "channels_spatial = 4\n"
        "channels_temporal = 4\n"
        "expansion = 4\n"
        "layers = 1\n"
        "trend = 0\n"
        "period = 2\n"
        "closeness = 4\n"
        "period_interval = 12\n"
        "closeness_interval = 1\n"
        "max_epochs = 12\n"
        "patience = 20\n"
        "batch_size = 16\n"
        "lr = 0.003\n"
        "seed = 1\n"
    )
    return path


class TestSynthAndIngest:
    def test_synth_writes_readable_dataset(self, synth_data):
        dataset = ingestion.read_dataset(synth_data)
        assert dataset.values.shape == (120, 4, 4, 2)

    def test_ingest_five_record_fixture(self, tmp_path, capsys):
        trips = tmp_path / "trips.csv"
        trips.write_text(
            "pickup_datetime,dropoff_datetime,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon\n"
            "0,50,0.25,0.25,0.75,0.75\n"
            "50,120,0.25,0.75,0.25,0.25\n"
            "110,130,0.75,0.25,0.75,0.75\n"
            "120,140,0.25,0.25,0.25,0.75\n"
            "150,260,0.75,0.75,0.25,0.25\n"
        )
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "lat_min": 0.0, "lat_max": 1.0, "lon_min": 0.0, "lon_max": 1.0,
            "h": 2, "w": 2, "interval_seconds": 100, "t_start": 0, "t_end": 200,
        }))
        out = tmp_path / "trips.stgrid"
        assert run(["ingest", "--trips", str(trips), "--spec", str(spec), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "skipped_out_of_range,0" in err

        dataset = ingestion.read_dataset(out)
        np.testing.assert_array_equal(
            dataset.values[0, :, :, 1], np.array([[1, 1], [0, 0]], dtype=float)
        )
        np.testing.assert_array_equal(
            dataset.values[1, :, :, 0], np.array([[1, 1], [0, 1]], dtype=float)
        )

    def test_empty_trips_csv_exits_2(self, tmp_path):
        trips = tmp_path / "trips.csv"
        trips.write_text(
            "pickup_datetime,dropoff_datetime,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon\n"
        )
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "lat_min": 0.0, "lat_max": 1.0, "lon_min": 0.0, "lon_max": 1.0,
            "h": 2, "w": 2, "interval_seconds": 100, "t_start": 0, "t_end": 200,
        }))
        assert run(["ingest", "--trips", str(trips), "--spec", str(spec),
                    "--out", str(tmp_path / "o.stgrid")]) == 2

    def test_bad_spec_json_exits_3_naming_field(self, tmp_path, capsys):
        trips = tmp_path / "trips.csv"
        trips.write_text(
            "pickup_datetime,dropoff_datetime,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon\n"
            "0,50,0.25,0.25,0.75,0.75\n"
        )
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"lat_min": 0.0}))
        assert run(["ingest", "--trips", str(trips), "--spec", str(spec),
                    "--out", str(tmp_path / "o.stgrid")]) == 3
        assert "lat_max" in capsys.readouterr().err


TRIPS_HEADER = "pickup_datetime,dropoff_datetime,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon\n"
UNIT_SPEC = {"lat_min": 0.0, "lat_max": 1.0, "lon_min": 0.0, "lon_max": 1.0,
             "h": 2, "w": 2, "interval_seconds": 100, "t_start": 0, "t_end": 200}


def ingest(tmp_path, trips: bytes, spec_fields=UNIT_SPEC):
    path = tmp_path / "trips.csv"
    path.write_bytes(trips)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_fields))
    return run(["ingest", "--trips", str(path), "--spec", str(spec), "--out", str(tmp_path / "o.stgrid")])


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("field", ["lat_min", "lat_max", "lon_min", "lon_max", "t_start", "t_end"])
def test_non_finite_spec_field_exits_3_naming_it(tmp_path, capsys, field, value):
    trips = (TRIPS_HEADER + "10,20,0.2,0.2,0.8,0.8\n").encode()
    assert ingest(tmp_path, trips, {**UNIT_SPEC, field: value}) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: spec field '{field}' must be finite, got {value}"]
    assert not (tmp_path / "o.stgrid").exists()


@pytest.mark.parametrize("fields, message", [
    # 582 TiB, beyond any x86-64 user address space: the allocation fails at once
    ({"interval_seconds": 1, "t_end": 1e13},
     "cannot allocate a grid of 10000000000000 x 2 x 2 x 2 values (6.4e+14 bytes)"),
    # more bytes than numpy can count
    ({"interval_seconds": 1, "t_end": 1e20},
     "cannot allocate a grid of 100000000000000000000 x 2 x 2 x 2 values (6.4e+21 bytes)"),
    # 5 intervals, but STGRID1 stores the interval as a u64
    ({"interval_seconds": 2**64, "t_end": 1e20},
     f"interval_seconds must be in [1, 2**64), got {2**64}"),
], ids=["too many bytes", "too many values", "interval past u64"])
def test_ingest_grid_it_cannot_hold_exits_3_with_one_line(tmp_path, capsys, fields, message):
    trips = (TRIPS_HEADER + "10,20,0.2,0.2,0.8,0.8\n").encode()
    assert ingest(tmp_path, trips, {**UNIT_SPEC, **fields}) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")
    assert not (tmp_path / "o.stgrid").exists()


@pytest.mark.parametrize("kind, steps, message", [
    # 2.56 PB, beyond any x86-64 user address space: the allocation fails at once
    ("constant", "10000000000000",
     "cannot allocate a grid of 10000000000000 x 4 x 4 x 2 values (2.56e+15 bytes)"),
    # more bytes than numpy can count
    ("periodic", "100000000000000000",
     "cannot allocate a grid of 100000000000000000 x 4 x 4 x 2 values (2.56e+19 bytes)"),
], ids=["too many bytes", "too many values"])
def test_synth_grid_it_cannot_hold_exits_3_with_one_line(tmp_path, capsys, kind, steps, message):
    out = tmp_path / "s.stgrid"
    assert run(["synth", "--kind", kind, "--out", str(out), "--height", "4", "--width", "4",
                "--steps", steps]) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("option, value, code", [
    ("--noise", "-1", 3),
    ("--noise", "nan", 3),
    ("--noise", "inf", 3),
    ("--interval", "0", 3),
    ("--interval", "-5", 3),
    ("--interval", str(2**64), 3),
    ("--noise", "0", 0),
    ("--interval", "1", 0),
    ("--interval", str(2**64 - 1), 0),
])
def test_synth_numeric_option_out_of_range_exits_3_naming_it(tmp_path, capsys, option, value, code):
    out = tmp_path / "s.stgrid"
    argv = ["synth", "--kind", "periodic", "--out", str(out), "--height", "2", "--width", "2",
            "--steps", "30", "--period", "12", option, value]
    assert run(argv) == code
    err = capsys.readouterr().err.splitlines()
    if code == 0:
        assert err == [] and out.exists()
    else:
        assert len(err) == 1 and err[0].startswith(f"error: {option[2:]} must be")
        assert not out.exists()


def malformed_file_argv(tmp_path, synth_data, command, path):
    out = tmp_path / "out"
    return {
        "ingest": ["ingest", "--trips", str(tmp_path / "trips.csv"), "--spec", str(path),
                   "--out", str(out)],
        "train": ["train", "--data", str(synth_data), "--config", str(path), "--out", str(out)],
        "inspect": ["inspect", "--config", str(path)],
        "evaluate": ["evaluate", "--data", str(synth_data), "--baseline", "persistence",
                     "--config", str(path), "--report", str(out)],
    }[command]


@pytest.mark.parametrize("command, content, message", [
    ("ingest", b"5", "spec JSON must be an object, got 5"),
    ("ingest", b"null", "spec JSON must be an object, got null"),
    ("ingest", b"[]", "spec JSON must be an object, got []"),
    ("ingest", b'{"lat_min": 0.\xff}', "not UTF-8 text (at byte 14)"),
    ("ingest", b"not JSON", "bad spec JSON: Expecting value: line 1 column 1 (char 0)"),
    ("train", b"patch = 2\n\xff\n", "not UTF-8 text (at byte 10)"),
    ("inspect", b"patch = 2\n\xff\n", "not UTF-8 text (at byte 10)"),
    ("evaluate", b"patch = 2\n\xff\n", "not UTF-8 text (at byte 10)"),
], ids=["spec 5", "spec null", "spec []", "spec 0xff", "spec not JSON", "train 0xff",
        "inspect 0xff", "evaluate 0xff"])
def test_malformed_spec_or_config_exits_3_with_one_line(
    tmp_path, synth_data, capsys, command, content, message
):
    (tmp_path / "trips.csv").write_text(TRIPS_HEADER + "10,20,0.2,0.2,0.8,0.8\n")
    path = tmp_path / "input.txt"
    path.write_bytes(content)
    assert run(malformed_file_argv(tmp_path, synth_data, command, path)) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {path}: {message}"]
    assert "epoch," not in captured.out
    assert not list(tmp_path.glob("out*"))


INGEST = ["ingest", "--trips", "{tmp}/trips.csv", "--spec", "{tmp}/spec.json", "--out", "{tmp}/out"]
SYNTH = ["synth", "--kind", "periodic", "--out", "{tmp}/out"]
TRAIN = ["train", "--data", "{data}", "--config", "{tmp}/run.cfg", "--out", "{tmp}/out"]
EVALUATE = ["evaluate", "--data", "{tmp}/absent.stgrid", "--report", "{tmp}/out"]  # a read exits 2


def spec(**fields):
    return {"spec.json": json.dumps({**UNIT_SPEC, **fields}).encode()}


# argv, the files it reads, exit code, the text its one stderr line holds
ERROR_PATHS = {
    "predict --at 0": (["predict", "--data", "{data}", "--checkpoint", "{tmp}/absent.ckpt",
                        "--at", "0", "--out", "{tmp}/out"], {}, 3, "--at must be in [1, 120], got 0"),
    "spec h not a number": (INGEST, spec(h="two"), 3, "spec JSON field 'h' is invalid"),
    "spec lat_max <= lat_min": (INGEST, spec(lat_max=0.0), 3, "lat_max > lat_min"),
    "spec h = 0": (INGEST, spec(h=0), 3, "h and w must be >= 1, got h=0"),
    "spec t_end <= t_start": (INGEST, spec(t_end=0), 3, "t_end > t_start"),
    "synth --period 0": (SYNTH + ["--period", "0"], {}, 3, "period must be >= 1, got 0"),
    "synth --height 0": (SYNTH + ["--height", "0"], {}, 3, "height, width, steps and channels"),
    "synth --kind trend --period": (
        ["synth", "--kind", "trend", "--out", "{tmp}/out", "--period", "-5"], {}, 3,
        "--period applies only to --kind periodic"),
    "STGRID1 cut in its header": (["predict", "--data", "{tmp}/cut.stgrid", "--checkpoint",
                                   "{tmp}/absent.ckpt", "--out", "{tmp}/out"],
                                  {"cut.stgrid": b"STGRID1" + bytes(13)}, 2, "(at byte 20)"),
    "config line without =": (TRAIN, {"run.cfg": b"patch = 2\nlayers\n"}, 3,
                              "config line 2 is not key=value: 'layers'"),
    "empty window": (TRAIN, {"run.cfg": b"trend = 0\nperiod = 0\ncloseness = 0\n"}, 3,
                     "trend + period + closeness"),
    # flags that would be ignored are refused before any file is read
    "evaluate --checkpoint --baseline": (
        EVALUATE + ["--checkpoint", "m.ckpt", "--baseline", "havg"], {}, 3,
        "argument --baseline: not allowed with argument --checkpoint"),
    "evaluate --checkpoint --config": (
        EVALUATE + ["--checkpoint", "m.ckpt", "--config", "run.cfg"], {}, 3,
        "--config applies only to --baseline"),
    "evaluate --checkpoint --period": (
        EVALUATE + ["--checkpoint", "m.ckpt", "--period", "5"], {}, 3,
        "--period applies only to --baseline havg"),
    "evaluate --baseline persistence --period": (
        EVALUATE + ["--baseline", "persistence", "--period", "5"], {}, 3,
        "--period applies only to --baseline havg"),
    "evaluate without a model": (
        EVALUATE, {}, 3, "one of the arguments --checkpoint --baseline is required"),
    "inspect --checkpoint --config": (
        ["inspect", "--checkpoint", "m.ckpt", "--config", "run.cfg"], {}, 3,
        "argument --config: not allowed with argument --checkpoint"),
    "inspect without a model": (
        ["inspect"], {}, 3, "one of the arguments --checkpoint --config is required"),
}


@pytest.mark.parametrize("argv, files, code, message", ERROR_PATHS.values(), ids=ERROR_PATHS.keys())
def test_error_path_exits_with_one_line_naming_it(tmp_path, synth_data, capsys, argv, files,
                                                  code, message):
    (tmp_path / "trips.csv").write_text(TRIPS_HEADER + "10,20,0.2,0.2,0.8,0.8\n")
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    capsys.readouterr()
    assert run([arg.format(tmp=tmp_path, data=synth_data) for arg in argv]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0], err
    assert not (tmp_path / "out").exists()


class TestIngestBadRows:
    def test_non_finite_times_are_tallied_unparseable(self, tmp_path, capsys):
        rows = "nan,20,0.2,0.2,0.8,0.8\n10,inf,0.2,0.2,0.8,0.8\n1e400,1e400,0.2,0.2,0.8,0.8\n" \
               "-inf,20,0.2,0.2,0.8,0.8\n10,20,0.2,0.2,0.8,0.8\n"
        assert ingest(tmp_path, (TRIPS_HEADER + rows).encode()) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["rows,5", "skipped_unparseable,4", "skipped_out_of_range,0",
                       "outflow_counted,1", "inflow_counted,1"]

    @pytest.mark.parametrize("first", ["10,20,0.2,0.2,0.8,0.8\n", '"10",20,0.2,0.2,0.8,0.8\n'],
                             ids=["split", "csv module"])
    def test_field_over_the_csv_limit_exits_2_with_one_line(self, tmp_path, capsys, first):
        import csv

        long_row = "10,20,0.2,0.2,0.8," + "1" * (csv.field_size_limit() + 1) + "\n"
        assert ingest(tmp_path, (TRIPS_HEADER + first + long_row).encode()) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "trips.csv: field larger than field limit" in err[0]

    def test_non_utf8_byte_exits_2_with_one_line(self, tmp_path, capsys):
        trips = TRIPS_HEADER.encode() + b"10,20,0.2,0.2,0.8,0.\xff\n"
        assert ingest(tmp_path, trips) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "trips.csv: not UTF-8 text" in err[0]


class TestTrain:
    def test_train_writes_checkpoint_and_logs(self, synth_data, tiny_config, tmp_path, capsys):
        out = tmp_path / "model.ckpt"
        log = tmp_path / "epochs.log"
        assert run(["train", "--data", str(synth_data), "--config", str(tiny_config),
                    "--out", str(out), "--log", str(log)]) == 0
        assert out.exists() and (tmp_path / "model.ckpt.best").exists()
        stdout = capsys.readouterr().out
        assert "best_val_mae," in stdout
        lines = log.read_text().splitlines()
        assert lines and all(line.startswith("epoch,") for line in lines)

    def test_log_equals_the_printed_epoch_lines(self, synth_data, tiny_config, tmp_path,
                                                 capsys):
        log = tmp_path / "epochs.log"
        assert run(["train", "--data", str(synth_data), "--config", str(tiny_config),
                    "--out", str(tmp_path / "m.ckpt"), "--log", str(log)]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("epoch,")]
        assert printed and log.read_bytes() == "".join(f"{line}\n" for line in printed).encode()

    def test_failed_run_keeps_the_old_log(self, synth_data, tiny_config, tmp_path):
        cfg = tmp_path / "huge_lr.cfg"
        cfg.write_text(tiny_config.read_text().replace("lr = 0.003", "lr = 1e300"))
        log = tmp_path / "epochs.log"
        old = b"epoch,1,train_loss,0.5,val_mae,0.25\nepoch,2,train_loss,0.4,val_mae,0.2\n"
        log.write_bytes(old)
        with np.errstate(all="ignore"):
            code = run(["train", "--data", str(synth_data), "--config", str(cfg),
                        "--out", str(tmp_path / "m.ckpt"), "--log", str(log)])
        assert code == 2
        assert log.read_bytes() == old
        assert not list(tmp_path.glob("*.tmp"))

    def test_window_constraint_violation_exits_3(self, synth_data, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("trend=2\nperiod=2\ncloseness=8\nwindow=10\n")
        assert run(["train", "--data", str(synth_data), "--config", str(cfg),
                    "--out", str(tmp_path / "m.ckpt")]) == 3
        assert "trend+period+closeness" in capsys.readouterr().err

    def test_same_seed_byte_identical_logs(self, synth_data, tiny_config, tmp_path):
        log1, log2 = tmp_path / "a.log", tmp_path / "b.log"
        for log in (log1, log2):
            assert run(["train", "--data", str(synth_data), "--config", str(tiny_config),
                        "--out", str(tmp_path / "m.ckpt"), "--log", str(log)]) == 0
        assert log1.read_bytes() == log2.read_bytes()

    def test_unknown_config_key_exits_3(self, synth_data, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rate=0.1\n")
        assert run(["train", "--data", str(synth_data), "--config", str(cfg),
                    "--out", str(tmp_path / "m.ckpt")]) == 3

    def test_repeated_config_key_exits_3(self, synth_data, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("layers=2\nseed=1\nlayers=3\n")
        assert run(["train", "--data", str(synth_data), "--config", str(cfg),
                    "--out", str(tmp_path / "m.ckpt")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: config key 'layers' is set twice (lines 1 and 3)"]
        assert not list(tmp_path.glob("m.ckpt*"))

    def test_missing_data_file_exits_2(self, tiny_config, tmp_path):
        assert run(["train", "--data", str(tmp_path / "nope.stgrid"),
                    "--config", str(tiny_config), "--out", str(tmp_path / "m.ckpt")]) == 2

    def test_constant_dataset_trains_to_tiny_loss(self, tmp_path, capsys):
        data = tmp_path / "const.stgrid"
        assert run(["synth", "--kind", "constant", "--out", str(data),
                    "--height", "4", "--width", "4", "--steps", "80"]) == 0
        cfg = tmp_path / "const.cfg"
        cfg.write_text(
            "patch = 2\nchannels_spatial = 4\nchannels_temporal = 4\n"
            "expansion = 4\nlayers = 1\ntrend = 0\nperiod = 2\ncloseness = 4\n"
            "period_interval = 24\ncloseness_interval = 1\n"
            "max_epochs = 50\npatience = 50\nbatch_size = 16\nseed = 0\n"
        )
        log = tmp_path / "epochs.log"
        assert run(["train", "--data", str(data), "--config", str(cfg),
                    "--out", str(tmp_path / "m.ckpt"), "--log", str(log)]) == 0
        losses = [float(line.split(",")[3]) for line in log.read_text().splitlines()]
        assert min(losses) < 1e-6


@pytest.fixture
def trained(synth_data, tiny_config, tmp_path):
    out = tmp_path / "model.ckpt"
    assert run(["train", "--data", str(synth_data), "--config", str(tiny_config),
                "--out", str(out)]) == 0
    return out


class TestEvaluatePredictInspect:
    def test_evaluate_prints_csv_and_table(self, synth_data, trained, tmp_path, capsys):
        report = tmp_path / "report.csv"
        assert run(["evaluate", "--data", str(synth_data), "--checkpoint", str(trained),
                    "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("model,dataset,mae,rmse,r2,params,train_s,infer_ms_per_batch")
        assert "channel_0" in out
        body = report.read_text().splitlines()
        assert len(body) == 2

    @pytest.mark.parametrize("source, train_s, table_train_s", [
        ("--checkpoint", "nan", "unknown"),  # a checkpoint records no training time
        ("--baseline", "0.000", "0.000"),     # a baseline trains nothing
    ])
    def test_evaluate_reports_train_s_by_source(self, synth_data, trained, capsys,
                                                source, train_s, table_train_s):
        value = str(trained) if source == "--checkpoint" else "persistence"
        assert run(["evaluate", "--data", str(synth_data), source, value]) == 0
        lines = capsys.readouterr().out.splitlines()
        header, row = lines[0].split(","), lines[1].split(",")
        assert row[header.index("train_s")] == train_s
        assert re.search(rf"^train_s\s+{re.escape(table_train_s)}$", "\n".join(lines), re.M)

    def test_failed_report_write_keeps_old_report(self, synth_data, tmp_path, monkeypatch):
        from mlpst import evaluation

        report = tmp_path / "report.csv"
        report.write_text("old report\n")
        csv_row = evaluation.EvalReport.csv_row
        failed = []

        def failing_csv_row(self):
            # fail while the new report's temporary file is open, after its header
            if list(tmp_path.glob("report.csv.*")):
                failed.append(True)
                raise OSError("No space left on device")
            return csv_row(self)

        monkeypatch.setattr(evaluation.EvalReport, "csv_row", failing_csv_row)
        assert run(["evaluate", "--data", str(synth_data), "--baseline", "persistence",
                    "--report", str(report)]) == 2
        assert failed
        assert report.read_text() == "old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [synth_data.name, "report.csv"]

    def test_evaluate_baseline_needs_no_checkpoint(self, synth_data, capsys):
        assert run(["evaluate", "--data", str(synth_data), "--baseline", "persistence"]) == 0
        assert "persistence," in capsys.readouterr().out

    def test_evaluate_on_train_split_has_positive_r2(self, synth_data, trained, capsys):
        assert run(["evaluate", "--data", str(synth_data), "--checkpoint", str(trained),
                    "--split", "train"]) == 0
        out = capsys.readouterr().out
        r2_text = out.splitlines()[1].split(",")[4]
        assert float(r2_text) > 0.0

    def test_evaluate_model_shape_mismatch_exits_3(self, trained, tmp_path):
        other = tmp_path / "other.stgrid"
        assert run(["synth", "--kind", "periodic", "--out", str(other),
                    "--height", "6", "--width", "6", "--steps", "120",
                    "--period", "12", "--seed", "1"]) == 0
        assert run(["evaluate", "--data", str(other), "--checkpoint", str(trained)]) == 3

    def test_predict_writes_single_map(self, synth_data, trained, tmp_path):
        out = tmp_path / "pred.stgrid"
        assert run(["predict", "--data", str(synth_data), "--checkpoint", str(trained),
                    "--out", str(out)]) == 0
        pred = ingestion.read_dataset(out)
        assert pred.values.shape == (1, 4, 4, 2)

    def test_predict_at_specific_anchor(self, synth_data, trained, tmp_path):
        out = tmp_path / "pred.stgrid"
        assert run(["predict", "--data", str(synth_data), "--checkpoint", str(trained),
                    "--at", "60", "--out", str(out)]) == 0
        assert ingestion.read_dataset(out).values.shape == (1, 4, 4, 2)

    def test_predict_matches_whole_series_bytes(self, synth_data, trained, tmp_path):
        from mlpst.checkpoint import load_checkpoint
        from mlpst.griddata import apply_norm, invert_norm

        out = tmp_path / "pred.stgrid"
        assert run(["predict", "--data", str(synth_data), "--checkpoint", str(trained),
                    "--at", "100", "--out", str(out)]) == 0
        # the whole series before the anchor, normalised and forwarded
        dataset = ingestion.read_dataset(synth_data)
        ckpt = load_checkpoint(trained)
        history = apply_norm(dataset.values[:100], ckpt.stats)
        pred, _ = mixer.model_forward(history, ckpt.params)
        want = tmp_path / "want.stgrid"
        ingestion.write_dataset(want, ingestion.GridDataset(
            h=4, w=4, d=2, interval_seconds=dataset.interval_seconds, box=dataset.box,
            values=invert_norm(pred, ckpt.stats)[np.newaxis],
        ))
        assert out.read_bytes() == want.read_bytes()

    def test_predict_insufficient_history_exits_2(self, synth_data, trained, tmp_path, capsys):
        assert run(["predict", "--data", str(synth_data), "--checkpoint", str(trained),
                    "--at", "10", "--out", str(tmp_path / "pred.stgrid")]) == 2
        assert capsys.readouterr().err == (
            "error: insufficient history: 10 steps available but the window reaches "
            "back to index -14 (needs at least 24 steps)\n"
        )

    def test_inspect_checkpoint_matches_config(self, trained, tiny_config, tmp_path, capsys):
        assert run(["inspect", "--checkpoint", str(trained)]) == 0
        from_ckpt = capsys.readouterr().out
        assert from_ckpt.strip().splitlines()[-1].startswith("total,")

    def test_inspect_sharing_strictly_smaller(self, tmp_path, capsys):
        base = (
            "patch = 2\nchannels_spatial = 4\nchannels_temporal = 4\n"
            "expansion = 4\nlayers = 2\ntrend = 0\nperiod = 2\ncloseness = 4\n"
            "period_interval = 12\ncloseness_interval = 1\nh = 4\nw = 4\nd = 2\n"
        )
        shared_cfg = tmp_path / "shared.cfg"
        shared_cfg.write_text(base + "share_layers = true\n")
        unshared_cfg = tmp_path / "unshared.cfg"
        unshared_cfg.write_text(base + "share_layers = false\n")

        def total(cfg):
            assert run(["inspect", "--config", str(cfg)]) == 0
            out = capsys.readouterr().out
            return int(out.strip().splitlines()[-1].split(",")[1])

        assert total(shared_cfg) < total(unshared_cfg)

    def test_inspect_zero_layers_only_fc(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(
            "patch = 2\nchannels_spatial = 4\nlayers = 0\ntrend = 0\nperiod = 0\n"
            "closeness = 4\ncloseness_interval = 1\nh = 4\nw = 4\nd = 2\n"
        )
        assert run(["inspect", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        # per-patch FC: (2*2*2) x 4 weights + 4 biases = 36; no spatial_mixer line
        assert "per_patch_fc,36" in out
        assert "spatial_mixer" not in out

    def test_usage_error_exits_3(self):
        assert run(["evaluate"]) == 3

    @pytest.mark.parametrize("period", ["0", "-3"])
    def test_havg_period_below_one_exits_3_before_reading_data(self, tmp_path, capsys, period):
        missing = tmp_path / "absent.stgrid"  # a read would exit 2
        assert run(["evaluate", "--data", str(missing), "--baseline", "havg",
                    "--period", period]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--period" in err[0]

    def test_havg_period_longer_than_history_exits_2(self, synth_data, tiny_config, capsys):
        assert run(["evaluate", "--data", str(synth_data), "--baseline", "havg",
                    "--period", "110", "--config", str(tiny_config)]) == 2
        assert "period" in capsys.readouterr().err

    @pytest.mark.parametrize("with_config", [False, True], ids=["own-warm-up", "config-split"])
    def test_havg_period_longer_than_the_series_exits_2_naming_it(
        self, synth_data, tiny_config, capsys, with_config
    ):
        # the 120-step series has no anchor with 500 maps before it; under the
        # config, the test split starts at step 100
        extra = ["--period", "110", "--config", str(tiny_config)] if with_config else ["--period", "500"]
        assert run(["evaluate", "--data", str(synth_data), "--baseline", "havg", *extra]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--period" in err[0]


def test_predict_channel_rows_name_the_data_channel(synth_data, tiny_config, tmp_path, capsys):
    from mlpst.checkpoint import load_checkpoint
    from mlpst.griddata import NormStats, apply_norm, invert_norm

    cfg = tmp_path / "channel1.cfg"
    cfg.write_text(tiny_config.read_text() + "predict_channel = 1\n")
    ckpt_path = tmp_path / "model.ckpt"
    assert run(["train", "--data", str(synth_data), "--config", str(cfg),
                "--out", str(ckpt_path)]) == 0
    capsys.readouterr()
    assert run(["evaluate", "--data", str(synth_data), "--checkpoint", str(ckpt_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out if line.startswith("channel_")] == ["channel_1"]

    ckpt = load_checkpoint(ckpt_path)
    maps = ingestion.read_dataset(synth_data).values
    lo, hi = ckpt.stats.lo[1:], ckpt.stats.hi[1:]
    assert not (np.array_equal(lo, ckpt.stats.lo[:1]) and np.array_equal(hi, ckpt.stats.hi[:1]))
    anchors = training.split_anchors(len(maps), ckpt.temporal, ckpt.config.split,
                                     ckpt.config.min_history).test
    preds = training.predict_batches(ckpt.params, apply_norm(maps, ckpt.stats), anchors,
                                     ckpt.temporal, ckpt.config.batch_size)
    want_mae = np.abs(invert_norm(preds, NormStats(lo, hi)) - maps[anchors][..., 1:]).mean()
    assert float(out[1].split(",")[2]) == want_mae

    pred_path = tmp_path / "pred.stgrid"
    assert run(["predict", "--data", str(synth_data), "--checkpoint", str(ckpt_path),
                "--at", "100", "--out", str(pred_path)]) == 0
    pred = ingestion.read_dataset(pred_path)
    assert pred.d == 1
    want, _ = mixer.model_forward(apply_norm(maps[:100], ckpt.stats), ckpt.params)
    np.testing.assert_array_equal(pred.values[0], invert_norm(want, NormStats(lo, hi)))


def write_with_value(src, dst, step, value):
    """Write ``src``'s dataset to ``dst`` with one entry of map ``step`` set to ``value``."""
    dataset = ingestion.read_dataset(src)
    values = dataset.values.copy()
    values[step, 1, 2, 0] = value
    ingestion.write_dataset(dst, ingestion.GridDataset(
        h=dataset.h, w=dataset.w, d=dataset.d, interval_seconds=dataset.interval_seconds,
        box=dataset.box, values=values,
    ))


class TestPredictReadsItsWindow:
    # tiny_config's window reaches 24 steps back, so --at 100 reads maps 76..99

    def predict(self, data, trained, out):
        return run(["predict", "--data", str(data), "--checkpoint", str(trained),
                    "--at", "100", "--out", str(out)])

    @pytest.mark.parametrize("step", [0, 75, 100, 119])
    def test_non_finite_outside_window_leaves_output_bytes_unchanged(
        self, synth_data, trained, tmp_path, step
    ):
        bad = tmp_path / "bad.stgrid"
        write_with_value(synth_data, bad, step, np.nan)
        assert self.predict(synth_data, trained, tmp_path / "want.stgrid") == 0
        assert self.predict(bad, trained, tmp_path / "got.stgrid") == 0
        assert (tmp_path / "got.stgrid").read_bytes() == (tmp_path / "want.stgrid").read_bytes()

    @pytest.mark.parametrize("step, value", [(76, np.nan), (90, np.inf), (99, -np.inf)])
    def test_non_finite_inside_window_names_its_time_step(
        self, synth_data, trained, tmp_path, capsys, step, value
    ):
        bad = tmp_path / "bad.stgrid"
        write_with_value(synth_data, bad, step, value)
        out = tmp_path / "pred.stgrid"
        capsys.readouterr()
        assert self.predict(bad, trained, out) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: non-finite value {value} at time step {step}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("extra", [-8, 8])
    def test_payload_length_mismatch_exits_2_naming_offset(
        self, synth_data, trained, tmp_path, capsys, extra
    ):
        blob = synth_data.read_bytes()
        bad = tmp_path / "bad.stgrid"
        bad.write_bytes(blob[:extra] if extra < 0 else blob + b"\x00" * extra)
        capsys.readouterr()
        assert self.predict(bad, trained, tmp_path / "pred.stgrid") == 2
        expected = 120 * 4 * 4 * 2 * 8
        assert capsys.readouterr().err == (
            f"error: {bad}: payload length mismatch: expected {expected} bytes for 120x4x4x2 "
            f"values, got {expected + extra} (at byte 63)\n"
        )


def test_predict_error_names_the_bad_input(synth_data, trained, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(20))
    out = tmp_path / "pred.stgrid"
    for inputs in (["--data", str(bad), "--checkpoint", str(trained)],
                   ["--data", str(synth_data), "--checkpoint", str(bad)]):
        capsys.readouterr()
        assert run(["predict", *inputs, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err
    assert not out.exists()


class TestNonFinite:
    # synth_data under tiny_config: anchors 24..90 train, 91..99 validate
    @pytest.mark.parametrize("step, value", [
        (30, np.nan),
        (50, np.inf),
        (70, -np.inf),
        (95, np.nan),  # in the validation span only
    ])
    def test_train_rejects_non_finite_data(self, synth_data, tiny_config, tmp_path, capsys,
                                           step, value):
        dataset = ingestion.read_dataset(synth_data)
        values = dataset.values.copy()
        values[step, 2, 1, 0] = value
        bad = tmp_path / "bad.stgrid"
        ingestion.write_dataset(bad, ingestion.GridDataset(
            h=4, w=4, d=2, interval_seconds=dataset.interval_seconds, box=dataset.box,
            values=values,
        ))
        out = tmp_path / "m.ckpt"
        assert run(["train", "--data", str(bad), "--config", str(tiny_config),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: non-finite value {value} at time step {step}\n"
        assert not out.exists()

        cfg = parse_config_file(tiny_config)
        with pytest.raises(DataError, match=f"^non-finite value {value} at time step {step}$"):
            training.train(values, cfg.model_config(), cfg.train_config(), cfg.loss_config())

    def test_diverged_training_exits_2(self, synth_data, tiny_config, tmp_path, capsys):
        cfg = tmp_path / "huge_lr.cfg"
        cfg.write_text(tiny_config.read_text().replace("lr = 0.003", "lr = 1e300"))
        out = tmp_path / "m.ckpt"
        # the overflow on the way to the non-finite loss must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["train", "--data", str(synth_data), "--config", str(cfg),
                        "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: training diverged at epoch 1:")
        assert not out.exists()


# invalid values of every config key; a key without a row fails its test
BAD_VALUES = {
    "h": ["0", "-1"],
    "w": ["0"],
    "d": ["0"],
    "window": ["0", "-1"],
    "patch": ["0", "-2"],
    "channels_spatial": ["0"],
    "channels_temporal": ["0"],
    "expansion": ["0"],
    "layers": ["-1"],
    "variant": ["cnn", ""],
    "share_layers": ["maybe"],
    "share_branches": ["2"],
    "predict_channel": ["-1"],
    "trend": ["-1", "1"],
    "period": ["-2", "1"],
    "closeness": ["-1"],
    "trend_interval": ["0"],
    "period_interval": ["0", "-24"],
    "closeness_interval": ["0"],
    "block_mode": ["maybe"],
    "enforce_interval_order": [""],
    "q": ["0", "3"],
    "combine_loss": ["maybe"],
    "batch_size": ["0", "-1"],
    "max_epochs": ["0"],
    "patience": ["0"],
    "split": ["0.7,0.1,nan", "0.7,0.1,inf", "nan,nan,nan", "-0.1,0.3,0.8",
              "0.5,0.1,0.2", "1.0,0.0,0.0", "0.7,0.1"],
    "seed": ["-1", "nan"],
    "lr": ["nan", "inf", "-inf", "0", "-0.001"],
    "min_history": ["-5", "inf"],
}


class TestConfigRules:
    """A key's default passes; each bad value exits 3 with one stderr line naming the key,
    and writes nothing."""

    @staticmethod
    def base_config(tmp_path, key=None, value=None):
        """A small run configuration with ``key`` set to ``value``, each key once."""
        path = tmp_path / "run.cfg"
        keys = {"patch": "2", "channels_spatial": "4", "channels_temporal": "4", "expansion": "2",
                "layers": "1", "trend": "0", "period": "2", "closeness": "2",
                "period_interval": "12", "max_epochs": "2", "batch_size": "16", "lr": "0.003"}
        if key is not None:
            keys[key] = value
        path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        return path

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)])
    def test_bad_value_exits_3_naming_the_key(self, synth_data, tmp_path, capsys, key):
        assert BAD_VALUES[key]
        defaults = dict(line.split("=", 1) for line in RunConfig().to_text().splitlines())
        assert run(["inspect", "--config", str(self.base_config(tmp_path, key, defaults[key]))]) == 0
        capsys.readouterr()
        for value in BAD_VALUES[key]:
            cfg = self.base_config(tmp_path, key, value)
            out = tmp_path / "m.ckpt"
            for argv in (["train", "--data", str(synth_data), "--config", str(cfg),
                          "--out", str(out)],
                         ["inspect", "--config", str(cfg)]):
                code = run(argv)
                captured = capsys.readouterr()
                err = captured.err.splitlines()
                assert (code, len(err)) == (3, 1), (argv[0], value, captured.err)
                assert re.search(rf"\b{key}\b", err[0]), (argv[0], value, err[0])
                assert captured.out == ""
            assert list(tmp_path.glob("m.ckpt*")) == []

    def test_base_config_trains(self, synth_data, tmp_path, capsys):
        out = tmp_path / "m.ckpt"
        assert run(["train", "--data", str(synth_data), "--config",
                    str(self.base_config(tmp_path)), "--out", str(out)]) == 0
        assert capsys.readouterr().err == "" and out.exists()


class TestThreadCap:
    # the cap is applied at import time, so each test runs a fresh process
    @staticmethod
    def child(args, **env_vars):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import mlpst

        # inherit the parent's environment so the child imports the same
        # mlpst (installed or not), minus the BLAS variables the cap sets
        env = {
            k: v for k, v in os.environ.items()
            if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                         "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
        }
        env.update(env_vars)
        package_root = str(Path(mlpst.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)

    def test_mlpst_threads_env_smoke(self, tmp_path):
        out = tmp_path / "d.stgrid"
        proc = self.child(
            ["-m", "mlpst.cli", "synth", "--kind", "constant",
             "--out", str(out), "--height", "4", "--width", "4", "--steps", "10"],
            MLPST_THREADS="1",
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", "2 threads"])
    def test_bad_value_exits_3_and_sets_nothing(self, tmp_path, value):
        out = tmp_path / "d.stgrid"
        proc = self.child(
            ["-c", "import os, sys, mlpst.cli; print(os.environ['OPENBLAS_NUM_THREADS']); "
                   "sys.exit(mlpst.cli.main(sys.argv[1:]))",
             "synth", "--kind", "constant", "--out", str(out),
             "--height", "4", "--width", "4", "--steps", "10"],
            OPENBLAS_NUM_THREADS="4", MLPST_THREADS=value,
        )
        assert proc.returncode == 3
        assert proc.stdout.strip() == "4"
        err = proc.stderr.splitlines()
        assert len(err) == 1 and "MLPST_THREADS" in err[0]
        assert not out.exists()

    def test_cap_overrides_a_preset_blas_variable(self):
        proc = self.child(
            ["-c", "import os, mlpst.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            OPENBLAS_NUM_THREADS="4", MLPST_THREADS="1",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"
