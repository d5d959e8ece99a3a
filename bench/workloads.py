"""The four benchmark workloads.

A workload makes its inputs from the seed (``generate``, untimed), sets the
program up (``setup``, timed and repeated), runs whole rounds of the same
operations (``run_round``) and finally checks what the program produced
(``check``). Each round returns the operations it attempted and how many
raised; the outputs of those that did not raise are checked.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import inputs
import reference
from tracer import EXTRA, rebind

from mlpst import checkpoint, cli, evaluation, ingestion, mixer, training, tree
from mlpst.griddata import NormStats
from mlpst.runconfig import RunConfig

WARM_UP = 336  # required history of the default window: 2 trend steps at interval 168

# end-to-end metric -> unit; every workload reports all four (README: "Metrics")
END_TO_END = {
    "setup_s": "s",
    "throughput_items_per_s": "items/s",
    "call_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dir = workdir
        self.problems: list[str] = []
        self.throughput: list[float] = []  # items per second, one per timed call
        self.latency_ms: list[float] = []  # one per timed user-facing call

    def generate(self) -> None: ...

    def setup(self) -> None: ...

    def run_round(self, tracer) -> tuple[int, int]: ...

    def check(self) -> None: ...


def attempt(fn, *args, **kwargs):
    """Call into the program; a raised error makes the operation a failed one."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # noqa: BLE001 - any error fails the operation, reported below
        traceback.print_exc(file=sys.stderr)
        return None


def _branch_maps(normed: np.ndarray, anchors, temporal) -> tuple[np.ndarray, ...]:
    """Branch stacks ``(B, len, H, W, d)`` assembled with the reference slicing."""
    return tuple(
        np.stack([normed[reference.branch_frames(int(a), length, interval)] for a in anchors])
        for length, interval in reference.branch_specs(temporal)
    )


def directional_derivative(params, branch_maps, targets, loss_cfg, seed, step=1e-4):
    """Central difference of the batch loss along a seeded unit direction.

    Returns ``(difference, gradient tree from batch_backward, direction tree)``.
    """
    rng = np.random.default_rng(seed)
    direction = tree.tree_map(lambda p: rng.standard_normal(p.shape), params)
    norm = math.sqrt(sum(float((v * v).sum()) for _, v in tree.unique_leaves(direction)))
    direction = tree.tree_map(lambda v: v / norm, direction)

    def batch_loss(h: float) -> float:
        moved = tree.tree_map(lambda p, v: p + h * v, params, direction)
        pred, _ = mixer.batch_forward(branch_maps, moved)
        return training.loss(pred, targets, loss_cfg)[0]

    pred, cache = mixer.batch_forward(branch_maps, params)
    _, grad_pred = training.loss(pred, targets, loss_cfg)
    grads = mixer.batch_backward(cache, grad_pred, params)
    return (batch_loss(step) - batch_loss(-step)) / (2 * step), grads, direction


def inner_product(a, b) -> float:
    """Sum over the unique leaves of two congruent parameter trees."""
    return sum(float((x * y).sum()) for (_, x), (_, y) in zip(tree.unique_leaves(a), tree.unique_leaves(b)))


def nontrivial_params(model_cfg, h: int, w: int, d: int, seed) -> object:
    """Seeded parameters with every leaf moved off its initial value.

    A fresh model has zero mixer outputs and unit gains, so its mixers are
    identities; these parameters make every layer change the prediction.
    """
    params = mixer.build_params(model_cfg, h, w, d, seed=seed)
    rng = np.random.default_rng(seed)
    for path, arr in tree.unique_leaves(params):
        leaf = path.rsplit(".", 1)[-1]
        if leaf == "w_out" and path != "w_out":
            arr[...] = rng.uniform(-0.5, 0.5, arr.shape) / math.sqrt(arr.shape[0])
        elif leaf == "gamma" or path in ("w_trend", "w_period", "w_closeness"):
            arr[...] = 1.0 + 0.1 * rng.standard_normal(arr.shape)
        elif leaf in ("beta", "b_in", "b_out", "fc_b"):
            arr[...] = 0.05 * rng.standard_normal(arr.shape)
    return params


# ---------------------------------------------------------------------------
# training


class Train(Workload):
    """``training.train`` on a periodic series, checkpoint path set as ``mlpst train`` sets it.

    The series holds ``train_anchors / 0.7`` usable anchors after the warm-up,
    so the chronological split gives exactly ``train_anchors`` training
    windows. The run configuration is fixed (model seed 0); the seed only
    changes the data, so every seed does the same arithmetic.
    """

    def __init__(self, seed, workdir, h, w, batch, train_anchors, epochs, fd_windows):
        super().__init__(seed, workdir)
        self.h, self.w, self.batch = h, w, batch
        self.epochs = epochs
        self.fd_windows = fd_windows
        self.n_usable = math.ceil(train_anchors / 0.7)
        self.data_path = self.dir / "series.stgrid"
        self.ckpt_path = self.dir / "model.ckpt"
        self.first_log: list[str] | None = None
        self.result = None

    def generate(self) -> None:
        self.values = inputs.periodic_series(self.seed, WARM_UP + self.n_usable, self.h, self.w)
        self.data_path.write_bytes(inputs.encode_stgrid(self.values, 3600, inputs.UNIT_BOX))

    def setup(self) -> None:
        dataset = ingestion.read_dataset(self.data_path)
        cfg = RunConfig(batch_size=self.batch, max_epochs=self.epochs, patience=self.epochs)
        cfg = cfg.resolve_grid(dataset.h, dataset.w, dataset.d)
        cfg.validate()
        self.cfg = cfg
        self.maps = dataset.values
        self.model_cfg, self.train_cfg, self.loss_cfg = cfg.model_config(), cfg.train_config(), cfg.loss_config()
        params = mixer.build_params(self.model_cfg, dataset.h, dataset.w, dataset.d, seed=[cfg.seed, 0])
        anchor = np.array([WARM_UP])
        branch_maps = training.gather_windows(self.maps, anchor, self.model_cfg.temporal)
        pred, cache = mixer.batch_forward(branch_maps, params)
        _, grad = training.loss(pred, self.maps[anchor], self.loss_cfg)
        mixer.batch_backward(cache, grad, params)

    def run_round(self, tracer) -> tuple[int, int]:
        self.result = None  # each call starts with only the inputs alive
        t0 = time.perf_counter()
        result = attempt(
            training.train, self.maps, self.model_cfg, self.train_cfg, self.loss_cfg,
            checkpoint_path=str(self.ckpt_path), config_text=self.cfg.to_text(),
        )
        dt = time.perf_counter() - t0
        if result is None:
            return 1, 1
        self.latency_ms.append(dt * 1e3)
        self.throughput.append(result.anchors.train.size * len(result.history) / dt)
        self.problems += checks.check_finite_log(self.name, result.history, self.epochs)
        if self.first_log is None:
            self.first_log = result.log_lines
        elif result.log_lines != self.first_log:
            self.problems.append(f"{self.name}: epoch log differs between identical rounds")
        self.result = result
        return 1, 0

    def check(self) -> None:
        result = self.result
        if result is None:
            return
        temporal = self.model_cfg.temporal
        lo, hi = result.stats.lo, result.stats.hi
        normed = reference.normalise(self.maps, lo, hi)

        # central difference of the batch loss against the backward pass
        anchors = result.anchors.train[: self.fd_windows]
        fd, grads, direction = directional_derivative(
            result.params, _branch_maps(normed, anchors, temporal), normed[anchors],
            self.loss_cfg, [self.seed, 31],
        )
        self.problems += checks.check_directional_derivative(
            f"{self.name} gradient", fd, inner_product(grads, direction)
        )

        # the written checkpoint reproduces the in-memory best parameters bitwise
        loaded = checkpoint.load_checkpoint(self.ckpt_path)
        val_maps = _branch_maps(normed, result.anchors.val[:2], temporal)
        want, _ = mixer.batch_forward(val_maps, result.params)
        got, _ = mixer.batch_forward(val_maps, loaded.params)
        if not np.array_equal(got, want):
            self.problems.append(f"{self.name}: reloaded checkpoint predicts differently")
        if not (np.array_equal(loaded.stats.lo, lo) and np.array_equal(loaded.stats.hi, hi)):
            self.problems.append(f"{self.name}: reloaded checkpoint changed the normalisation stats")


# ---------------------------------------------------------------------------
# forecasting


class Forecast(Workload):
    """``evaluation.evaluate_model`` over consecutive anchors, then ``mlpst predict`` calls.

    The checkpoint holds seeded ``nontrivial_params``.
    """

    H = W = 32
    STEPS = 61 * 24        # two months of hourly maps
    EVAL_WINDOWS = 32
    EVAL_BATCH = 16
    PREDICTS = 8           # predict calls per round, one per anchor
    SAMPLE = 3             # evaluation anchors checked against the reference

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.data_path = self.dir / "series.stgrid"
        self.ckpt_path = self.dir / "model.ckpt"
        self.outputs: list[tuple[int, bytes]] = []
        self.eval_preds = None
        self.eval_mae: list[float] = []

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 41])
        self.values = inputs.periodic_series(self.seed, self.STEPS, self.H, self.W)
        self.data_path.write_bytes(inputs.encode_stgrid(self.values, 3600, inputs.UNIT_BOX))
        cfg = RunConfig(batch_size=self.EVAL_BATCH)
        self.temporal = cfg.temporal_config()
        params = nontrivial_params(cfg.model_config(), self.H, self.W, 2, [self.seed, 5])
        self.params = params
        self.lo = self.values.min(axis=(0, 1, 2))
        self.hi = self.values.max(axis=(0, 1, 2))
        stats = NormStats(lo=self.lo, hi=self.hi)
        checkpoint.save_checkpoint(self.ckpt_path, params, self.temporal, cfg.to_text(), stats)
        start = int(rng.integers(WARM_UP, self.STEPS - self.EVAL_WINDOWS))
        self.eval_anchors = np.arange(start, start + self.EVAL_WINDOWS)
        # predict anchors sit in the last tenth of the series, so every call
        # reads and normalises about the same number of maps
        self.predict_anchors = rng.integers(self.STEPS - self.STEPS // 10, self.STEPS + 1, self.PREDICTS)
        self.sample = rng.choice(self.eval_anchors, self.SAMPLE, replace=False)

    def setup(self) -> None:
        ckpt = checkpoint.load_checkpoint(self.ckpt_path)
        dataset = ingestion.read_dataset(self.data_path)
        evaluation.evaluate_model(
            ckpt.params, ckpt.temporal, dataset.values, self.eval_anchors[:1], ckpt.stats,
            batch_size=self.EVAL_BATCH,
        )
        self.ckpt, self.maps = ckpt, dataset.values

    def run_round(self, tracer) -> tuple[int, int]:
        attempted, failed = 1, 0
        captured = []

        def capture(original):
            def wrapper(*args, **kwargs):
                captured.append(original(*args, **kwargs))
                return captured[-1]
            return wrapper

        # keeps the normalised predictions evaluate_model makes, for the checks
        with rebind(training.predict_batches, capture):
            t0 = time.perf_counter()
            report = attempt(
                evaluation.evaluate_model, self.ckpt.params, self.ckpt.temporal, self.maps,
                self.eval_anchors, self.ckpt.stats, batch_size=self.EVAL_BATCH,
            )
            dt = time.perf_counter() - t0
        if report is None:
            failed += 1
        else:
            self.throughput.append(self.EVAL_WINDOWS / dt)
            self.eval_mae.append(report.mae)
            if self.eval_preds is None:
                self.eval_preds = captured[-1]
        for i, anchor in enumerate(self.predict_anchors):
            out = self.dir / f"predict-{i}.stgrid"
            argv = ["predict", "--data", str(self.data_path), "--checkpoint", str(self.ckpt_path),
                    "--at", str(anchor), "--out", str(out)]
            attempted += 1
            t0 = time.perf_counter()
            code = cli.main(argv)  # prints its own error line when it fails
            dt = time.perf_counter() - t0
            if code != 0:
                failed += 1
                continue
            self.latency_ms.append(dt * 1e3)
            self.outputs.append((int(anchor), out.read_bytes()))
        return attempted, failed

    def check(self) -> None:
        anchors = sorted({int(a) for a in self.sample} | {a for a, _ in self.outputs})
        normed = reference.normalise(self.values, self.lo, self.hi)
        ref_norm = reference.forward(self.params, self.temporal, normed, anchors)
        ref = dict(zip(anchors, reference.denormalise(ref_norm, self.lo, self.hi)))
        if self.eval_preds is not None:
            preds = reference.denormalise(self.eval_preds, self.lo, self.hi)
            for a in self.sample:
                row = int(np.flatnonzero(self.eval_anchors == a)[0])
                self.problems += checks.check_predictions(f"evaluate anchor {a}", preds[row], ref[int(a)])
            mae = float(np.abs(preds - self.values[self.eval_anchors]).ravel().mean())
            for reported in self.eval_mae:
                if not abs(reported - mae) <= 1e-12 * mae:
                    self.problems.append(f"evaluate reported MAE {reported!r}, predictions give {mae!r}")
        for anchor, blob in self.outputs:
            want = inputs.encode_stgrid(ref[anchor][np.newaxis], 3600, inputs.UNIT_BOX)
            header = len(inputs.STGRID_MAGIC) + inputs.STGRID_HEADER.size
            self.problems += checks.check_bytes(f"predict --at {anchor} header", blob[:header], want[:header])
            got = np.frombuffer(blob, dtype="<f8", offset=header).reshape(ref[anchor].shape)
            self.problems += checks.check_predictions(f"predict --at {anchor}", got, ref[anchor])


# ---------------------------------------------------------------------------
# ingestion


def grid_spec(t: inputs.TripsSpec) -> ingestion.GridSpec:
    return ingestion.GridSpec(
        lat_min=t.lat_min, lat_max=t.lat_max, lon_min=t.lon_min, lon_max=t.lon_max,
        h=t.h, w=t.w, interval_seconds=t.interval_seconds,
        t_start=float(t.t_start), t_end=float(t.t_end),
    )


class Ingest(Workload):
    """``ingest_csv`` then ``write_dataset`` on a generated trips CSV, then ``read_dataset``.

    The traced run drains ``read_trips`` into a list and calls ``aggregate``
    on it, so parsing and aggregation get separate spans.
    """

    ROWS = 100_000
    WARM_ROWS = 2_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.csv_path = self.dir / "trips.csv"
        self.warm_path = self.dir / "warm.csv"
        self.out_path = self.dir / "trips.stgrid"

    def generate(self) -> None:
        self.tspec = inputs.TripsSpec()
        text, self.expected = inputs.trips_csv(self.seed, self.ROWS, self.tspec)
        self.csv_path.write_text(text)
        self.warm_path.write_text(inputs.trips_csv(self.seed + 1, self.WARM_ROWS, self.tspec)[0])
        t = self.tspec
        self.box = (t.lat_min, t.lat_max, t.lon_min, t.lon_max)
        self.want_bytes = inputs.encode_stgrid(self.expected.grid, t.interval_seconds, self.box)

    def setup(self) -> None:
        self.gspec = grid_spec(self.tspec)
        self.gspec.validate()
        ingestion.ingest_csv(self.warm_path, self.gspec)

    def _ingest(self, tracer):
        if tracer is None:
            dataset, summary = ingestion.ingest_csv(self.csv_path, self.gspec)
        else:
            summary = ingestion.IngestSummary()
            with tracer.span("ingestion.read_trips") as rec:
                records = list(ingestion.read_trips(self.csv_path, summary))
            rec[EXTRA] = {"rows": summary.total_rows}
            dataset, summary = ingestion.aggregate(records, self.gspec, summary)
        ingestion.write_dataset(self.out_path, dataset)
        return dataset, summary

    def run_round(self, tracer) -> tuple[int, int]:
        t0 = time.perf_counter()
        done = attempt(self._ingest, tracer)
        dt = time.perf_counter() - t0
        back = done and attempt(ingestion.read_dataset, self.out_path)
        if back is None:
            return 1, 1
        dataset, summary = done
        self.latency_ms.append(dt * 1e3)
        self.throughput.append(self.ROWS / dt)
        e = self.expected
        self.problems += checks.check_grid(self.name, dataset.values, e.grid)
        self.problems += checks.check_tallies(
            self.name,
            vars(summary),
            {"total_rows": e.rows, "unparseable": e.unparseable, "out_of_range": e.out_of_range,
             "outflow_counted": e.outflow_counted, "inflow_counted": e.inflow_counted},
        )
        self.problems += checks.check_bytes(f"{self.name} file", self.out_path.read_bytes(), self.want_bytes)
        same = (
            back.values.tobytes() == dataset.values.tobytes()
            and (back.h, back.w, back.d, back.interval_seconds, back.box)
            == (dataset.h, dataset.w, dataset.d, dataset.interval_seconds, tuple(dataset.box))
        )
        if not same:
            self.problems.append(f"{self.name}: read_dataset differs from what write_dataset wrote")
        return 1, 0


WORKLOADS = {
    "train-ref": lambda seed, d: Train(seed, d, h=10, w=20, batch=64, train_anchors=128, epochs=1, fd_windows=4),
    "train-taxibj": lambda seed, d: Train(seed, d, h=32, w=32, batch=8, train_anchors=16, epochs=1, fd_windows=2),
    "forecast-taxibj": Forecast,
    "ingest-trips": Ingest,
}


def make(name: str, seed: int, workdir: Path) -> Workload:
    w = WORKLOADS[name](seed, workdir)
    w.name = name
    return w
