"""Tests for metrics, baselines and evaluation reports."""

import dataclasses
import math

import numpy as np
import pytest

from mlpst import evaluation, mixer, training
from mlpst.errors import ConfigError, DataError
from mlpst.evaluation import (
    MetricUndefined,
    baseline_historical_average,
    baseline_persistence,
    evaluate_baseline,
    evaluate_model,
    mae,
    r2,
    rmse,
)
from mlpst.griddata import TemporalConfig, apply_norm, fit_norm, invert_norm
from mlpst.ingestion import synth


class TestMetrics:
    def test_perfect_prediction(self):
        target = np.array([1.0, 2.0, 3.0])
        assert mae(target, target) == 0.0
        assert rmse(target, target) == 0.0
        assert r2(target, target) == 1.0

    def test_mean_prediction_gives_r2_zero(self):
        target = np.array([1.0, 2.0, 3.0, 6.0])
        pred = np.full(4, target.mean())
        assert r2(pred, target) == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_values(self):
        pred = np.array([1.0, 2.0, 3.0])
        target = np.array([2.0, 2.0, 2.0])
        assert mae(pred, target) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert rmse(pred, target) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)

    def test_r2_hand_computed(self):
        pred = np.array([1.5, 2.5, 2.0])
        target = np.array([1.0, 3.0, 2.0])
        sse = 0.25 + 0.25 + 0.0
        sst = 1.0 + 1.0 + 0.0
        assert r2(pred, target) == pytest.approx(1.0 - sse / sst, abs=1e-12)

    def test_r2_undefined_for_constant_target(self):
        with pytest.raises(MetricUndefined):
            r2(np.array([1.0, 2.0]), np.array([3.0, 3.0]))

    def test_empty_series_rejected(self):
        with pytest.raises(DataError):
            mae(np.array([]), np.array([]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            rmse(np.zeros(3), np.zeros(4))


class TestBaselines:
    def test_persistence_returns_last(self):
        a = np.full((2, 2, 1), 1.0)
        b = np.full((2, 2, 1), 2.0)
        np.testing.assert_array_equal(baseline_persistence(np.stack([a, b])), b)

    def test_persistence_empty_history(self):
        with pytest.raises(DataError):
            baseline_persistence(np.zeros((0, 2, 2, 1)))

    def test_historical_average_identical_maps(self):
        m = np.arange(4.0).reshape(2, 2, 1)
        history = np.stack([m, m, m, m])
        np.testing.assert_array_equal(baseline_historical_average(history, 2), m)

    def test_alternating_phase_bookkeeping(self):
        a = np.full((1, 1, 1), 1.0)
        b = np.full((1, 1, 1), 5.0)
        history = np.stack([a, b, a, b])  # predicting index 4, an A slot
        np.testing.assert_array_equal(baseline_historical_average(history, 2), a)

    def test_period_longer_than_history(self):
        with pytest.raises(DataError):
            baseline_historical_average(np.zeros((3, 1, 1, 1)), 5)


def small_cfg():
    return mixer.ModelConfig(
        temporal=TemporalConfig(trend=0, period=0, closeness=4, closeness_interval=1),
        patch=2, channels_spatial=4, channels_temporal=4, expansion=4, n_layers=1,
    )


class TestEvaluate:
    def test_exact_predictor_has_zero_mae_under_any_normalisation(self):
        # constant data: a zeroed output head predicts the normalised target
        # exactly, so inversion restores the original values bit-for-bit
        data = synth("constant", 4, 4, steps=40, seed=0)
        cfg = small_cfg()
        params = mixer.build_params(cfg, 4, 4, 2, seed=0)
        params.w_out[:] = 0.0
        params.b_out[:] = 0.0
        stats = fit_norm(data.values)
        anchors = np.arange(10, 40)
        report = evaluate_model(params, cfg.temporal, data.values, anchors, stats)
        assert report.mae == 0.0
        assert report.rmse == 0.0
        assert report.r2 == 1.0  # channels sit at two levels, so SST > 0

    def test_r2_reported_as_undefined_on_flat_target(self):
        data = synth("constant", 4, 4, steps=40, seed=0, d=1)
        cfg = small_cfg()
        params = mixer.build_params(cfg, 4, 4, 1, seed=0)
        params.w_out[:] = 0.0
        params.b_out[:] = 0.0
        stats = fit_norm(data.values)
        report = evaluate_model(params, cfg.temporal, data.values, np.arange(10, 40), stats)
        assert report.mae == 0.0
        assert report.r2 is None  # undefined: an explicit signal, not a number
        assert ",nan," in report.csv_row()

    def test_persistence_on_constant_dataset(self):
        data = synth("constant", 3, 3, steps=30, seed=1)
        report = evaluate_baseline("persistence", data.values, np.arange(5, 30))
        assert report.mae == 0.0

    def test_model_beats_nothing_shapes_and_fields(self):
        data = synth("periodic", 4, 4, steps=120, seed=2, period=12)
        cfg = small_cfg()
        result = training.train(
            data.values, cfg,
            training.TrainConfig(batch_size=16, max_epochs=5, patience=10, seed=0),
            training.LossConfig(q=2),
        )
        report = evaluate_model(
            result.params, cfg.temporal, data.values, result.anchors.test,
            result.stats, train_seconds=result.train_seconds,
        )
        assert report.n_samples == result.anchors.test.size
        assert report.params == mixer.param_total(result.params)
        assert report.train_s > 0.0
        assert report.infer_ms_per_batch >= 0.0
        assert len(report.per_channel) == 2

    def test_empty_anchors_rejected(self):
        data = synth("constant", 3, 3, steps=30, seed=1)
        with pytest.raises(ConfigError):
            evaluate_baseline("persistence", data.values, np.array([], dtype=int))

    def test_unknown_baseline(self):
        data = synth("constant", 3, 3, steps=30, seed=1)
        with pytest.raises(ConfigError):
            evaluate_baseline("oracle", data.values, np.arange(5, 30))

    def test_csv_row_shape(self):
        data = synth("constant", 3, 3, steps=30, seed=1)
        report = evaluate_baseline("persistence", data.values, np.arange(5, 30))
        row = report.csv_row()
        assert len(row.split(",")) == len(evaluation.CSV_HEADER.split(","))
        assert row.startswith("persistence,")

    def test_determinism_excluding_timings(self):
        data = synth("periodic", 4, 4, steps=80, seed=3, period=12)
        anchors = np.arange(30, 80)
        r1 = evaluate_baseline("havg", data.values, anchors, period=12)
        r2_ = evaluate_baseline("havg", data.values, anchors, period=12)
        assert (r1.mae, r1.rmse, r1.r2) == (r2_.mae, r2_.rmse, r2_.r2)


class TestEvaluateAnchors:
    def setup_method(self):
        self.data = synth("periodic", 4, 4, steps=60, seed=4, period=12, noise=0.5)
        self.cfg = small_cfg()
        self.params = mixer.build_params(self.cfg, 4, 4, 2, seed=1)
        self.stats = fit_norm(self.data.values[:40])

    @pytest.mark.parametrize("anchors, bad", [
        ([10, 3, 20], 3),        # its window would start before the series
        ([-3, 10], -3),          # would wrap to the end of the series
        ([59, 60], 60),          # its target lies past the series
    ])
    def test_anchor_outside_the_series_names_the_first(self, anchors, bad):
        with pytest.raises(DataError, match=rf"^anchor {bad} is outside \[4, 59\]"):
            evaluate_model(self.params, self.cfg.temporal, self.data.values, np.array(anchors), self.stats)

    def test_window_other_than_the_params_own_is_refused(self):
        # anchor 5 is too early for the wider window; the error names the
        # windows, and predict_batches does not wrap the index round
        other = dataclasses.replace(self.cfg.temporal, closeness_interval=2)
        anchors = np.array([5, 20])
        normed = apply_norm(self.data.values, self.stats)
        for call in (
            lambda: evaluate_model(self.params, other, self.data.values, anchors, self.stats),
            lambda: training.predict_batches(self.params, normed, anchors, other, 8),
        ):
            with pytest.raises(ConfigError) as info:
                call()
            assert "closeness_interval=2" in str(info.value)
            assert "closeness_interval=1" in str(info.value)

    @pytest.mark.parametrize("anchors", [np.arange(4, 60), np.array([50, 20, 33, 20]), np.array([59])])
    def test_predictions_equal_whole_series_normalisation(self, monkeypatch, anchors):
        seen = []

        def recording_predict(*args):
            seen.append(training.predict_batches(*args))
            return seen[-1]

        monkeypatch.setattr(evaluation, "predict_batches", recording_predict)
        report = evaluate_model(self.params, self.cfg.temporal, self.data.values, anchors, self.stats,
                                batch_size=16)
        want = training.predict_batches(self.params, apply_norm(self.data.values, self.stats),
                                        anchors, self.cfg.temporal, 16)
        assert seen[0].tobytes() == want.tobytes()
        preds = invert_norm(want, self.stats)
        assert report.mae == mae(preds, self.data.values[anchors])
        assert report.rmse == rmse(preds, self.data.values[anchors])
