"""Tests for grid maps, patch partitioning, temporal slicing, normalisation."""

import numpy as np
import pytest

from mlpst import griddata
from mlpst.errors import ConfigError, DataError
from mlpst.griddata import TemporalConfig


class TestPatchify:
    def test_paper_grid_patch_count(self):
        # 10 x 20 grid with 2 x 2 patches -> 50 patches
        x = np.zeros((10, 20, 2))
        tokens = griddata.patchify(x, 2)
        assert tokens.shape == (50, 8)
        assert griddata.n_patches(10, 20, 2) == 50

    def test_degenerate_single_patch(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 3, 2))
        tokens = griddata.patchify(x, 3)
        assert tokens.shape == (1, 18)
        np.testing.assert_array_equal(tokens[0], x.reshape(-1))

    def test_hand_enumerated_4x4(self):
        x = np.arange(16.0).reshape(4, 4, 1)
        tokens = griddata.patchify(x, 2)
        expected = np.array(
            [
                [0, 1, 4, 5],
                [2, 3, 6, 7],
                [8, 9, 12, 13],
                [10, 11, 14, 15],
            ],
            dtype=float,
        )
        np.testing.assert_array_equal(tokens, expected)

    def test_channels_innermost(self):
        # one cell per patch: token must interleave channels within a cell
        x = np.arange(8.0).reshape(2, 2, 2)
        tokens = griddata.patchify(x, 1)
        np.testing.assert_array_equal(tokens, x.reshape(4, 2))

    def test_indivisible_raises_with_both_dims(self):
        with pytest.raises(ConfigError, match="H=10.*W=21"):
            griddata.patchify(np.zeros((10, 21, 2)), 2)

    def test_partition_covers_every_cell(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 10, size=(6, 8, 2))
        tokens = griddata.patchify(x, 2)
        assert tokens.sum() == pytest.approx(x.sum(), rel=1e-12)

    def test_batched_leading_axes(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 5, 4, 4, 2))
        tokens = griddata.patchify(x, 2)
        assert tokens.shape == (3, 5, 4, 8)
        np.testing.assert_array_equal(tokens[1, 2], griddata.patchify(x[1, 2], 2))


def _steps(n, h=1, w=1, d=1):
    """History stack whose map at index i holds the value i everywhere."""
    return np.arange(n, dtype=float).reshape(n, 1, 1, 1) * np.ones((n, h, w, d))


class TestSliceDependencies:
    def test_contiguous_block_example(self):
        # twelve steps split into [[1,2],[3,4],[5..12]] (1-based step labels)
        cfg = TemporalConfig(trend=2, period=2, closeness=8, block_mode=True)
        history = _steps(12)
        trend, period, closeness = griddata.slice_dependencies(history, cfg)
        np.testing.assert_array_equal(trend[:, 0, 0, 0], [0, 1])
        np.testing.assert_array_equal(period[:, 0, 0, 0], [2, 3])
        np.testing.assert_array_equal(closeness[:, 0, 0, 0], np.arange(4, 12))

    def test_single_dependency_collapse(self):
        cfg = TemporalConfig(trend=0, period=0, closeness=12, block_mode=True)
        history = _steps(12)
        trend, period, closeness = griddata.slice_dependencies(history, cfg)
        assert trend.shape[0] == 0 and period.shape[0] == 0
        np.testing.assert_array_equal(closeness[:, 0, 0, 0], np.arange(12))

    def test_strided_index_arithmetic(self):
        # 25 days of hourly steps; weekly trend, daily period, unit closeness
        cfg = TemporalConfig(
            trend=2, period=2, closeness=8,
            trend_interval=168, period_interval=24, closeness_interval=1,
        )
        history = _steps(600)
        trend, period, closeness = griddata.slice_dependencies(history, cfg)
        # X_{T-k*l}: maps[600] is predicted, maps[599] is the latest input
        np.testing.assert_array_equal(trend[:, 0, 0, 0], [600 - 336, 600 - 168])
        np.testing.assert_array_equal(period[:, 0, 0, 0], [600 - 48, 600 - 24])
        np.testing.assert_array_equal(closeness[:, 0, 0, 0], np.arange(592, 600))

    def test_strided_oracle_bruteforce(self):
        cfg = TemporalConfig(
            trend=3, period=2, closeness=4,
            trend_interval=12, period_interval=5, closeness_interval=2,
        )
        n = 100
        history = _steps(n)
        trend, period, closeness = griddata.slice_dependencies(history, cfg)
        # brute-force oracle: X_{T-k*l} for k = len..1, where history[i] is
        # X_i and the predicted map is X_T with T = n
        expect_trend = [n - k * 12 for k in (3, 2, 1)]
        expect_period = [n - k * 5 for k in (2, 1)]
        expect_close = [n - k * 2 for k in (4, 3, 2, 1)]
        np.testing.assert_array_equal(trend[:, 0, 0, 0], expect_trend)
        np.testing.assert_array_equal(period[:, 0, 0, 0], expect_period)
        np.testing.assert_array_equal(closeness[:, 0, 0, 0], expect_close)

    def test_lengths_and_monotonicity(self):
        cfg = TemporalConfig(trend=2, period=3, closeness=5,
                             trend_interval=20, period_interval=6, closeness_interval=1)
        cfg.validate()
        history = _steps(80)
        parts = griddata.slice_dependencies(history, cfg)
        for part, expected_len in zip(parts, (2, 3, 5)):
            assert part.shape[0] == expected_len
            vals = part[:, 0, 0, 0]
            assert np.all(np.diff(vals) > 0)

    def test_insufficient_history_names_index(self):
        cfg = TemporalConfig(trend=2, period=2, closeness=8,
                             trend_interval=168, period_interval=24, closeness_interval=1)
        with pytest.raises(DataError, match="336"):
            griddata.slice_dependencies(_steps(100), cfg)


class TestRequiredHistory:
    # README: max(len * interval) over the active branches; the window in block mode
    @pytest.mark.parametrize("lengths, intervals, expected", [
        ((2, 2, 8), (168, 24, 1), 336),
        ((3, 2, 4), (12, 5, 2), 36),
        ((2, 3, 5), (20, 6, 1), 40),
        ((0, 2, 4), (168, 12, 1), 24),      # trend off: its interval is ignored
        ((0, 0, 6), (168, 24, 3), 18),
        ((2, 0, 8), (30, 24, 1), 60),
        ((0, 2, 20), (168, 4, 1), 20),      # closeness reaches furthest back
    ])
    def test_strided(self, lengths, intervals, expected):
        trend, period, closeness = lengths
        ti, pi, ci = intervals
        cfg = TemporalConfig(trend=trend, period=period, closeness=closeness,
                             trend_interval=ti, period_interval=pi, closeness_interval=ci)
        assert griddata.required_history(cfg) == expected
        assert expected == max(n * l for n, l in zip(lengths, intervals) if n > 0)

    @pytest.mark.parametrize("lengths", [(2, 2, 8), (0, 2, 4), (0, 0, 5), (2, 0, 3)])
    def test_block_mode_is_the_window(self, lengths):
        trend, period, closeness = lengths
        cfg = TemporalConfig(trend=trend, period=period, closeness=closeness,
                             trend_interval=168, period_interval=24, block_mode=True)
        assert griddata.required_history(cfg) == trend + period + closeness

    def test_is_exactly_what_slicing_needs(self):
        cfg = TemporalConfig(trend=2, period=2, closeness=3,
                             trend_interval=10, period_interval=4, closeness_interval=1)
        need = griddata.required_history(cfg)
        assert need == 20
        griddata.slice_dependencies(_steps(need), cfg)
        with pytest.raises(DataError):
            griddata.slice_dependencies(_steps(need - 1), cfg)


class TestTemporalConfigValidation:
    def test_length_one_period_rejected(self):
        with pytest.raises(ConfigError):
            TemporalConfig(trend=2, period=1, closeness=9).validate()

    def test_length_one_trend_rejected(self):
        with pytest.raises(ConfigError):
            TemporalConfig(trend=1, period=2, closeness=9).validate()

    def test_interval_order_enforced(self):
        with pytest.raises(ConfigError):
            TemporalConfig(trend=2, period=2, closeness=8,
                           trend_interval=5, period_interval=24,
                           closeness_interval=1).validate()

    def test_interval_order_override(self):
        TemporalConfig(trend=2, period=2, closeness=8,
                       trend_interval=5, period_interval=24, closeness_interval=1,
                       enforce_interval_order=False).validate()

    def test_inactive_branch_interval_ignored(self):
        TemporalConfig(trend=0, period=2, closeness=10,
                       trend_interval=1, period_interval=24,
                       closeness_interval=1).validate()

    def test_window_sums(self):
        assert TemporalConfig(trend=2, period=2, closeness=8).window == 12


class TestNormalisation:
    def test_zero_ten_scales_to_unit(self):
        maps = np.array([[[[0.0], [10.0]]]])
        stats = griddata.fit_norm(maps)
        scaled = griddata.apply_norm(maps, stats)
        np.testing.assert_array_equal(scaled, np.array([[[[0.0], [1.0]]]]))

    def test_constant_channel(self):
        maps = np.full((4, 2, 2, 1), 3.3)
        stats = griddata.fit_norm(maps)
        scaled = griddata.apply_norm(maps, stats)
        np.testing.assert_array_equal(scaled, np.zeros_like(maps))
        np.testing.assert_array_equal(griddata.invert_norm(scaled, stats), maps)

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        maps = rng.uniform(0, 50, size=(6, 3, 4, 2))
        stats = griddata.fit_norm(maps)
        scaled = griddata.apply_norm(maps, stats)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        np.testing.assert_allclose(griddata.invert_norm(scaled, stats), maps, atol=1e-12)

    def test_per_channel_independence(self):
        maps = np.stack(
            [np.full((2, 2), 5.0), np.linspace(0, 1, 4).reshape(2, 2)], axis=-1
        )[np.newaxis]
        stats = griddata.fit_norm(maps)
        assert stats.lo[0] == stats.hi[0] == 5.0
        assert stats.lo[1] == 0.0 and stats.hi[1] == 1.0
