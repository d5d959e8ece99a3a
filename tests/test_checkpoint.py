"""Tests for the MLPST1 checkpoint format."""

import numpy as np
import pytest

from mlpst import checkpoint, mixer, tree
from mlpst.errors import FormatError
from mlpst.griddata import NormStats, TemporalConfig


def build(variant="full", share_branches=False, share_layers=True):
    cfg = mixer.ModelConfig(
        temporal=TemporalConfig(trend=2, period=2, closeness=4,
                                trend_interval=6, period_interval=3,
                                closeness_interval=1),
        patch=2, channels_spatial=4, channels_temporal=3, expansion=5,
        n_layers=2, variant=variant,
        share_layers=share_layers, share_branches=share_branches,
    )
    return cfg, mixer.build_params(cfg, 4, 6, 2, seed=11)


def assert_params_equal(a, b):
    leaves_a = list(tree.iter_leaves(a))
    leaves_b = list(tree.iter_leaves(b))
    assert [p for p, _ in leaves_a] == [p for p, _ in leaves_b]
    for (_, x), (_, y) in zip(leaves_a, leaves_b):
        np.testing.assert_array_equal(x, y)


class TestRoundTrip:
    @pytest.mark.parametrize("variant", ["full", "mlp_at", "mlp_sa"])
    def test_bit_exact(self, tmp_path, variant):
        cfg, params = build(variant=variant)
        stats = NormStats(lo=np.array([0.5, 1.5]), hi=np.array([9.25, 3.75]))
        path = tmp_path / "m.ckpt"
        checkpoint.save_checkpoint(path, params, cfg.temporal, "seed=11\n", stats)
        loaded = checkpoint.load_checkpoint(path)
        assert_params_equal(params, loaded.params)
        assert loaded.params.variant == variant
        assert loaded.temporal == cfg.temporal
        assert "seed=11" in loaded.config_text
        np.testing.assert_array_equal(loaded.stats.lo, stats.lo)
        np.testing.assert_array_equal(loaded.stats.hi, stats.hi)

    def test_double_round_trip_identical_bytes(self, tmp_path):
        cfg, params = build()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        checkpoint.save_checkpoint(p1, params, cfg.temporal)
        loaded = checkpoint.load_checkpoint(p1)
        checkpoint.save_checkpoint(p2, loaded.params, loaded.temporal)
        assert p1.read_bytes() == p2.read_bytes()

    def test_shared_branch_topology_restored(self, tmp_path):
        cfg = mixer.ModelConfig(
            temporal=TemporalConfig(trend=2, period=2, closeness=4,
                                    trend_interval=6, period_interval=3,
                                    closeness_interval=1),
            patch=2, channels_spatial=4, channels_temporal=3, expansion=5,
            n_layers=2, share_branches=True,
        )
        params = mixer.build_params(cfg, 4, 4, 2, seed=0)
        path = tmp_path / "m.ckpt"
        checkpoint.save_checkpoint(path, params, cfg.temporal)
        loaded = checkpoint.load_checkpoint(path)
        # trend and period share length 2: their arrays must be one object
        assert (
            loaded.params.temporal_trend.layers[0].token_mlp.w_in
            is loaded.params.temporal_period.layers[0].token_mlp.w_in
        )
        assert mixer.param_total(loaded.params) == mixer.param_total(params)

    def test_geometry_round_trip(self, tmp_path):
        cfg, params = build()
        path = tmp_path / "m.ckpt"
        checkpoint.save_checkpoint(path, params, cfg.temporal)
        loaded = checkpoint.load_checkpoint(path)
        assert (loaded.params.grid_h, loaded.params.grid_w, loaded.params.grid_d) == (4, 6, 2)
        assert loaded.params.spatial.patch == 2
        assert loaded.params.spatial.n_layers == 2


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTCKPT" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            checkpoint.load_checkpoint(path)

    def test_truncated_manifest(self, tmp_path):
        cfg, params = build()
        path = tmp_path / "m.ckpt"
        checkpoint.save_checkpoint(path, params, cfg.temporal)
        blob = path.read_bytes()
        path.write_bytes(blob[:20])
        with pytest.raises(FormatError, match="truncated"):
            checkpoint.load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        cfg, params = build()
        path = tmp_path / "m.ckpt"
        checkpoint.save_checkpoint(path, params, cfg.temporal)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(FormatError, match="payload"):
            checkpoint.load_checkpoint(path)


def test_failed_save_keeps_old_file(tmp_path):
    cfg, params = build()
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(path, params, cfg.temporal)
    old = path.read_bytes()
    # the manifest and the leading leaves are written before the last leaf
    # fails to convert to float64
    params.b_out = np.array(["x"] * params.b_out.size, dtype=object)
    with pytest.raises(ValueError):
        checkpoint.save_checkpoint(path, params, cfg.temporal)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
