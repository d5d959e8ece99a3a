"""Tests for the MLPST1 checkpoint format."""

import struct

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


def rewrite_manifest(path, edit):
    """Replace the manifest of the checkpoint at ``path`` by ``edit(lines)``."""
    blob = path.read_bytes()
    head = len(checkpoint.MAGIC)
    (length,) = struct.unpack("<I", blob[head:head + 4])
    lines = blob[head + 4:head + 4 + length].decode("utf-8").splitlines()
    manifest = ("\n".join(edit(lines)) + "\n").encode("utf-8")
    path.write_bytes(
        checkpoint.MAGIC + struct.pack("<I", len(manifest)) + manifest
        + blob[head + 4 + length:]
    )


def drop_key(key):
    return lambda lines: [ln for ln in lines if not ln.startswith(f"{key}=")]


def reshape_leaf(leaf, shape):
    def edit(lines):
        out = []
        for ln in lines:
            parts = ln.split("\t")
            if parts[0] == leaf:
                parts[1] = shape
            out.append("\t".join(parts))
        return out
    return edit


def drop_leaf(leaf):
    return lambda lines: [ln for ln in lines if ln.split("\t")[0] != leaf]


# build() has a 4x6x2 grid, patch 2 (6 patches), C_S = 4, d_T = 24, hidden 5
MALFORMED_MANIFESTS = [
    ("missing patch", drop_key("patch"), "key 'patch'"),
    ("missing grid_h", drop_key("grid_h"), "key 'grid_h'"),
    ("missing variant", drop_key("variant"), "key 'variant'"),
    ("missing spatial_n_layers", drop_key("spatial_n_layers"), "key 'spatial_n_layers'"),
    ("missing closeness_n_layers", drop_key("closeness_n_layers"), "key 'closeness_n_layers'"),
    ("missing closeness", drop_key("closeness"), "key 'closeness'"),
    ("missing predict_channel", drop_key("predict_channel"), "key 'predict_channel'"),
    ("non-integer grid_w", lambda ls: [("grid_w=six" if ln.startswith("grid_w=") else ln) for ln in ls],
     "key 'grid_w' is not an integer"),
    ("transposed fc_w", reshape_leaf("spatial.fc_w", "4x8"), "spatial.fc_w has shape 4x8"),
    ("ln_tokens sized by tokens", reshape_leaf("spatial.layers.0.ln_tokens.gamma", "6"),
     "spatial.layers.0.ln_tokens.gamma has shape 6"),
    ("token w_out too narrow", reshape_leaf("temporal_closeness.layers.0.token_mlp.w_out", "5x3"),
     "temporal_closeness.layers.0.token_mlp.w_out has shape 5x3; the model structure needs 5x4"),
    ("channel b_in of the wrong width", reshape_leaf("temporal_trend.layers.0.channel_mlp.b_in", "2"),
     "temporal_trend.layers.0.channel_mlp.b_in has shape 2"),
    ("head flattened", reshape_leaf("w_out", "1152"), "w_out has shape 1152; the model structure needs 24x48"),
    ("fusion weight as a matrix", reshape_leaf("w_period", "4x6"), "w_period has shape 4x6"),
    ("missing head bias", drop_leaf("b_out"), "no tensor b_out"),
    ("missing layer leaf", drop_leaf("spatial.layers.0.ln_channels.beta"),
     "no tensor spatial.layers.0.ln_channels.beta"),
    ("garbled tensor row", lambda ls: [("spatial.fc_w\tfour\t0" if ln.startswith("spatial.fc_w\t") else ln)
                                      for ln in ls], "bad [tensors] row"),
    ("unnumbered layer", lambda ls: [ln.replace("spatial.layers.1.", "spatial.layers.one.") for ln in ls],
     "spatial.layers.* must be numbered"),
    ("too many spatial layers", lambda ls: [("spatial_n_layers=3" if ln.startswith("spatial_n_layers=") else ln)
                                           for ln in ls], "spatial.layers holds 2 layers for n_layers=3"),
]


@pytest.mark.parametrize(
    "edit, message", [case[1:] for case in MALFORMED_MANIFESTS],
    ids=[case[0] for case in MALFORMED_MANIFESTS],
)
def test_malformed_manifest_is_a_format_error(tmp_path, edit, message):
    cfg, params = build(share_layers=False)
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(path, params, cfg.temporal)
    checkpoint.load_checkpoint(path)  # the unedited file loads
    rewrite_manifest(path, edit)
    with pytest.raises(FormatError) as info:
        checkpoint.load_checkpoint(path)
    text = str(info.value)
    assert message in text
    assert "\n" not in text


def test_malformed_checkpoint_exits_2_with_one_line(tmp_path, capsys):
    from mlpst.cli import main

    cfg, params = build()
    data = tmp_path / "d.stgrid"
    assert main(["synth", "--kind", "periodic", "--out", str(data), "--height", "4",
                 "--width", "6", "--steps", "60", "--period", "12", "--seed", "1"]) == 0
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(path, params, cfg.temporal,
                               stats=NormStats(lo=np.zeros(2), hi=np.ones(2)))
    for edit, message in ((drop_key("patch"), "key 'patch'"),
                          (reshape_leaf("spatial.fc_b", "5"), "spatial.fc_b has shape 5")):
        rewrite_manifest(path, edit)
        capsys.readouterr()
        code = main(["predict", "--checkpoint", str(path), "--data", str(data),
                     "--out", str(tmp_path / "p.stgrid")])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and len(err.strip().splitlines()) == 1
        checkpoint.save_checkpoint(path, params, cfg.temporal,
                                   stats=NormStats(lo=np.zeros(2), hi=np.ones(2)))


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
