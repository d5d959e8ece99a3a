"""Tests for the MLPST2 checkpoint format."""

import dataclasses
import itertools
import mmap
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from mlpst import checkpoint, mixer, tensor, tree
from mlpst.errors import ConfigError, FormatError, MlpstError
from mlpst.griddata import NormStats, TemporalConfig

STATS = NormStats(lo=np.array([0.5, 1.5]), hi=np.array([9.25, 3.75]))


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


def first_holders(params):
    """For each leaf path, the first path that holds the same array."""
    first = {}
    return [first.setdefault(id(arr), path) for path, arr in tree.iter_leaves(params)]


class TestRoundTrip:
    @pytest.mark.parametrize("variant", ["full", "mlp_at", "mlp_sa"])
    def test_bit_exact(self, tmp_path, variant):
        cfg, params = build(variant=variant)
        stats = NormStats(lo=np.array([0.5, 1.5]), hi=np.array([9.25, 3.75]))
        path = tmp_path / "m.ckpt"
        checkpoint.save_checkpoint(path, params, cfg.temporal, "seed=11\n", stats)
        loaded = checkpoint.load_checkpoint(path)
        assert_params_equal(params, loaded.params)
        assert loaded.params.config.variant == variant
        assert loaded.temporal == cfg.temporal
        assert loaded.config.seed == 11
        np.testing.assert_array_equal(loaded.stats.lo, stats.lo)
        np.testing.assert_array_equal(loaded.stats.hi, stats.hi)

    def test_double_round_trip_identical_bytes(self, tmp_path):
        cfg, params = build()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        checkpoint.save_checkpoint(p1, params, cfg.temporal, "", STATS)
        loaded = checkpoint.load_checkpoint(p1)
        checkpoint.save_checkpoint(p2, loaded.params, loaded.temporal, "", loaded.stats)
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
        checkpoint.save_checkpoint(path, params, cfg.temporal, "", STATS)
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
        checkpoint.save_checkpoint(path, params, cfg.temporal, "", STATS)
        loaded = checkpoint.load_checkpoint(path)
        assert (loaded.params.grid_h, loaded.params.grid_w, loaded.params.grid_d) == (4, 6, 2)
        assert loaded.params.spatial.patch == 2
        assert loaded.params.spatial.n_layers == 2

    def test_every_structure_is_read_off_its_params(self, tmp_path):
        # the saved config rebuilds the same paths, shapes, sharing and
        # layer counts for every combination of the structural keys
        path = tmp_path / "m.ckpt"
        for temporal, params in structures():
            checkpoint.save_checkpoint(path, params, temporal, "", STATS)
            loaded = checkpoint.load_checkpoint(path).params
            assert_params_equal(params, loaded)
            assert tree.tree_map(np.shape, loaded) == tree.tree_map(np.shape, params)
            assert first_holders(loaded) == first_holders(params)


def structures():
    """``(window, params)`` for every combination of the structural keys."""
    windows = [
        TemporalConfig(trend=2, period=2, closeness=4, trend_interval=6, period_interval=3),
        TemporalConfig(trend=0, period=2, closeness=2, period_interval=4),
        TemporalConfig(trend=2, period=2, closeness=2, block_mode=True),
    ]
    for variant, share_layers, share_branches, n_layers, predict_channel, temporal in (
        itertools.product(["full", "mlp_at", "mlp_sa"], [True, False], [True, False],
                          range(4), [None, 1], windows)
    ):
        cfg = mixer.ModelConfig(
            temporal=temporal, patch=2, channels_spatial=3, channels_temporal=4,
            expansion=5, n_layers=n_layers, variant=variant, share_layers=share_layers,
            share_branches=share_branches, predict_channel=predict_channel,
        )
        yield temporal, mixer.build_params(cfg, 4, 4, 2, seed=0)


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTCKPT" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            checkpoint.load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(checkpoint.MAGIC + b"\x01\x00")
        with pytest.raises(FormatError, match=(
            rf"^{re.escape(str(path))}: truncated checkpoint header \(at byte 8\)$"
        )):
            checkpoint.load_checkpoint(path)

    def test_truncated_manifest(self, tmp_path):
        cfg, params = build()
        path = tmp_path / "m.ckpt"
        checkpoint.save_checkpoint(path, params, cfg.temporal, "", STATS)
        blob = path.read_bytes()
        (length,) = struct.unpack("<I", blob[6:10])
        path.write_bytes(blob[:20])
        with pytest.raises(FormatError, match=(
            rf"^{re.escape(str(path))}: truncated manifest: expected {length} bytes \(at byte 20\)$"
        )):
            checkpoint.load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        cfg, params = build()
        path = tmp_path / "m.ckpt"
        checkpoint.save_checkpoint(path, params, cfg.temporal, "", STATS)
        blob = path.read_bytes()
        (length,) = struct.unpack("<I", blob[6:10])
        payload = len(blob) - 10 - length
        path.write_bytes(blob[:-16])
        with pytest.raises(FormatError, match=(
            rf"^{re.escape(str(path))}: payload length mismatch: its config describes "
            rf"{payload} bytes, got {payload - 16} \(at byte {10 + length}\)$"
        )):
            checkpoint.load_checkpoint(path)


def test_load_maps_the_payload_without_copying_it(tmp_path):
    # the default model at 16x16x2 holds 6.4 MB of parameters; the load
    # allocates only the skeleton's zeros, which the kernel hands out
    # untouched, while a loader that copies the payload, or buffers the
    # file, peaks at 2x or 3x that
    cfg = mixer.ModelConfig()
    params = mixer.build_params(cfg, 16, 16, 2, seed=8)
    stats = NormStats(lo=np.array([0.5, 1.5]), hi=np.array([9.25, 3.75]))
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(path, params, cfg.temporal, "", stats)
    param_bytes = sum(arr.nbytes for _, arr in tree.unique_leaves(params))

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = checkpoint.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * param_bytes
    leaves = [arr for _, arr in tree.iter_leaves(loaded.params)] + [loaded.stats.lo, loaded.stats.hi]
    assert all(mapped(arr) and arr.flags.writeable and arr.flags.aligned for arr in leaves)
    assert_params_equal(params, loaded.params)
    assert first_holders(loaded.params) == first_holders(params)
    assert loaded.stats.lo.tobytes() == stats.lo.tobytes()
    assert loaded.stats.hi.tobytes() == stats.hi.tobytes()


def mapped(arr) -> bool:
    """Whether ``arr`` is a view of a file mapping, not of memory of its own."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return isinstance(arr.base, memoryview) and isinstance(arr.base.obj, mmap.mmap)


def payload_offset(path) -> int:
    """Where the payload of the checkpoint at ``path`` starts."""
    head = len(checkpoint.MAGIC)
    (length,) = struct.unpack("<I", path.read_bytes()[head:head + 4])
    return head + 4 + length


def test_every_payload_starts_aligned(tmp_path):
    # echoed seeds of 1 to 8 digits shift the config text through every
    # remainder, so each padding length from 0 to 7 newlines is written
    path = tmp_path / "m.ckpt"
    padding = set()
    for i, (temporal, params) in enumerate(structures()):
        checkpoint.save_checkpoint(path, params, temporal, f"seed={10 ** (i % 8)}\n", STATS)
        offset = payload_offset(path)
        assert offset % checkpoint.PAYLOAD_ALIGN == 0
        manifest = path.read_bytes()[len(checkpoint.MAGIC) + 4:offset]
        padding.add(len(manifest) - len(manifest.rstrip(b"\n")) - 1)
        loaded = checkpoint.load_checkpoint(path).params
        assert all(mapped(arr) for _, arr in tree.iter_leaves(loaded))
    assert padding == set(range(checkpoint.PAYLOAD_ALIGN))


def test_unpadded_checkpoint_loads_bit_exact(tmp_path):
    # a file written before the manifest was padded: its payload starts at
    # an offset that is not a multiple of 8, so the load copies it
    cfg, params = build(share_branches=True)
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(path, params, cfg.temporal, "seed=3\n", STATS)
    rewrite_manifest(path, lambda lines: [ln for ln in lines if ln])
    assert payload_offset(path) % checkpoint.PAYLOAD_ALIGN != 0
    loaded = checkpoint.load_checkpoint(path)
    assert_params_equal(params, loaded.params)
    assert first_holders(loaded.params) == first_holders(params)
    assert loaded.params.temporal_trend is loaded.params.temporal_period
    assert loaded.stats.lo.tobytes() == STATS.lo.tobytes()
    assert loaded.stats.hi.tobytes() == STATS.hi.tobytes()
    assert all(not mapped(arr) and arr.flags.aligned and arr.flags.writeable
               for _, arr in tree.iter_leaves(loaded.params))


def test_writing_a_loaded_leaf_changes_neither_the_file_nor_a_second_load(tmp_path):
    cfg, params = build()
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(path, params, cfg.temporal, "", STATS)
    blob = path.read_bytes()
    loaded = checkpoint.load_checkpoint(path)
    for _, arr in tree.unique_leaves(loaded.params):
        arr += 1.0
    loaded.stats.lo[:] = -7.0
    again = checkpoint.load_checkpoint(path)
    assert path.read_bytes() == blob
    assert_params_equal(params, again.params)
    assert again.stats.lo.tobytes() == STATS.lo.tobytes()
    np.testing.assert_array_equal(loaded.params.b_out, params.b_out + 1.0)


def test_saving_over_a_live_checkpoint_leaves_its_values(tmp_path):
    # the save renames a new file over the path; the loaded arrays keep the
    # old file mapped
    cfg, params = build()
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(path, params, cfg.temporal, "", STATS)
    loaded = checkpoint.load_checkpoint(path)
    other = mixer.build_params(cfg, 4, 6, 2, seed=12)
    checkpoint.save_checkpoint(path, other, cfg.temporal, "", NormStats(lo=np.zeros(2), hi=np.ones(2)))
    assert_params_equal(params, loaded.params)
    assert loaded.stats.lo.tobytes() == STATS.lo.tobytes()
    assert_params_equal(other, checkpoint.load_checkpoint(path).params)


def rewrite_manifest(path, edit):
    """Replace the manifest of the checkpoint at ``path`` by ``edit(lines)``."""
    blob = path.read_bytes()
    head = len(checkpoint.MAGIC)
    (length,) = struct.unpack("<I", blob[head:head + 4])
    # surrogateescape lets an edit write a byte that is not UTF-8 ("\udcff" is 0xff)
    lines = blob[head + 4:head + 4 + length].decode("utf-8", "surrogateescape").splitlines()
    manifest = ("\n".join(edit(lines)) + "\n").encode("utf-8", "surrogateescape")
    path.write_bytes(
        checkpoint.MAGIC + struct.pack("<I", len(manifest)) + manifest
        + blob[head + 4 + length:]
    )


def drop_key(key):
    return lambda lines: [ln for ln in lines if not ln.startswith(f"{key}=")]


def set_key(key, value):
    return lambda lines: [(f"{key}={value}" if ln.startswith(f"{key}=") else ln) for ln in lines]


def repeat_key(key, value):
    """Set ``key`` a second time, on the line after its own."""
    def edit(lines):
        out = []
        for ln in lines:
            out.append(ln)
            if ln.startswith(f"{key}="):
                out.append(f"{key}={value}")
        return out
    return edit


MALFORMED_MANIFESTS = [
    ("missing patch", drop_key("patch"), "checkpoint config has no key 'patch'"),
    ("missing grid_h", drop_key("h"), "checkpoint config has no key 'h'"),
    ("missing variant", drop_key("variant"), "checkpoint config has no key 'variant'"),
    ("missing layers", drop_key("layers"), "checkpoint config has no key 'layers'"),
    ("missing closeness", drop_key("closeness"), "checkpoint config has no key 'closeness'"),
    ("missing predict_channel", drop_key("predict_channel"),
     "checkpoint config has no key 'predict_channel'"),
    ("missing trend_interval", drop_key("trend_interval"),
     "checkpoint config has no key 'trend_interval'"),
    ("non-integer grid_w", set_key("w", "six"), "bad value for 'w'"),
    ("too many spatial layers", set_key("layers", "3"),
     "payload length mismatch: its config describes"),
    ("layers set twice", repeat_key("layers", "3"),
     "checkpoint config: config key 'layers' is set twice (lines 9 and 10)"),
    ("manifest not UTF-8", lambda ls: ["\udcff" + ls[0], *ls[1:]],
     "checkpoint manifest is not UTF-8 (at byte 10)"),
]


@pytest.mark.parametrize(
    "edit, message", [case[1:] for case in MALFORMED_MANIFESTS],
    ids=[case[0] for case in MALFORMED_MANIFESTS],
)
def test_malformed_manifest_is_a_format_error(tmp_path, edit, message):
    cfg, params = build(share_layers=False)
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(path, params, cfg.temporal, "", STATS)
    checkpoint.load_checkpoint(path)  # the unedited file loads
    rewrite_manifest(path, edit)
    with pytest.raises(FormatError) as info:
        checkpoint.load_checkpoint(path)
    text = str(info.value)
    assert message in text
    assert "\n" not in text


def test_malformed_checkpoint_exits_2_with_one_line(tmp_path, capsys):
    from mlpst.cli import main

    cfg, params = build(share_layers=False)
    data = tmp_path / "d.stgrid"
    assert main(["synth", "--kind", "periodic", "--out", str(data), "--height", "4",
                 "--width", "6", "--steps", "60", "--period", "12", "--seed", "1"]) == 0
    path = tmp_path / "m.ckpt"
    for _, edit, message in MALFORMED_MANIFESTS:
        checkpoint.save_checkpoint(path, params, cfg.temporal, "",
                                   NormStats(lo=np.zeros(2), hi=np.ones(2)))
        rewrite_manifest(path, edit)
        capsys.readouterr()
        code = main(["predict", "--checkpoint", str(path), "--data", str(data),
                     "--out", str(tmp_path / "p.stgrid")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}: ") and message in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "p.stgrid").exists()


def test_mlpst1_checkpoint_exits_2_with_one_line(tmp_path, capsys):
    from mlpst.cli import main

    cfg, params = build()
    path = tmp_path / "old.ckpt"
    checkpoint.save_checkpoint(path, params, cfg.temporal, "", STATS)
    path.write_bytes(b"MLPST1" + path.read_bytes()[len(checkpoint.MAGIC):])
    capsys.readouterr()
    assert main(["inspect", "--checkpoint", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: not an MLPST2 checkpoint: bad magic b'MLPST1' (at byte 0)"
    ]


def test_corrupted_checkpoint_fails_or_loads(tmp_path):
    # every cut and any trailing bytes are refused; a changed manifest byte
    # may still load (a changed seed or learning rate is a valid config), but
    # any failure it causes is an MlpstError, which the CLI reports in one line
    cfg = mixer.ModelConfig(
        temporal=TemporalConfig(trend=0, period=2, closeness=2, period_interval=4),
        channels_spatial=4, channels_temporal=4, expansion=2, n_layers=1,
    )
    params = mixer.build_params(cfg, 4, 4, 2, seed=0)
    good = tmp_path / "good.ckpt"
    checkpoint.save_checkpoint(good, params, cfg.temporal, "", STATS)
    blob = good.read_bytes()
    head = len(checkpoint.MAGIC)
    (length,) = struct.unpack("<I", blob[head:head + 4])
    # the substitutions below reach the newlines that align the payload
    assert blob[head + 4:head + 4 + length].endswith(b"\n\n")
    path = tmp_path / "bad.ckpt"

    path.write_bytes(blob + bytes(8))
    with pytest.raises(FormatError):
        checkpoint.load_checkpoint(path)
    for cut in reversed(range(len(blob))):
        os.truncate(path, cut)
        with pytest.raises(FormatError):
            checkpoint.load_checkpoint(path)

    path.write_bytes(blob)
    with open(path, "r+b") as fh:
        for at in range(head + 4, head + 4 + length):
            for byte in (b"\x00", b"\xff", b"9", b"\t", b"\n", b"-"):
                os.pwrite(fh.fileno(), byte, at)
                try:
                    checkpoint.load_checkpoint(path)
                except MlpstError:
                    pass
            os.pwrite(fh.fileno(), blob[at:at + 1], at)


# edits that leave a parameter tree no model config can describe
INDESCRIBABLE = {
    "fusion weights shared": lambda p: setattr(p, "w_period", p.w_trend),
    "spatial layers of two widths": lambda p: setattr(
        p.spatial.layers[1], "token_mlp", tensor.mlp_block_init(6, 7, 0)),
    "spatial depth differs": lambda p: setattr(p.spatial, "n_layers", 3),
}


@pytest.mark.parametrize("edit", INDESCRIBABLE.values(), ids=INDESCRIBABLE.keys())
def test_indescribable_tree_is_refused_at_save(tmp_path, edit):
    cfg, params = build(share_layers=False)
    edit(params)
    path = tmp_path / "m.ckpt"
    with pytest.raises(FormatError):
        checkpoint.save_checkpoint(path, params, cfg.temporal, "", STATS)
    assert not path.exists()


def test_stats_of_another_width_are_refused_at_save(tmp_path):
    cfg, params = build()
    path = tmp_path / "m.ckpt"
    with pytest.raises(FormatError, match="normalisation statistics"):
        checkpoint.save_checkpoint(path, params, cfg.temporal, "",
                                   NormStats(lo=np.zeros(3), hi=np.ones(3)))
    assert not path.exists()


def manifest_config(path) -> list[str]:
    """The config lines of the checkpoint at ``path``."""
    blob = path.read_bytes()
    head = len(checkpoint.MAGIC)
    (length,) = struct.unpack("<I", blob[head:head + 4])
    return blob[head + 4:head + 4 + length].decode("utf-8").splitlines()


def test_window_other_than_the_params_own_is_refused_at_save(tmp_path):
    cfg, params = build()
    other = dataclasses.replace(cfg.temporal, period_interval=4)
    path = tmp_path / "m.ckpt"
    with pytest.raises(ConfigError) as info:
        checkpoint.save_checkpoint(path, params, other, "seed=3\n", STATS)
    assert "period_interval=4" in str(info.value) and "period_interval=3" in str(info.value)
    assert not path.exists()


def test_config_records_what_the_tree_cannot_show(tmp_path):
    # without mixer layers no array is `expansion` wide; the manifest still
    # records the value the parameters were built with, not the default 8
    cfg = mixer.ModelConfig(temporal=TemporalConfig(closeness=4, trend=0, period=0),
                            expansion=5, n_layers=0)
    path = tmp_path / "m.ckpt"
    params = mixer.build_params(cfg, 4, 4, 2, seed=0)
    checkpoint.save_checkpoint(path, params, cfg.temporal, "", STATS)
    assert "expansion=5" in manifest_config(path)
    assert checkpoint.load_checkpoint(path).params.config == cfg


def test_evaluate_uses_the_checkpoints_own_window(tmp_path, capsys):
    from mlpst import evaluation, ingestion, training
    from mlpst.cli import main

    cfg, params = build()
    data = tmp_path / "d.stgrid"
    assert main(["synth", "--kind", "periodic", "--out", str(data), "--height", "4",
                 "--width", "6", "--steps", "60", "--period", "12", "--seed", "1"]) == 0
    stats = NormStats(lo=np.zeros(2), hi=np.ones(2))
    path = tmp_path / "m.ckpt"
    # the echo names no window: the saved config still holds trend_interval=6
    checkpoint.save_checkpoint(path, params, cfg.temporal, "seed=3\n", stats)
    capsys.readouterr()
    assert main(["evaluate", "--data", str(data), "--checkpoint", str(path)]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    values = ingestion.read_dataset(data).values
    anchors = training.split_anchors(len(values), cfg.temporal, (0.7, 0.1, 0.2)).test
    want = evaluation.evaluate_model(params, cfg.temporal, values, anchors, stats, batch_size=64)
    assert row.split(",")[2] == want.csv_row().split(",")[2]


def test_failed_save_keeps_old_file(tmp_path):
    cfg, params = build()
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(path, params, cfg.temporal, "", STATS)
    old = path.read_bytes()
    # the manifest and the leading leaves are written before the last leaf
    # fails to convert to float64
    params.b_out = np.array(["x"] * params.b_out.size, dtype=object)
    with pytest.raises(ValueError):
        checkpoint.save_checkpoint(path, params, cfg.temporal, "", STATS)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
