"""Tests for loss, Adam, anchor splitting and the training loop."""

import contextlib
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from mlpst import checkpoint, mixer, tensor, training, tree
from mlpst.errors import ConfigError, DataError
from mlpst.gradcheck import central_diff, rel_errors
from mlpst.griddata import TemporalConfig, apply_norm, invert_norm, slice_dependencies
from mlpst.ingestion import synth
from mlpst.training import (
    AdamState,
    LossConfig,
    TrainConfig,
    adam_init,
    adam_step,
    gather_windows,
    loss,
    split_anchors,
)


class TestLoss:
    def test_q1_closed_form(self):
        pred = np.array([1.0, -2.0, 3.0])
        target = np.zeros(3)
        value, _ = loss(pred, target, LossConfig(q=1))
        assert value == 6.0

    def test_q2_closed_form(self):
        pred = np.array([1.0, -2.0, 3.0])
        target = np.zeros(3)
        value, _ = loss(pred, target, LossConfig(q=2))
        assert value == pytest.approx(math.sqrt(14.0), abs=1e-15)

    def test_combine_sums_both(self):
        pred = np.array([1.0, -2.0, 3.0])
        target = np.zeros(3)
        value, _ = loss(pred, target, LossConfig(q=2, combine=True))
        assert value == pytest.approx(6.0 + math.sqrt(14.0), abs=1e-15)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 3))
        for q in (1, 2):
            value, grad = loss(a, a.copy(), LossConfig(q=q))
            assert value == 0.0
            np.testing.assert_array_equal(grad, np.zeros_like(a))
            value, _ = loss(a, a + 0.5, LossConfig(q=q))
            assert value > 0.0

    def test_sign_zero_is_zero(self):
        pred = np.array([0.0, 1.0])
        target = np.array([0.0, 0.0])
        _, grad = loss(pred, target, LossConfig(q=1))
        assert grad[0] == 0.0 and grad[1] == 1.0

    @pytest.mark.parametrize("q", [1, 2])
    def test_gradient_matches_finite_differences(self, q):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=(2, 3)) + 2.0  # away from q=1 kinks
        target = rng.normal(size=(2, 3)) - 2.0

        def f():
            value, _ = loss(pred, target, LossConfig(q=q))
            return value

        _, grad = loss(pred, target, LossConfig(q=q))
        numeric = central_diff(f, pred, step=1e-6)
        assert rel_errors(grad, numeric).max() < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            loss(np.zeros((2, 2)), np.zeros((2, 3)), LossConfig())

    def test_bad_q(self):
        with pytest.raises(ConfigError):
            loss(np.zeros(2), np.zeros(2), LossConfig(q=3))


@dataclass
class _Scalar:
    w: np.ndarray


@dataclass
class _Blocked:
    """A model plus leaves around one Adam block: below, at and above it."""

    model: mixer.ModelParams
    sized: list


def ref_adam_step(params, grads, state):
    """The out-of-place update: moments in place, a new parameter tree returned."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    state.step += 1
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step

    def update(p, g, m, v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        return p - state.lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

    return tree.tree_map(update, params, grads, state.m, state.v)


def small_params(**kw):
    cfg = mixer.ModelConfig(
        temporal=TemporalConfig(trend=2, period=2, closeness=2,
                                trend_interval=4, period_interval=2,
                                closeness_interval=1),
        patch=2, channels_spatial=4, channels_temporal=4, expansion=4, **kw,
    )
    return mixer.build_params(cfg, 4, 4, 2, seed=0)


class TestAdam:
    def test_zero_grads_leave_params(self):
        p = _Scalar(w=np.array([1.5, -2.0]))
        state = adam_init(p)
        adam_step(p, _Scalar(w=np.zeros(2)), state)
        np.testing.assert_array_equal(p.w, [1.5, -2.0])
        assert state.step == 1

    def test_first_step_moves_by_lr(self):
        p = _Scalar(w=np.array([0.0]))
        state = adam_init(p, lr=1e-3)
        adam_step(p, _Scalar(w=np.array([1.0])), state)
        assert p.w[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_two_equal_grad_steps_hand_trace(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g = 0.7
        w = 0.3
        # hand-run the recurrences
        m = v = 0.0
        expected = w
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            expected -= lr * mhat / (math.sqrt(vhat) + eps)

        p = _Scalar(w=np.array([w]))
        state = adam_init(p, lr=lr)
        adam_step(p, _Scalar(w=np.array([g])), state)
        adam_step(p, _Scalar(w=np.array([g])), state)
        assert p.w[0] == pytest.approx(expected, abs=1e-15)

    def test_updates_in_place_keeping_every_leaf(self):
        params = small_params(n_layers=1)
        before = [(path, id(a), a.shape, a.copy()) for path, a in tree.iter_leaves(params)]
        grads = tree.tree_map(np.ones_like, params)
        assert adam_step(params, grads, adam_init(params)) is None
        after = list(tree.iter_leaves(params))
        assert [(path, id(a), a.shape) for path, a in after] == [b[:3] for b in before]
        assert all(not np.array_equal(a, b[3]) for (_, a), b in zip(after, before))

    @pytest.mark.parametrize("share_layers", [True, False])
    @pytest.mark.parametrize("share_branches", [True, False])
    def test_equals_out_of_place_update_bitwise(self, share_layers, share_branches):
        block = training.ADAM_BLOCK
        params = _Blocked(
            model=small_params(n_layers=2, share_layers=share_layers,
                               share_branches=share_branches),
            sized=[np.linspace(-1.0, 1.0, n).reshape(shape) for n, shape in (
                (block - 1, (block - 1,)), (block, (8, block // 8)), (2 * block + 6, (2, block + 3)),
            )],
        )
        expected = tree.tree_copy(params)
        state, ref_state = adam_init(params, lr=0.01), adam_init(expected, lr=0.01)
        rng = np.random.default_rng(4)
        for _ in range(3):
            grads = tree.tree_map(lambda a: rng.normal(size=a.shape), params)
            adam_step(params, grads, state)
            expected = ref_adam_step(expected, grads, ref_state)
        assert state.step == ref_state.step == 3
        for tree_got, tree_want in ((params, expected), (state.m, ref_state.m),
                                    (state.v, ref_state.v)):
            got, want = tree.unique_leaves(tree_got), tree.unique_leaves(tree_want)
            assert [path for path, _ in got] == [path for path, _ in want]
            for (path, a), (_, b) in zip(got, want):
                assert a.tobytes() == b.tobytes(), path

    def test_shared_arrays_updated_once(self):
        params = small_params(n_layers=1, share_branches=True)
        grads = tree.tree_zeros_like(params)
        grads.temporal_trend.layers[0].token_mlp.b_out += 1.0  # shared across branches
        b_out = params.temporal_trend.layers[0].token_mlp.b_out
        before = b_out.copy()
        adam_step(params, grads, adam_init(params, lr=0.1))
        assert params.temporal_trend is params.temporal_period
        # one bias-corrected step with g=1 moves by ~lr, not 2*lr
        np.testing.assert_allclose(before - b_out, 0.1, rtol=1e-6)


class TestSplitAnchors:
    def test_chronological_partition(self):
        cfg = TemporalConfig(trend=0, period=0, closeness=4, closeness_interval=1)
        parts = split_anchors(104, cfg, (0.7, 0.1, 0.2))  # 100 usable anchors
        assert parts.train[0] == 4  # warm-up = 4*1
        assert parts.train[-1] < parts.val[0] < parts.test[0]
        assert parts.train.size == 70 and parts.val.size == 10 and parts.test.size == 20

    def test_min_history_aligns_anchors(self):
        cfg = TemporalConfig(trend=0, period=0, closeness=4, closeness_interval=1)
        parts = split_anchors(105, cfg, (0.7, 0.1, 0.2), min_history=49)
        assert parts.train[0] == 49

    def test_empty_split_raises(self):
        cfg = TemporalConfig(trend=0, period=0, closeness=4, closeness_interval=1)
        with pytest.raises(ConfigError, match="empty"):
            split_anchors(8, cfg, (0.7, 0.1, 0.2))

    def test_bad_ratios(self):
        # the ratios are TrainConfig's rule, checked before train splits anchors
        with pytest.raises(ConfigError, match="split"):
            TrainConfig(split=(0.9, 0.2, 0.2)).validate()


class TestGatherWindows:
    def test_matches_slice_dependencies(self):
        rng = np.random.default_rng(1)
        maps = rng.uniform(size=(60, 3, 3, 2))
        cfg = TemporalConfig(trend=2, period=2, closeness=4,
                             trend_interval=10, period_interval=5, closeness_interval=1)
        anchors = np.array([25, 40, 59])
        xt, xp, xc = gather_windows(maps, anchors, cfg)
        for i, anchor in enumerate(anchors):
            st, sp, sc = slice_dependencies(maps[:anchor], cfg)
            np.testing.assert_array_equal(xt[i], st)
            np.testing.assert_array_equal(xp[i], sp)
            np.testing.assert_array_equal(xc[i], sc)


def tiny_model_cfg(**kw):
    defaults = dict(
        temporal=TemporalConfig(trend=0, period=2, closeness=4,
                                period_interval=24, closeness_interval=1,
                                block_mode=False),
        patch=2,
        channels_spatial=4,
        channels_temporal=4,
        expansion=4,
        n_layers=1,
    )
    defaults.update(kw)
    return mixer.ModelConfig(**defaults)


class TestTrainLoop:
    def test_constant_dataset_reaches_tiny_loss(self):
        data = synth("constant", 4, 4, steps=80, seed=5)
        cfg = tiny_model_cfg()
        result = training.train(
            data.values, cfg,
            TrainConfig(batch_size=16, max_epochs=50, patience=50, seed=0),
            LossConfig(q=2),
        )
        assert min(h[1] for h in result.history) < 1e-6

    def test_early_stop_with_patience_one(self):
        data = synth("constant", 4, 4, steps=80, seed=6)
        cfg = tiny_model_cfg()
        result = training.train(
            data.values, cfg,
            TrainConfig(batch_size=16, max_epochs=200, patience=1, seed=0),
            LossConfig(q=2),
        )
        # halted one epoch after the last improvement, far before max_epochs
        assert len(result.history) == result.best_epoch + 1
        assert len(result.history) < 200

    def test_same_seed_identical_history(self):
        data = synth("periodic", 4, 4, steps=120, seed=7, period=12)
        cfg = tiny_model_cfg()
        tc = TrainConfig(batch_size=16, max_epochs=5, patience=10, seed=3)
        r1 = training.train(data.values, cfg, tc, LossConfig(q=2))
        r2 = training.train(data.values, cfg, tc, LossConfig(q=2))
        assert r1.log_lines == r2.log_lines

    def test_best_checkpoint_has_lowest_val_mae(self):
        data = synth("periodic", 4, 4, steps=120, seed=8, period=12)
        cfg = tiny_model_cfg()
        result = training.train(
            data.values, cfg,
            TrainConfig(batch_size=16, max_epochs=10, patience=10, seed=1),
            LossConfig(q=2),
        )
        assert result.best_val_mae <= min(h[2] for h in result.history)

    def test_checkpoint_files_written(self, tmp_path):
        data = synth("constant", 4, 4, steps=80, seed=9)
        cfg = tiny_model_cfg()
        out = tmp_path / "model.ckpt"
        training.train(
            data.values, cfg,
            TrainConfig(batch_size=16, max_epochs=3, patience=10, seed=0),
            LossConfig(q=2),
            checkpoint_path=str(out),
        )
        assert out.exists()
        assert (tmp_path / "model.ckpt.best").exists()

    def test_log_line_format(self):
        data = synth("constant", 4, 4, steps=80, seed=10)
        cfg = tiny_model_cfg()
        lines = []
        training.train(
            data.values, cfg,
            TrainConfig(batch_size=16, max_epochs=2, patience=10, seed=0),
            LossConfig(q=2),
            log=lines.append,
        )
        for line in lines:
            parts = line.split(",")
            assert parts[0] == "epoch" and parts[2] == "train_loss" and parts[4] == "val_mae"
            float(parts[3]), float(parts[5])

    def test_checkpoint_records_the_configs_it_ran_with(self, tmp_path):
        data = synth("periodic", 4, 4, steps=120, seed=11, period=12)
        out = tmp_path / "model.ckpt"
        training.train(
            data.values, tiny_model_cfg(),
            TrainConfig(batch_size=5, max_epochs=2, patience=10, split=(0.6, 0.2, 0.2),
                        seed=3, lr=0.002),
            LossConfig(q=1),
            checkpoint_path=str(out),
        )
        for path in (out, tmp_path / "model.ckpt.best"):
            cfg = checkpoint.load_checkpoint(path).config
            assert cfg.split == (0.6, 0.2, 0.2)
            assert (cfg.batch_size, cfg.seed, cfg.lr, cfg.max_epochs, cfg.q) == (5, 3, 0.002, 2, 1)

    def test_best_params_are_a_snapshot_of_the_best_epoch(self):
        # lr 0.1 overshoots: epoch 3 has the lowest validation MAE, epoch 4 a
        # higher one, so the live tree moves on after the snapshot is taken
        data = synth("periodic", 4, 4, steps=120, seed=12, period=12)
        cfg = tiny_model_cfg()
        tc = TrainConfig(batch_size=16, max_epochs=4, patience=10, seed=0, lr=0.1)
        result = training.train(data.values, cfg, tc, LossConfig(q=2))
        assert result.best_epoch < len(result.history) == 4
        normed = apply_norm(data.values, result.stats)
        pred = training.predict_batches(
            result.params, normed, result.anchors.val, cfg.temporal, tc.batch_size
        )
        pred_raw = invert_norm(pred, result.stats)
        mae = float(np.abs(pred_raw - data.values[result.anchors.val]).mean())
        assert mae == result.best_val_mae


def traced_peak(fn, *args, **kwargs) -> int:
    """Bytes of the highest live ``tracemalloc`` total during ``fn(*args, **kwargs)``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_adam_step_allocates_no_leaf_sized_array():
    # the update runs through the state's block-sized scratch buffers; a
    # whole-leaf update would allocate a 16 MB array per sub-expression
    leaf = np.linspace(-1.0, 1.0, 2**21 + 7)
    params, grads = _Scalar(w=leaf), _Scalar(w=np.cos(leaf))
    state = adam_init(params)
    for _ in range(2):
        assert traced_peak(adam_step, params, grads, state) < leaf.nbytes / 8


def test_second_backward_into_a_tree_allocates_no_head_sized_array():
    # 16x16x2 at patch 2 and 16 channels: w_out is (1024, 512), 4 MB, and
    # every other array of the backward pass is far smaller
    temporal = TemporalConfig(trend=2, period=2, closeness=2, trend_interval=4,
                              period_interval=2, closeness_interval=1)
    cfg = mixer.ModelConfig(temporal=temporal, patch=2, channels_spatial=16,
                            channels_temporal=4, expansion=4, n_layers=1)
    params = mixer.build_params(cfg, 16, 16, 2, seed=2)
    rng = np.random.default_rng(3)
    maps = rng.uniform(size=(12, 16, 16, 2))
    pred, cache = mixer.batch_forward(gather_windows(maps, np.array([8, 10]), temporal), params)
    upstream = rng.normal(size=pred.shape)
    grads = mixer.batch_backward(cache, upstream, params)
    peak = traced_peak(mixer.batch_backward, cache, upstream, params, grads)
    assert peak < params.w_out.nbytes


def default_model_batch():
    """The default model at 16x16x2 (8 layers per stack, d_T = 1280) and 8 windows."""
    cfg = mixer.ModelConfig()
    params = mixer.build_params(cfg, 16, 16, 2, seed=1)
    maps = np.random.default_rng(0).uniform(size=(344, 16, 16, 2))
    anchors = np.arange(336, 344)
    return cfg, params, maps, anchors


def test_forward_only_batch_holds_no_backward_cache():
    # seen: 7.1 MB forward only, 44.8 MB with the cache (46.4 MB while the
    # channel-mixing blocks kept their h, 61.9 MB while every block did)
    cfg, params, maps, anchors = default_model_batch()
    branch_maps = gather_windows(maps, anchors, cfg.temporal)

    cached = traced_peak(mixer.batch_forward, branch_maps, params)
    forward_only = traced_peak(training.predict_batches, params, maps, anchors, cfg.temporal, 8)
    bound = 10 * 2**20
    assert forward_only < bound < cached / 4
    assert cached < 46 * 2**20


def test_train_step_live_peak_is_bounded():
    # one forward, loss and backward of the batch above. Seen: 51.4 MB with
    # at most two hidden-sized arrays alive in each MLP backward pass; 54.2 MB
    # while the token-mixing backward held three besides its cached cdf and
    # the channel-mixing blocks kept their h
    cfg, params, maps, anchors = default_model_batch()
    branch_maps = gather_windows(maps, anchors, cfg.temporal)
    targets = maps[anchors]

    def step():
        pred, cache = mixer.batch_forward(branch_maps, params)
        _, grad_pred = loss(pred, targets, LossConfig())
        mixer.batch_backward(cache, grad_pred, params)

    assert traced_peak(step) < 53 * 2**20


class TestOneCachePerStep:
    """A train step holds one forward cache: the next forward reuses the
    temporal part of the last one, and the rest is freed."""

    # 16x16x2 at patch 2: d_T = 1024, and every frame is distinct, so the
    # spatial cache is about two fifths of the whole
    TEMPORAL = TemporalConfig(trend=2, period=2, closeness=4, trend_interval=8,
                              period_interval=4, closeness_interval=1)
    MODEL = mixer.ModelConfig(temporal=TEMPORAL, patch=2, channels_spatial=16,
                              channels_temporal=2, expansion=1, n_layers=2)

    def traced_train(self, monkeypatch, n_usable, reuse=True):
        """Train one epoch at batch 8; ``(steps, peak, log lines)``.

        ``steps`` holds ``(windows, live at entry, live at return)`` of each
        training ``batch_forward``, in bytes.
        """
        data = synth("periodic", 16, 16, steps=16 + n_usable, seed=3, period=8, noise=0.1)
        steps = []
        real = training.batch_forward

        def spy(branch_maps, params, keep_cache=True):
            entry = tracemalloc.get_traced_memory()[0]
            out = real(branch_maps, params, keep_cache)
            if keep_cache:
                steps.append((len(branch_maps[0]), entry, tracemalloc.get_traced_memory()[0]))
            return out

        monkeypatch.setattr(training, "batch_forward", spy)
        if not reuse:
            monkeypatch.setattr(tensor, "reusing", lambda arrays: contextlib.nullcontext())
        tracemalloc.start()
        try:
            result = training.train(data.values, self.MODEL,
                                    TrainConfig(batch_size=8, max_epochs=1, patience=5, seed=0),
                                    LossConfig(q=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return steps, peak, result.log_lines

    def test_later_steps_hold_one_cache_and_reuse_its_temporal_arrays(self, monkeypatch):
        steps, _, _ = self.traced_train(monkeypatch, n_usable=35)  # 24 windows: 3 full batches
        assert [n for n, _, _ in steps] == [8, 8, 8]
        (_, base, first_end), *later = steps
        cache = first_end - base  # the first step's cache, allocated afresh
        for _, entry, end in later:
            # seen: entry 0.63, return 1.02-1.04 and growth 0.39-0.41 caches;
            # holding the previous step's cache read 1.01, 2.05 and 1.01
            assert entry - base < 0.8 * cache
            assert end - base < 1.2 * cache
            # the temporal arrays, most of the cache, are not allocated again
            assert end - entry < 0.6 * cache

    def test_short_last_batch_drops_the_spare_and_trains_the_same(self, monkeypatch):
        steps, peak, lines = self.traced_train(monkeypatch, n_usable=42)  # 29 windows
        assert [n for n, _, _ in steps] == [8, 8, 8, 5]
        (_, base, first_end), *_, (_, short_entry, _) = steps
        cache = first_end - base
        # a full-size spare beside the short batch's cache would read 0.6
        # caches at its entry, and raise the run's peak by 0.11
        assert short_entry - base < 0.05 * cache
        monkeypatch.undo()
        _, full_peak, _ = self.traced_train(monkeypatch, n_usable=35)  # no short batch
        assert peak < full_peak + 0.05 * cache
        monkeypatch.undo()
        _, _, fresh_lines = self.traced_train(monkeypatch, n_usable=42, reuse=False)
        assert lines == fresh_lines
