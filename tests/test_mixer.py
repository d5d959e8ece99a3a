"""Tests for the mixer model: layers, stacks, fusion, head, full fwd/bwd."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from mlpst import mixer, tensor, training, tree
from mlpst.errors import ConfigError
from mlpst.gradcheck import central_diff, compare_grads, merge_results, rel_errors
from mlpst.griddata import TemporalConfig
from mlpst.training import gather_windows


# ---------------------------------------------------------------------------
# independent reference trace (plain loops + math.erf, no library calls)


def ref_gelu(x):
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


def ref_ln(row, gamma, beta, eps=1e-5):
    n = len(row)
    mean = sum(row) / n
    var = sum((v - mean) ** 2 for v in row) / n
    return [gamma[j] * (row[j] - mean) / math.sqrt(var + eps) + beta[j] for j in range(n)]


def ref_mlp_block(x, w_in, b_in, w_out, b_out, gamma, beta):
    """Row-wise y = x + gelu(ln(x) @ w_in + b_in) @ w_out + b_out."""
    rows, cols = len(x), len(x[0])
    hidden = len(b_in)
    out = [[0.0] * cols for _ in range(rows)]
    for r in range(rows):
        xn = ref_ln(x[r], gamma, beta)
        h = [sum(xn[i] * w_in[i][k] for i in range(cols)) + b_in[k] for k in range(hidden)]
        a = [ref_gelu(v) for v in h]
        for j in range(cols):
            out[r][j] = x[r][j] + sum(a[k] * w_out[k][j] for k in range(hidden)) + b_out[j]
    return out


def ref_mixer_layer(v, p):
    """MLP-Mixer layer: token mixing, then channel mixing.

    Token mixing normalises each token (row) over its channels, then for
    each channel runs the token MLP down the column and adds it back:
    u[t][c] = v[t][c] + sum_k gelu(sum_s xn[s][c] w_in[s][k] + b_in[k]) w_out[k][t] + b_out[t].
    """
    n_tok, n_ch = len(v), len(v[0])
    tok = p.token_mlp
    hidden = len(tok.b_in)
    xn = [ref_ln(v[t], p.ln_tokens.gamma, p.ln_tokens.beta) for t in range(n_tok)]
    u = [[0.0] * n_ch for _ in range(n_tok)]
    for c in range(n_ch):
        h = [sum(xn[s][c] * tok.w_in[s][k] for s in range(n_tok)) + tok.b_in[k]
             for k in range(hidden)]
        a = [ref_gelu(x) for x in h]
        for t in range(n_tok):
            u[t][c] = v[t][c] + sum(a[k] * tok.w_out[k][t] for k in range(hidden)) + tok.b_out[t]
    return ref_mlp_block(
        u, p.channel_mlp.w_in, p.channel_mlp.b_in, p.channel_mlp.w_out, p.channel_mlp.b_out,
        p.ln_channels.gamma, p.ln_channels.beta,
    )


def random_layer(rng, n_tokens, n_channels, hidden=1):
    return mixer.MixerLayerParams(
        token_mlp=tensor.MlpBlockParams(
            w_in=rng.normal(size=(n_tokens, hidden)),
            b_in=rng.normal(size=hidden),
            w_out=rng.normal(size=(hidden, n_tokens)),
            b_out=rng.normal(size=n_tokens),
        ),
        channel_mlp=tensor.MlpBlockParams(
            w_in=rng.normal(size=(n_channels, hidden)),
            b_in=rng.normal(size=hidden),
            w_out=rng.normal(size=(hidden, n_channels)),
            b_out=rng.normal(size=n_channels),
        ),
        ln_tokens=tensor.LayerNormParams(
            gamma=rng.normal(size=n_channels), beta=rng.normal(size=n_channels)
        ),
        ln_channels=tensor.LayerNormParams(
            gamma=rng.normal(size=n_channels), beta=rng.normal(size=n_channels)
        ),
    )


def randomise_leaves(params, rng):
    """Redraw every unique leaf in place, so sharing is kept.

    Built models start with zero mixing-MLP output weights, which makes the
    gradients of everything upstream of them exactly zero; a gradient check
    on that point would compare 0 with 0. Half-unit scale keeps the
    predictions small enough that the central difference is not lost to
    roundoff (at unit scale its error grows as the step shrinks).
    """
    for _, arr in tree.unique_leaves(params):
        arr[...] = rng.normal(scale=0.5, size=arr.shape)


def zero_out_weights(params):
    """Zero every mixing block's output weights and biases in-place."""
    for path, arr in tree.iter_leaves(params):
        leaf = path.rsplit(".", 1)[-1]
        if leaf in ("w_out", "b_out") and "mlp" in path:
            arr[:] = 0.0
    return params


class TestMixerLayer:
    def test_double_residual_identity_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_tok = int(rng.integers(1, 9))
            n_ch = int(rng.integers(1, 9))
            p = random_layer(rng, n_tok, n_ch, hidden=int(rng.integers(1, 5)))
            p.token_mlp.w_out[:] = 0.0
            p.token_mlp.b_out[:] = 0.0
            p.channel_mlp.w_out[:] = 0.0
            p.channel_mlp.b_out[:] = 0.0
            v = rng.normal(size=(n_tok, n_ch))
            y, _ = mixer.mixer_layer_fwd(v, p)
            np.testing.assert_array_equal(y, v)

    def test_hand_trace_2x2(self):
        rng = np.random.default_rng(21)
        p = random_layer(rng, 2, 2, hidden=1)
        v = np.array([[0.4, -1.1], [2.0, 0.3]])
        expected = ref_mixer_layer(v.tolist(), p)
        y, _ = mixer.mixer_layer_fwd(v, p)
        np.testing.assert_allclose(y, np.array(expected), atol=1e-12)

    def test_shape_preserved_random_configs(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n_tok = int(rng.integers(1, 12))
            n_ch = int(rng.integers(1, 12))
            p = random_layer(rng, n_tok, n_ch, hidden=3)
            v = rng.normal(size=(n_tok, n_ch))
            y, _ = mixer.mixer_layer_fwd(v, p)
            assert y.shape == v.shape

    @pytest.mark.parametrize("seed", range(10))
    def test_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        p = random_layer(rng, 5, 4, hidden=3)
        v = rng.normal(size=(5, 4))
        upstream = rng.normal(size=(5, 4))

        def f():
            y, _ = mixer.mixer_layer_fwd(v, p)
            return float((y * upstream).sum())

        _, cache = mixer.mixer_layer_fwd(v, p)
        grads = tree.tree_zeros_like(p)
        dv = mixer.mixer_layer_bwd(upstream, cache, p, grads)

        checks = [(dv, v)]
        checks += [(g, a) for (_, g), (_, a) in zip(tree.iter_leaves(grads), tree.iter_leaves(p))]
        for analytic, arr in checks:
            numeric = central_diff(f, arr)
            assert rel_errors(analytic, numeric).max() < 1e-5


def transposed_token_mixing(v, mlp, ln, grad_u):
    """Token mixing as a row-wise MLP on ``layernorm(v)^T``, forward and backward.

    The formulation the mixer used before it multiplied from the left;
    kept here only as a reference. Returns ``(u, (dv, dw_in, db_in, dw_out,
    db_out, dgamma, dbeta))``.
    """
    def flat(x):
        return x.reshape(-1, x.shape[-1])

    xn, ln_cache = tensor.layernorm_fwd(v, ln)
    xt = np.swapaxes(xn, -2, -1)
    h = xt @ mlp.w_in + mlp.b_in
    a = tensor.gelu(h)
    u = v + np.swapaxes(a @ mlp.w_out + mlp.b_out, -2, -1)

    gz = np.swapaxes(grad_u, -2, -1)
    dw_out = flat(a).T @ flat(gz)
    db_out = flat(gz).sum(axis=0)
    dh = (gz @ mlp.w_out.T) * tensor.gelu_grad(h)
    dw_in = flat(xt).T @ flat(dh)
    db_in = flat(dh).sum(axis=0)
    dx_ln, dgamma, dbeta = tensor.layernorm_bwd(np.swapaxes(dh @ mlp.w_in.T, -2, -1), ln_cache, ln)
    return u, (grad_u + dx_ln, dw_in, db_in, dw_out, db_out, dgamma, dbeta)


def token_mixing_fwd(v, p):
    """The token half of mixer layer ``p``: its residual block with the column kernel."""
    return tensor.mlp_block_fwd(v, p.token_mlp, p.ln_tokens, tensor.column_mlp_fwd)


def token_mixing_bwd(grad_u, cache, p):
    return tensor.mlp_block_bwd(grad_u, cache, p.token_mlp, p.ln_tokens, tensor.column_mlp_bwd)


def cache_arrays(node):
    if isinstance(node, np.ndarray):
        return [node]
    return [a for item in node for a in cache_arrays(item)]


class TestTokenMixingLayout:
    """The token half's block with the column kernel against the transposed formulation."""

    @pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 3)])
    @pytest.mark.parametrize("n_tok, n_ch, hidden", [(1, 1, 1), (1, 5, 3), (6, 1, 2), (5, 7, 4), (12, 20, 8)])
    def test_matches_transposed_formulation(self, lead, n_tok, n_ch, hidden):
        rng = np.random.default_rng(n_tok * 1000 + n_ch * 10 + len(lead))
        p = random_layer(rng, n_tok, n_ch, hidden=hidden)
        v = rng.normal(size=lead + (n_tok, n_ch))
        grad_u = rng.normal(size=v.shape)
        u, cache = token_mixing_fwd(v, p)
        dv, g_mlp, g_ln = token_mixing_bwd(grad_u, cache, p)
        ref_u, ref_grads = transposed_token_mixing(v, p.token_mlp, p.ln_tokens, grad_u)
        got = (dv, g_mlp.w_in, g_mlp.b_in, g_mlp.w_out, g_mlp.b_out, g_ln.gamma, g_ln.beta)
        assert u.shape == v.shape
        assert np.abs(u - ref_u).max() <= 1e-12 * max(np.abs(ref_u).max(), 1.0)
        for name, g, ref in zip(("dv", "w_in", "b_in", "w_out", "b_out", "gamma", "beta"), got, ref_grads):
            assert g.shape == ref.shape, name
            assert np.abs(g - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300), name
        for arr in cache_arrays(cache):
            assert arr.flags.c_contiguous

    def test_layernorm_backward_gets_contiguous_gradient(self, monkeypatch):
        seen = []
        real = tensor.layernorm_bwd

        def spy(grad_y, cache, p):
            seen.append(grad_y.flags.c_contiguous)
            return real(grad_y, cache, p)

        monkeypatch.setattr(tensor, "layernorm_bwd", spy)
        rng = np.random.default_rng(3)
        p = random_layer(rng, 4, 6, hidden=3)
        v = rng.normal(size=(2, 4, 6))
        _, cache = token_mixing_fwd(v, p)
        token_mixing_bwd(rng.normal(size=v.shape), cache, p)
        assert seen == [True]

    def test_second_backward_identical_and_cache_unmodified(self):
        rng = np.random.default_rng(4)
        p = random_layer(rng, 5, 3, hidden=2)
        v = rng.normal(size=(2, 5, 3))
        grad_u = rng.normal(size=v.shape)
        _, cache = token_mixing_fwd(v, p)
        kept = [a.copy() for a in cache_arrays(cache)]
        first = token_mixing_bwd(grad_u, cache, p)
        second = token_mixing_bwd(grad_u, cache, p)
        np.testing.assert_array_equal(first[0], second[0])
        for (_, a), (_, b) in zip(tree.iter_leaves(first[1:]), tree.iter_leaves(second[1:])):
            np.testing.assert_array_equal(a, b)
        for before, after in zip(kept, cache_arrays(cache)):
            np.testing.assert_array_equal(before, after)


def test_cache_keeps_no_layernorm_output_and_backward_recomputes_it_bitwise():
    rng = np.random.default_rng(6)
    p = random_layer(rng, 5, 7, hidden=3)
    v = rng.normal(size=(2, 5, 7))
    u, _ = token_mixing_fwd(v, p)
    _, cache = mixer.mixer_layer_fwd(v, p)
    for x, block, ln in ((v, cache.token, p.ln_tokens), (u, cache.channel, p.ln_channels)):
        xn, _ = tensor.layernorm_fwd(x, ln)
        assert tensor.layernorm_affine(block.ln.xhat, ln).tobytes() == xn.tobytes()
        assert all(a.tobytes() != xn.tobytes() for a in cache_arrays(block))


def spy_hidden(monkeypatch):
    """Record each ``h`` an MLP kernel hands to ``normal_cdf`` and to ``gelu_grad``.

    Both kernels hand ``h`` to ``normal_cdf`` in the forward pass and their
    rebuilt ``h`` to ``gelu_grad`` in the backward pass.
    """
    built, rebuilt = [], []
    real_cdf, real_grad = tensor.normal_cdf, tensor.gelu_grad
    monkeypatch.setattr(tensor, "normal_cdf", lambda x: built.append(x.copy()) or real_cdf(x))
    monkeypatch.setattr(tensor, "gelu_grad",
                        lambda x, cdf=None: rebuilt.append(x.copy()) or real_grad(x, cdf))
    return built, rebuilt


def assert_rebuilt_bitwise(cache, built, rebuilt, shape):
    assert all(a.tobytes() != built[0].tobytes() for a in cache_arrays(cache))  # no h kept
    assert len(built) == len(rebuilt) == 1
    assert built[0].shape == shape
    assert rebuilt[0].tobytes() == built[0].tobytes()


@pytest.mark.parametrize("lead, n_tok, n_ch, hidden", [
    ((), 2, 5, 8), ((4,), 2, 40, 8), ((3,), 8, 6, 8), ((2, 3), 12, 7, 3), ((5,), 50, 16, 8),
])
def test_token_mixing_backward_rebuilds_the_forwards_h_bitwise(monkeypatch, lead, n_tok, n_ch, hidden):
    built, rebuilt = spy_hidden(monkeypatch)
    rng = np.random.default_rng(n_tok * 100 + hidden)
    p = random_layer(rng, n_tok, n_ch, hidden=hidden)
    v = rng.normal(size=lead + (n_tok, n_ch))
    _, cache = token_mixing_fwd(v, p)
    token_mixing_bwd(rng.normal(size=v.shape), cache, p)
    assert_rebuilt_bitwise(cache, built, rebuilt, lead + (hidden, n_ch))


@pytest.mark.parametrize("lead, n_tok, n_ch, hidden", [
    ((6,), 4, 20, 8),    # spatial: 8 hidden units over 20 channels
    ((3,), 8, 100, 20),  # temporal: 20 hidden units over d_T channels
])
def test_channel_mixing_backward_rebuilds_the_forwards_h_bitwise(monkeypatch, lead, n_tok, n_ch, hidden):
    built, rebuilt = spy_hidden(monkeypatch)
    rng = np.random.default_rng(n_ch * 100 + hidden)
    p = random_layer(rng, n_tok, n_ch, hidden=hidden)
    u = rng.normal(size=lead + (n_tok, n_ch))
    _, cache = tensor.mlp_block_fwd(u, p.channel_mlp, p.ln_channels)
    tensor.mlp_block_bwd(rng.normal(size=u.shape), cache, p.channel_mlp, p.ln_channels)
    assert_rebuilt_bitwise(cache, built, rebuilt, lead + (n_tok, hidden))


@pytest.mark.parametrize("share_layers", [True, False])
def test_no_block_cache_holds_h(monkeypatch, share_layers):
    built, _ = spy_hidden(monkeypatch)
    cfg = small_config(share_layers=share_layers)
    params = mixer.build_params(cfg, 4, 4, 2, seed=17)
    randomise_leaves(params, np.random.default_rng(19))
    maps = desk_history(np.random.default_rng(18))
    _, cache = mixer.batch_forward(gather_windows(maps, np.array([10, 12]), cfg.temporal), params)
    layers = cache.spatial.layer_caches + [c for t in cache.temporal if t for c in t]
    assert len(layers) == 4 * cfg.n_layers
    assert len(built) == 2 * len(layers)  # one h per block
    hs = {h.tobytes() for h in built}
    assert all(a.tobytes() not in hs for _, a in tree.iter_leaves(cache))


def small_config(**kw):
    defaults = dict(
        temporal=TemporalConfig(trend=2, period=2, closeness=2,
                                trend_interval=4, period_interval=2,
                                closeness_interval=1),
        patch=2,
        channels_spatial=4,
        channels_temporal=4,
        expansion=4,
        n_layers=2,
    )
    defaults.update(kw)
    return mixer.ModelConfig(**defaults)


class TestSpatialMixer:
    def test_embedding_length_paper_grid(self):
        cfg = small_config(channels_spatial=20, n_layers=1)
        params = mixer.build_params(cfg, 10, 20, 2, seed=0)
        x = np.zeros((10, 20, 2))
        e, _ = mixer.spatial_mixer_fwd(x, params.spatial)
        assert e.shape == (1000,)

    def test_zero_propagation(self):
        cfg = small_config()
        params = mixer.build_params(cfg, 4, 4, 2, seed=1)
        zero_out_weights(params.spatial)
        e, _ = mixer.spatial_mixer_fwd(np.zeros((4, 4, 2)), params.spatial)
        np.testing.assert_array_equal(e, np.zeros_like(e))

    def test_purity(self):
        cfg = small_config()
        params = mixer.build_params(cfg, 4, 4, 2, seed=2)
        x = np.random.default_rng(3).normal(size=(4, 4, 2))
        e1, _ = mixer.spatial_mixer_fwd(x, params.spatial)
        e2, _ = mixer.spatial_mixer_fwd(x, params.spatial)
        np.testing.assert_array_equal(e1, e2)


class TestTemporalMixer:
    def test_zero_out_weights_identity(self):
        rng = np.random.default_rng(4)
        layer = random_layer(rng, 3, 6, hidden=2)
        p = mixer.TemporalMixerParams(seq_len=3, layers=[layer], n_layers=2)
        for lay in p.layers:
            lay.token_mlp.w_out[:] = 0.0
            lay.token_mlp.b_out[:] = 0.0
            lay.channel_mlp.w_out[:] = 0.0
            lay.channel_mlp.b_out[:] = 0.0
        e = rng.normal(size=(3, 6))
        y, _ = mixer.temporal_mixer_fwd(e, p)
        np.testing.assert_array_equal(y, e)

    def test_hand_trace_len2(self):
        rng = np.random.default_rng(5)
        layer = random_layer(rng, 2, 3, hidden=1)
        p = mixer.TemporalMixerParams(seq_len=2, layers=[layer], n_layers=1)
        e = rng.normal(size=(2, 3))
        expected = ref_mixer_layer(e.tolist(), layer)
        y, _ = mixer.temporal_mixer_fwd(e, p)
        np.testing.assert_allclose(y, np.array(expected), atol=1e-12)

    def test_length_mismatch(self):
        rng = np.random.default_rng(6)
        p = mixer.TemporalMixerParams(seq_len=3, layers=[random_layer(rng, 3, 4)], n_layers=1)
        with pytest.raises(ConfigError):
            mixer.temporal_mixer_fwd(rng.normal(size=(4, 4)), p)

    @pytest.mark.parametrize("seed", range(5))
    def test_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        layer = random_layer(rng, 3, 4, hidden=2)
        p = mixer.TemporalMixerParams(seq_len=3, layers=[layer], n_layers=2)
        e = rng.normal(size=(3, 4))
        upstream = rng.normal(size=(3, 4))

        def f():
            y, _ = mixer.temporal_mixer_fwd(e, p)
            return float((y * upstream).sum())

        _, cache = mixer.temporal_mixer_fwd(e, p)
        grads = tree.tree_zeros_like(p)
        de = mixer.temporal_mixer_bwd(upstream, cache, p, grads)
        for (analytic, arr) in [(de, e)] + [
            (g, a) for (_, g), (_, a) in zip(tree.iter_leaves(grads), tree.iter_leaves(p))
        ]:
            numeric = central_diff(f, arr)
            assert rel_errors(analytic, numeric).max() < 1e-5


class TestFusion:
    def test_selector(self):
        rng = np.random.default_rng(7)
        et, ep, ec = (rng.normal(size=(2, 5)) for _ in range(3))
        ones, zeros = np.ones(5), np.zeros(5)
        out = mixer.fuse(et, ep, ec, ones, zeros, zeros)
        np.testing.assert_array_equal(out, et[-1])

    def test_linearity(self):
        v = np.random.default_rng(8).normal(size=(1, 4))
        ones = np.ones(4)
        out = mixer.fuse(v, v, v, ones, ones, ones)
        np.testing.assert_allclose(out, 3 * v[-1], atol=1e-15)

    def test_componentwise_oracle(self):
        rng = np.random.default_rng(9)
        et, ep, ec = (rng.normal(size=(3, 6)) for _ in range(3))
        wt, wp, wc = (rng.normal(size=6) for _ in range(3))
        out = mixer.fuse(et, ep, ec, wt, wp, wc)
        for j in range(6):
            expected = wt[j] * et[-1, j] + wp[j] * ep[-1, j] + wc[j] * ec[-1, j]
            assert out[j] == pytest.approx(expected, abs=1e-14)

    def test_empty_branch_contributes_zero(self):
        rng = np.random.default_rng(10)
        ec = rng.normal(size=(2, 4))
        empty = np.zeros((0, 4))
        out = mixer.fuse(empty, None, ec, np.ones(4), np.ones(4), np.ones(4))
        np.testing.assert_array_equal(out, ec[-1])


class TestOutputHead:
    def test_zero_params_zero_grid(self):
        out = mixer.output_head(np.ones(6), np.zeros((6, 8)), np.zeros(8), 2, 2, 2)
        np.testing.assert_array_equal(out, np.zeros((2, 2, 2)))

    def test_scalar_dot_product(self):
        e = np.array([2.0, -3.0])
        w = np.array([[0.5], [1.5]])
        b = np.array([0.25])
        out = mixer.output_head(e, w, b, 1, 1, 1)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(2.0 * 0.5 + (-3.0) * 1.5 + 0.25)

    def test_shape_contract(self):
        rng = np.random.default_rng(11)
        out = mixer.output_head(rng.normal(size=10), rng.normal(size=(10, 24)),
                                rng.normal(size=24), 3, 4, 2)
        assert out.shape == (3, 4, 2)


def desk_history(rng, n=20, h=4, w=4, d=2):
    return rng.uniform(0, 1, size=(n, h, w, d))


class TestModelForward:
    def test_output_shape_full_variant(self):
        cfg = small_config()
        params = mixer.build_params(cfg, 4, 4, 2, seed=0)
        history = desk_history(np.random.default_rng(0))
        pred, _ = mixer.model_forward(history, params)
        assert pred.shape == (4, 4, 2)

    def test_mlp_sa_affine_in_last_closeness_step(self):
        cfg = small_config(variant="mlp_sa")
        params = mixer.build_params(cfg, 4, 4, 2, seed=1)
        zero_out_weights(params.spatial)
        params.w_trend[:] = 0.0
        params.w_period[:] = 0.0
        params.w_closeness[:] = 1.0

        rng = np.random.default_rng(2)
        base = desk_history(rng)

        def predict(last_map):
            h = base.copy()
            h[-1] = last_map
            pred, _ = mixer.model_forward(h, params)
            return pred

        m1 = rng.uniform(0, 1, size=(4, 4, 2))
        m2 = rng.uniform(0, 1, size=(4, 4, 2))
        alpha = 0.3
        mixed = predict(alpha * m1 + (1 - alpha) * m2)
        combo = alpha * predict(m1) + (1 - alpha) * predict(m2)
        np.testing.assert_allclose(mixed, combo, atol=1e-10)

    def test_grid_mismatch_raises(self):
        cfg = small_config()
        params = mixer.build_params(cfg, 4, 4, 2, seed=0)
        history = desk_history(np.random.default_rng(0), h=6, w=6)
        with pytest.raises(ConfigError):
            mixer.model_forward(history, params)

    def test_residual_collapse_to_fc_fusion_head(self):
        # zeroing every mixing MLP's output weights reduces the whole model
        # to output_head(fuse(per-patch-FC embeddings)), exactly
        cfg = small_config()
        params = mixer.build_params(cfg, 4, 4, 2, seed=13)
        zero_out_weights(params)
        rng = np.random.default_rng(14)
        history = desk_history(rng)
        pred, _ = mixer.model_forward(history, params)

        from mlpst.griddata import patchify, slice_dependencies

        branches = slice_dependencies(history, cfg.temporal)
        weights = (params.w_trend, params.w_period, params.w_closeness)
        e_hat = np.zeros(params.w_out.shape[0])
        for maps, weight in zip(branches, weights):
            tokens = patchify(maps[-1], params.spatial.patch)
            embed = (tokens @ params.spatial.fc_w + params.spatial.fc_b).reshape(-1)
            e_hat = e_hat + weight * embed
        expected = (e_hat @ params.w_out + params.b_out).reshape(4, 4, 2)
        np.testing.assert_array_equal(pred, expected)


class TestModelBackward:
    def _setup(self, seed=0, variant="full"):
        cfg = small_config(variant=variant)
        params = mixer.build_params(cfg, 4, 4, 2, seed=seed)
        rng = np.random.default_rng(seed + 100)
        history = desk_history(rng)
        return cfg, params, history, rng

    def test_zero_upstream_grad_gives_zero_grads(self):
        cfg, params, history, _ = self._setup()
        _, cache = mixer.model_forward(history, params)
        grads = mixer.batch_backward(cache, np.zeros((4, 4, 2))[np.newaxis], params)
        for _, arr in tree.iter_leaves(grads):
            np.testing.assert_array_equal(arr, np.zeros_like(arr))

    def test_unused_branch_grads_zero(self):
        cfg = small_config(
            temporal=TemporalConfig(trend=0, period=0, closeness=6, closeness_interval=1)
        )
        params = mixer.build_params(cfg, 4, 4, 2, seed=3)
        assert params.temporal_trend is None and params.temporal_period is None
        rng = np.random.default_rng(4)
        history = desk_history(rng)
        _, cache = mixer.model_forward(history, params)
        grads = mixer.batch_backward(cache, rng.normal(size=(4, 4, 2))[np.newaxis], params)
        np.testing.assert_array_equal(grads.w_trend, np.zeros_like(grads.w_trend))
        np.testing.assert_array_equal(grads.w_period, np.zeros_like(grads.w_period))
        assert np.abs(grads.w_closeness).sum() > 0

    @pytest.mark.parametrize("share_layers", [True, False])
    @pytest.mark.parametrize("share_branches", [True, False])
    def test_backward_into_a_used_tree_equals_a_fresh_tree(self, share_layers, share_branches):
        cfg = small_config(share_layers=share_layers, share_branches=share_branches)
        params = mixer.build_params(cfg, 4, 4, 2, seed=13)
        rng = np.random.default_rng(14)
        randomise_leaves(params, rng)
        maps = desk_history(rng)
        reused = tree.tree_zeros_like(params)
        for anchors in ([8, 9, 12], [10, 19]):  # the second call overwrites the first's gradients
            pred, cache = mixer.batch_forward(gather_windows(maps, np.array(anchors), cfg.temporal), params)
            upstream = rng.normal(size=pred.shape)
            fresh = mixer.batch_backward(cache, upstream, params)
            assert mixer.batch_backward(cache, upstream, params, reused) is reused
            got, want = tree.unique_leaves(reused), tree.unique_leaves(fresh)
            assert [path for path, _ in got] == [path for path, _ in want]
            for (path, a), (_, b) in zip(got, want):
                assert a.tobytes() == b.tobytes(), path

    def test_repeated_backward_identical(self):
        cfg, params, history, rng = self._setup(seed=5)
        _, cache = mixer.model_forward(history, params)
        upstream = rng.normal(size=(4, 4, 2))
        g1 = mixer.batch_backward(cache, upstream[np.newaxis], params)
        g2 = mixer.batch_backward(cache, upstream[np.newaxis], params)
        for (_, a), (_, b) in zip(tree.iter_leaves(g1), tree.iter_leaves(g2)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("variant", ["full", "mlp_at", "mlp_sa"])
    def test_end_to_end_grads_match_finite_differences(self, variant):
        cfg, params, history, rng = self._setup(seed=7, variant=variant)
        upstream = rng.normal(size=(4, 4, 2))
        randomise_leaves(params, rng)

        def f():
            pred, _ = mixer.model_forward(history, params)
            return float((pred * upstream).sum())

        _, cache = mixer.model_forward(history, params)
        grads = mixer.batch_backward(cache, upstream[np.newaxis], params)
        results = []
        for (path, g), (_, arr) in zip(tree.unique_leaves(grads), tree.unique_leaves(params)):
            numeric = central_diff(f, arr)
            results.append(compare_grads(g, numeric))
        merged = merge_results(results)
        assert merged.ok(worst=1e-3, quantile=0.99), merged


class TestFrameMerge:
    """``batch_forward`` embeds each distinct frame of a batch once."""

    # a window reads anchor-16, -8, -6, -3, -2 and -1: six distinct frames,
    # so a one-window batch merges nothing and serves as the reference
    TEMPORAL = TemporalConfig(trend=2, period=2, closeness=2, trend_interval=8,
                              period_interval=3, closeness_interval=1)
    OFFSETS = np.array([-16, -8, -6, -3, -2, -1])
    # windows that share frames; the last repeats the first
    ANCHORS = np.array([16, 17, 18, 19, 20, 16])

    def _batch(self, anchors, seed=21):
        params = mixer.build_params(small_config(temporal=self.TEMPORAL), 4, 4, 2, seed=seed)
        rng = np.random.default_rng(seed)
        randomise_leaves(params, rng)
        maps = desk_history(rng)
        return params, gather_windows(maps, anchors, self.TEMPORAL), rng

    def test_matches_per_window_loop(self):
        params, branch_maps, rng = self._batch(self.ANCHORS)
        pred, cache = mixer.batch_forward(branch_maps, params)
        windows = self.ANCHORS[:, None] + self.OFFSETS
        assert cache.n_frames == len(np.unique(windows)) == 17
        upstream = rng.normal(size=pred.shape)
        grads = mixer.batch_backward(cache, upstream, params)

        loop = tree.tree_zeros_like(params)
        e_hats = []
        for i in range(len(self.ANCHORS)):
            one = tuple(m[i : i + 1] for m in branch_maps)
            _, cache_i = mixer.batch_forward(one, params)
            assert cache_i.n_frames == len(self.OFFSETS)
            e_hats.append(cache_i.e_hat[0])
            grads_i = mixer.batch_backward(cache_i, upstream[i : i + 1], params)
            for (_, acc), (_, g) in zip(tree.unique_leaves(loop), tree.unique_leaves(grads_i)):
                acc += g
        # the head's one matmul rounds a single row differently from a block
        # of rows (BLAS picks another kernel), so it maps the stacked
        # per-window embeddings in one call
        want = mixer.output_head(np.stack(e_hats), params.w_out, params.b_out, 4, 4, 2)
        np.testing.assert_array_equal(pred, want)
        for (path, g), (_, ref) in zip(tree.unique_leaves(grads), tree.unique_leaves(loop)):
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max(), path

    def test_frame_gradients_sum_like_add_at(self, monkeypatch):
        """A frame's gradient is its window positions' gradients added in order."""
        branch_grads, frame_grads = [], []
        temporal_bwd, spatial_bwd = mixer.temporal_mixer_bwd, mixer.spatial_mixer_bwd

        def temporal_spy(*args):
            branch_grads.append(temporal_bwd(*args))
            return branch_grads[-1]

        def spatial_spy(grad_e, *args):
            frame_grads.append(grad_e)
            return spatial_bwd(grad_e, *args)

        monkeypatch.setattr(mixer, "temporal_mixer_bwd", temporal_spy)
        monkeypatch.setattr(mixer, "spatial_mixer_bwd", spatial_spy)
        params, branch_maps, rng = self._batch(self.ANCHORS)
        pred, cache = mixer.batch_forward(branch_maps, params)
        mixer.batch_backward(cache, rng.normal(size=pred.shape), params)
        (g_frames,) = frame_grads
        positions = np.concatenate(branch_grads, axis=1).reshape(-1, g_frames.shape[1])
        rows = cache.inverse.reshape(-1)
        assert g_frames.shape[0] == cache.n_frames and len(rows) == len(positions) == 36
        want = np.zeros_like(g_frames)
        for row, g in zip(rows, positions):
            want[row] += g
        np.testing.assert_array_equal(g_frames, want)
        assert np.array_equal(np.signbit(g_frames), np.signbit(want))

    def test_spatial_multiplies_follow_distinct_frames(self, monkeypatch):
        counts = {}

        def counted(name, fn):
            def wrapper(*args):
                with tensor.count_multiplies() as counter:
                    out = fn(*args)
                counts[name] = counter.count
                return out
            return wrapper

        for name in ("spatial_mixer_fwd", "spatial_mixer_bwd"):
            monkeypatch.setattr(mixer, name, counted(name, getattr(mixer, name)))

        def spatial_counts(anchors):
            params, branch_maps, rng = self._batch(anchors)
            pred, cache = mixer.batch_forward(branch_maps, params)
            mixer.batch_backward(cache, rng.normal(size=pred.shape), params)
            return counts["spatial_mixer_fwd"], counts["spatial_mixer_bwd"], cache.n_frames

        fwd2, bwd2, frames2 = spatial_counts(np.array([16, 17]))
        fwd5, bwd5, frames5 = spatial_counts(np.array([16, 17, 17, 16, 16]))
        assert frames2 == frames5 == 10  # anchors 16 and 17 share frames 14 and 15
        assert (fwd2, bwd2) == (fwd5, bwd5)
        fwd1, _, _ = spatial_counts(np.array([16]))
        assert fwd5 * 6 == frames5 * fwd1 < 5 * 6 * fwd1


class TestForwardOnly:
    """``keep_cache=False`` runs the cached forward's arithmetic and keeps nothing."""

    @pytest.mark.parametrize("grid", [(10, 20, 2), (32, 32, 2)], ids=["10x20x2", "32x32x2"])
    @pytest.mark.parametrize("share_branches", [False, True], ids=["apart", "shared"])
    @pytest.mark.parametrize("variant", ["full", "mlp_at", "mlp_sa"])
    def test_bitwise_equal_to_cached_forward(self, grid, share_branches, variant):
        h, w, d = grid
        cfg = mixer.ModelConfig(variant=variant, share_branches=share_branches)
        params = mixer.build_params(cfg, h, w, d, seed=4)
        rng = np.random.default_rng(4)
        for _, arr in tree.unique_leaves(params):
            arr += rng.normal(scale=0.05, size=arr.shape)
        maps = rng.uniform(size=(341, h, w, d))
        anchors = np.array([336, 337, 339, 341, 340])  # consecutive anchors share frames

        got = training.predict_batches(params, maps, anchors, cfg.temporal, batch_size=2)
        want = []
        for start in range(0, len(anchors), 2):
            branch_maps = gather_windows(maps, anchors[start : start + 2], cfg.temporal)
            pred, cache = mixer.batch_forward(branch_maps, params)
            assert isinstance(cache, mixer.ModelCache)
            want.append(pred)
        assert got.tobytes() == np.concatenate(want).tobytes()

        history = maps[:339]
        cached, cache = mixer.model_forward(history, params)
        lean, no_cache = mixer.model_forward(history, params, keep_cache=False)
        assert no_cache is None and cache is not None
        assert lean.tobytes() == cached.tobytes()

    def test_branch_forwards_return_no_cache(self):
        params = mixer.build_params(small_config(), 4, 4, 2, seed=2)
        rng = np.random.default_rng(2)
        randomise_leaves(params, rng)
        x = rng.normal(size=(2, 4, 4, 2))
        e, spatial = mixer.spatial_mixer_fwd(x, params.spatial, False)
        y, temporal = mixer.temporal_mixer_fwd(e[np.newaxis], params.temporal_trend, False)
        assert spatial is None and temporal is None
        want_e, _ = mixer.spatial_mixer_fwd(x, params.spatial)
        want_y, _ = mixer.temporal_mixer_fwd(want_e[np.newaxis], params.temporal_trend)
        assert e.tobytes() == want_e.tobytes() and y.tobytes() == want_y.tobytes()


class TestSharing:
    def test_shared_layers_accumulate_across_applications(self):
        # gradient of a 2-deep shared stack must differ from a 1-deep stack
        cfg_shared = small_config(n_layers=2, share_layers=True)
        params = mixer.build_params(cfg_shared, 4, 4, 2, seed=9)
        assert len(params.spatial.layers) == 1
        assert params.spatial.n_layers == 2

    def test_unshared_has_distinct_layers(self):
        cfg = small_config(n_layers=3, share_layers=False)
        params = mixer.build_params(cfg, 4, 4, 2, seed=9)
        assert len(params.spatial.layers) == 3
        assert params.spatial.layers[0] is not params.spatial.layers[1]

    def test_branch_sharing_groups_equal_lengths(self):
        cfg = small_config(share_branches=True)
        params = mixer.build_params(cfg, 4, 4, 2, seed=9)
        # trend, period, closeness all have length 2 here -> one shared set
        assert params.temporal_trend is params.temporal_period
        assert params.temporal_trend is params.temporal_closeness

    def test_branch_sharing_respects_distinct_lengths(self):
        cfg = small_config(
            share_branches=True,
            temporal=TemporalConfig(trend=2, period=2, closeness=8,
                                    trend_interval=4, period_interval=2,
                                    closeness_interval=1),
        )
        params = mixer.build_params(cfg, 4, 4, 2, seed=9)
        assert params.temporal_trend is params.temporal_period
        assert params.temporal_closeness is not params.temporal_trend

    def test_shared_branch_gradients_match_fd(self):
        cfg = small_config(share_branches=True)
        params = mixer.build_params(cfg, 4, 4, 2, seed=11)
        rng = np.random.default_rng(12)
        history = desk_history(rng)
        upstream = rng.normal(size=(4, 4, 2))
        randomise_leaves(params, rng)
        assert params.temporal_trend is params.temporal_closeness

        def f():
            pred, _ = mixer.model_forward(history, params)
            return float((pred * upstream).sum())

        _, cache = mixer.model_forward(history, params)
        grads = mixer.batch_backward(cache, upstream[np.newaxis], params)
        results = []
        for (_, g), (_, arr) in zip(tree.unique_leaves(grads), tree.unique_leaves(params)):
            numeric = central_diff(f, arr)
            results.append(compare_grads(g, numeric))
        assert merge_results(results).ok()


class TestParamCount:
    def test_hand_counted_toy(self):
        # 1x1 grid, d=1, P=1 -> N_P=1; C_S=2 -> d_T=2; one shared layer, hidden=1
        cfg = mixer.ModelConfig(
            temporal=TemporalConfig(trend=0, period=0, closeness=2, closeness_interval=1),
            patch=1, channels_spatial=2, channels_temporal=1, expansion=1, n_layers=1,
        )
        params = mixer.build_params(cfg, 1, 1, 1, seed=0)
        counts = mixer.param_count(params)
        # per-patch FC: 1*2 + 2 = 4
        assert counts["per_patch_fc"] == 4
        # spatial layer: token mlp (1->1->1): 1+1+1+1=4; ln_tokens over C_S=2: 4
        #                channel mlp (2->1->2): 2+1+2+2=7; ln_channels 4  -> 19
        assert counts["spatial_mixer"] == 19
        # closeness mixer: token mlp (2->1->2): 7; ln_tokens over d_T=2: 4
        #                  channel mlp (2->1->2): 7; ln_channels 4 -> 22
        assert counts["temporal_closeness"] == 22
        assert "temporal_trend" not in counts
        # fusion: 3 vectors of length d_T=2
        assert counts["fusion"] == 6
        # head: 2*1 + 1 = 3
        assert counts["output_head"] == 3
        assert mixer.param_total(params) == 4 + 19 + 22 + 6 + 3

    def test_sharing_strictly_reduces(self):
        shared = mixer.build_params(small_config(share_layers=True), 4, 4, 2, seed=0)
        unshared = mixer.build_params(small_config(share_layers=False), 4, 4, 2, seed=0)
        assert mixer.param_total(shared) < mixer.param_total(unshared)

    def test_branch_sharing_counts_once(self):
        merged = mixer.build_params(small_config(share_branches=True), 4, 4, 2, seed=0)
        split = mixer.build_params(small_config(share_branches=False), 4, 4, 2, seed=0)
        assert mixer.param_total(merged) < mixer.param_total(split)

    def test_default_paper_config_magnitude(self):
        cfg = mixer.ModelConfig()  # paper defaults: P=2, C_S=C_T=20, N=8, expansion=8
        params = mixer.build_params(cfg, 10, 20, 2, seed=0)
        total = mixer.param_total(params)
        assert total < 10**6

    def test_variant_groups_are_strict_subsets(self):
        full = set(mixer.param_count(mixer.build_params(small_config(), 4, 4, 2, 0)))
        at = set(mixer.param_count(mixer.build_params(small_config(variant="mlp_at"), 4, 4, 2, 0)))
        sa = set(mixer.param_count(mixer.build_params(small_config(variant="mlp_sa"), 4, 4, 2, 0)))
        assert at < full
        assert sa < full


class TestComplexityCounts:
    def token_mixing_count(self, n_patches, c_s=6, hidden=8):
        rng = np.random.default_rng(0)
        p = random_layer(rng, n_patches, c_s, hidden=hidden)
        v = rng.normal(size=(n_patches, c_s))
        with tensor.count_multiplies() as counter:
            token_mixing_fwd(v, p)
        return counter.count

    def test_token_mixing_linear_in_patch_count(self):
        counts = {n: self.token_mixing_count(n) for n in (8, 16, 32)}
        slope1 = (counts[16] - counts[8]) / 8
        slope2 = (counts[32] - counts[16]) / 16
        assert slope1 == slope2  # exact affine fit, zero residual

    def temporal_total_count(self, t, p, c, d_t=24):
        cfg = TemporalConfig(trend=t, period=p, closeness=c,
                             trend_interval=3, period_interval=2, closeness_interval=1)
        rng = np.random.default_rng(1)
        total = 0
        for length in (t, p, c):
            if length == 0:
                continue
            layer = random_layer(rng, length, d_t, hidden=4)
            tp = mixer.TemporalMixerParams(seq_len=length, layers=[layer], n_layers=2)
            e = rng.normal(size=(length, d_t))
            with tensor.count_multiplies() as counter:
                mixer.temporal_mixer_fwd(e, tp)
            total += counter.count
        return total

    def test_temporal_counts_affine_in_window(self):
        # same branch structure scaled: T = 8, 16, 32 with fixed d_T
        counts = {}
        for scale in (1, 2, 4):
            t, p, c = 2 * scale, 2 * scale, 4 * scale
            counts[t + p + c] = self.temporal_total_count(t, p, c)
        ts = sorted(counts)
        slope1 = (counts[ts[1]] - counts[ts[0]]) / (ts[1] - ts[0])
        slope2 = (counts[ts[2]] - counts[ts[1]]) / (ts[2] - ts[1])
        assert slope1 == slope2


class TestParamsRecordTheirConfig:
    def test_build_params_keeps_a_copy_of_its_config(self):
        cfg = small_config(variant="mlp_sa", predict_channel=1, n_layers=0)
        params = mixer.build_params(cfg, 4, 4, 2, seed=0)
        assert params.config == cfg and params.config is not cfg
        cfg.n_layers = 3  # the caller's object may change; the tree's copy does not
        assert params.config.n_layers == 0

    def test_tree_copy_and_zeros_keep_the_config(self):
        params = mixer.build_params(small_config(share_branches=True), 4, 4, 2, seed=0)
        for derived in (tree.tree_copy(params), tree.tree_zeros_like(params)):
            assert derived.config == params.config

    @pytest.mark.parametrize("variant, predict_channel", [("full", None), ("mlp_at", 1)])
    def test_variant_and_predict_channel_read_the_config(self, variant, predict_channel):
        names = {f.name for f in dataclasses.fields(mixer.ModelParams)}
        assert "config" in names and not names & {"variant", "predict_channel"}
        cfg = small_config(variant=variant, predict_channel=predict_channel)
        params = mixer.build_params(cfg, 4, 4, 2, seed=0)
        assert (params.config.variant, params.predict_channel) == (variant, predict_channel)
        assert params.out_channels == (2 if predict_channel is None else 1)


class TestTreeUtils:
    def test_leaf_order_deterministic(self):
        params = mixer.build_params(small_config(), 4, 4, 2, seed=0)
        paths1 = [p for p, _ in tree.iter_leaves(params)]
        paths2 = [p for p, _ in tree.iter_leaves(params)]
        assert paths1 == paths2
        assert paths1[0] == "spatial.fc_w"

    def test_zeros_like_preserves_sharing(self):
        params = mixer.build_params(small_config(share_branches=True), 4, 4, 2, seed=0)
        zeros = tree.tree_zeros_like(params)
        assert zeros.temporal_trend is zeros.temporal_period

    def test_unique_leaves_dedups_shared(self):
        params = mixer.build_params(small_config(share_branches=True), 4, 4, 2, seed=0)
        all_paths = list(tree.iter_leaves(params))
        unique = tree.unique_leaves(params)
        assert len(unique) < len(all_paths)

    def test_mapped_tree_is_freed_once_dropped(self):
        # without the cycle collector: a mapped tree that a reference cycle
        # kept alive would hold a parameter-sized copy until the next collection
        params = mixer.build_params(small_config(), 4, 4, 2, seed=0)
        gc.disable()
        try:
            copied = tree.tree_copy(params)
            leaves = [weakref.ref(arr) for _, arr in tree.iter_leaves(copied)]
            del copied
            assert [ref for ref in leaves if ref() is not None] == []
        finally:
            gc.enable()
