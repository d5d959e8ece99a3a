"""Tests for the dense primitives and their hand-paired backward passes."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import erf

from mlpst import tensor
from mlpst.errors import ConfigError
from mlpst.gradcheck import central_diff, rel_errors


def ref_gelu(x: float) -> float:
    """Independent erf-based oracle for the exact GELU."""
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


class TestGelu:
    def test_zero(self):
        assert tensor.gelu(0.0) == 0.0

    def test_saturation(self):
        assert abs(tensor.gelu(10.0) - 10.0) < 1e-9

    def test_erf_oracle(self):
        for x in (1.0, -1.0, 0.3, -2.7, 5.0):
            assert tensor.gelu(x) == pytest.approx(ref_gelu(x), abs=1e-15)

    def test_grad_matches_finite_difference(self):
        xs = np.linspace(-4.0, 4.0, 41)
        for x in xs:
            h = 1e-6
            numeric = (ref_gelu(x + h) - ref_gelu(x - h)) / (2 * h)
            assert tensor.gelu_grad(x) == pytest.approx(numeric, abs=1e-8)

    def test_elementwise_over_matrix(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        y = tensor.gelu(x)
        assert y.shape == x.shape
        assert y[1, 2] == pytest.approx(ref_gelu(x[1, 2]))


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        p = tensor.layernorm_init(5)
        x = np.full((2, 5), 3.7)
        y, _ = tensor.layernorm_fwd(x, p)
        np.testing.assert_allclose(y, 0.0, atol=1e-12)

    def test_zero_gamma_collapses_to_beta(self):
        p = tensor.LayerNormParams(gamma=np.zeros(4), beta=np.full(4, 2.5))
        x = np.random.default_rng(1).normal(size=(3, 4))
        y, _ = tensor.layernorm_fwd(x, p)
        np.testing.assert_array_equal(y, np.full((3, 4), 2.5))

    def test_against_bruteforce_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 4))
        p = tensor.LayerNormParams(gamma=rng.normal(size=4), beta=rng.normal(size=4))
        y, _ = tensor.layernorm_fwd(x, p)
        for i in range(3):
            row = x[i]
            mean = sum(row) / 4
            var = sum((v - mean) ** 2 for v in row) / 4
            for j in range(4):
                expected = p.gamma[j] * (row[j] - mean) / math.sqrt(var + p.eps) + p.beta[j]
                assert y[i, j] == pytest.approx(expected, abs=1e-12)

    def test_eps_is_a_constant_not_a_field(self):
        names = [f.name for f in dataclasses.fields(tensor.LayerNormParams)]
        assert names == ["gamma", "beta"]
        assert tensor.layernorm_init(3).eps == 1e-5

    def test_dimension_mismatch(self):
        p = tensor.layernorm_init(4)
        with pytest.raises(ConfigError):
            tensor.layernorm_fwd(np.zeros((2, 5)), p)

    @pytest.mark.parametrize("seed", range(5))
    def test_backward_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 6))
        p = tensor.LayerNormParams(
            gamma=rng.normal(size=6), beta=rng.normal(size=6)
        )
        upstream = rng.normal(size=(3, 6))

        def f():
            y, _ = tensor.layernorm_fwd(x, p)
            return float((y * upstream).sum())

        _, cache = tensor.layernorm_fwd(x, p)
        dx, dgamma, dbeta = tensor.layernorm_bwd(upstream, cache, p)
        for analytic, arr in ((dx, x), (dgamma, p.gamma), (dbeta, p.beta)):
            numeric = central_diff(f, arr)
            assert rel_errors(analytic, numeric).max() < 1e-6


class TestMlpBlock:
    def _random_block(self, rng, dim=4, hidden=3):
        p = tensor.MlpBlockParams(
            w_in=rng.normal(size=(dim, hidden)),
            b_in=rng.normal(size=hidden),
            w_out=rng.normal(size=(hidden, dim)),
            b_out=rng.normal(size=dim),
        )
        ln = tensor.LayerNormParams(gamma=rng.normal(size=dim), beta=rng.normal(size=dim))
        return p, ln

    def test_zero_out_weights_is_identity_bitwise(self):
        rng = np.random.default_rng(3)
        p, ln = self._random_block(rng)
        p.w_out[:] = 0.0
        p.b_out[:] = 0.0
        x = rng.normal(size=(5, 4))
        y, _ = tensor.mlp_block_fwd(x, p, ln)
        np.testing.assert_array_equal(y, x)

    def test_gradient_container_has_the_constant_eps(self):
        rng = np.random.default_rng(4)
        p, ln = self._random_block(rng)
        x = rng.normal(size=(5, 4))
        _, cache = tensor.mlp_block_fwd(x, p, ln)
        _, _, g_ln = tensor.mlp_block_bwd(rng.normal(size=(5, 4)), cache, p, ln)
        assert g_ln.eps == 1e-5
        assert [f.name for f in dataclasses.fields(g_ln)] == ["gamma", "beta"]

    def test_hand_sized_2_1_2_block(self):
        # single row through a 2 -> 1 -> 2 block, evaluated with scalar math
        x1, x2 = 0.8, -0.3
        a, b, c = 0.5, -1.2, 0.1          # w_in, b_in
        u, v = 0.7, 0.4                   # w_out row
        s1, s2 = -0.2, 0.05               # b_out
        g1, g2, be1, be2 = 1.1, 0.9, 0.2, -0.1
        eps = 1e-5

        mean = (x1 + x2) / 2
        var = ((x1 - mean) ** 2 + (x2 - mean) ** 2) / 2
        n1 = g1 * (x1 - mean) / math.sqrt(var + eps) + be1
        n2 = g2 * (x2 - mean) / math.sqrt(var + eps) + be2
        act = ref_gelu(n1 * a + n2 * b + c)
        expected = [x1 + act * u + s1, x2 + act * v + s2]

        p = tensor.MlpBlockParams(
            w_in=np.array([[a], [b]]),
            b_in=np.array([c]),
            w_out=np.array([[u, v]]),
            b_out=np.array([s1, s2]),
        )
        ln = tensor.LayerNormParams(gamma=np.array([g1, g2]), beta=np.array([be1, be2]))
        y, _ = tensor.mlp_block_fwd(np.array([[x1, x2]]), p, ln)
        np.testing.assert_allclose(y[0], expected, atol=1e-14)

    def test_shape_preserved(self):
        rng = np.random.default_rng(11)
        p, ln = self._random_block(rng)
        for shape in ((1, 4), (7, 4), (2, 3, 4)):
            x = rng.normal(size=shape)
            y, _ = tensor.mlp_block_fwd(x, p, ln)
            assert y.shape == x.shape

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(0)
        p, ln = self._random_block(rng)
        with pytest.raises(ConfigError):
            tensor.mlp_block_fwd(np.zeros((2, 5)), p, ln)

    @pytest.mark.parametrize("seed", range(20))
    def test_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        p, ln = self._random_block(rng)
        x = rng.normal(size=(3, 4))
        upstream = np.ones((3, 4))  # scalar loss sum(y)

        def f():
            y, _ = tensor.mlp_block_fwd(x, p, ln)
            return float(y.sum())

        _, cache = tensor.mlp_block_fwd(x, p, ln)
        dx, gp, gln = tensor.mlp_block_bwd(upstream, cache, p, ln)
        pairs = [
            (dx, x),
            (gp.w_in, p.w_in), (gp.b_in, p.b_in),
            (gp.w_out, p.w_out), (gp.b_out, p.b_out),
            (gln.gamma, ln.gamma), (gln.beta, ln.beta),
        ]
        for analytic, arr in pairs:
            numeric = central_diff(f, arr)
            assert rel_errors(analytic, numeric).max() < 1e-5

    def test_backward_does_not_mutate_cache(self):
        rng = np.random.default_rng(4)
        p, ln = self._random_block(rng)
        x = rng.normal(size=(3, 4))
        upstream = rng.normal(size=(3, 4))
        _, cache = tensor.mlp_block_fwd(x, p, ln)
        first = tensor.mlp_block_bwd(upstream, cache, p, ln)
        second = tensor.mlp_block_bwd(upstream, cache, p, ln)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1].w_in, second[1].w_in)


class TestInit:
    def test_zeros(self):
        np.testing.assert_array_equal(tensor.init_params((2, 3), None), np.zeros((2, 3)))

    def test_same_seed_bit_identical(self):
        a = tensor.init_params((8, 5), 42)
        b = tensor.init_params((8, 5), 42)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        a = tensor.init_params((8, 5), 1)
        b = tensor.init_params((8, 5), 2)
        assert not np.array_equal(a, b)

    def test_uniform_fanin_statistics(self):
        m = tensor.init_params((100, 100), 9)
        bound = 1.0 / 10.0
        assert np.all(np.abs(m) <= bound)
        # variance of U(-a, a) is a^2/3; three standard errors around 0
        se = bound / math.sqrt(3 * m.size)
        assert abs(m.mean()) < 3 * se


class TestMultiplyCounter:
    def test_counts_matmul_products(self):
        a = np.ones((3, 4))
        b = np.ones((4, 5))
        with tensor.count_multiplies() as counter:
            tensor.matmul(a, b)
        assert counter.count == 3 * 4 * 5

    def test_batched_counts(self):
        a = np.ones((2, 7, 3, 4))
        b = np.ones((4, 5))
        with tensor.count_multiplies() as counter:
            tensor.matmul(a, b)
        assert counter.count == 2 * 7 * 3 * 4 * 5

    def test_matrix_times_batch_counts(self):
        # (5, 4) @ (2, 3, 4, 6): 2*3 products of (5, 4) @ (4, 6)
        with tensor.count_multiplies() as counter:
            out = tensor.matmul(np.ones((5, 4)), np.ones((2, 3, 4, 6)))
        assert out.shape == (2, 3, 5, 6)
        assert counter.count == 2 * 3 * 5 * 4 * 6

    def test_batch_times_batch_counts(self):
        with tensor.count_multiplies() as counter:
            out = tensor.matmul(np.ones((7, 3, 4)), np.ones((7, 4, 2)))
        assert out.shape == (7, 3, 2)
        assert counter.count == 7 * 3 * 4 * 2

    def test_left_product_counts_as_transposed_product(self):
        # w^T @ x over a batch counts what the old (x^T @ w) row form counted
        w, x = np.ones((9, 5)), np.ones((4, 9, 3))
        with tensor.count_multiplies() as left:
            tensor.matmul(w.T, x)
        with tensor.count_multiplies() as right:
            tensor.matmul(np.swapaxes(x, -1, -2), w)
        assert left.count == right.count == 4 * 3 * 9 * 5

    def test_inactive_outside_context(self):
        with tensor.count_multiplies() as counter:
            pass
        tensor.matmul(np.ones((2, 2)), np.ones((2, 2)))
        assert counter.count == 0


# ---------------------------------------------------------------------------
# the kernels against the formulas they replaced, bit for bit


def old_gelu(x):
    return 0.5 * x * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))


def old_gelu_grad(x):
    cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    return cdf + x * pdf


def old_layernorm_fwd(x, p):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + p.eps)
    xhat = (x - mean) * inv_std
    return p.gamma * xhat + p.beta, xhat, inv_std


def old_layernorm_bwd(grad_y, xhat, inv_std, p):
    lead = tuple(range(grad_y.ndim - 1))
    dgamma = (grad_y * xhat).sum(axis=lead)
    dbeta = grad_y.sum(axis=lead)
    dxhat = grad_y * p.gamma
    dx = (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    ) * inv_std
    return dx, dgamma, dbeta


SHAPES = [(1,), (7,), (1, 1), (3, 1), (4, 9), (2, 3, 20), (2, 2, 3, 5), (5, 50, 20)]


def cache_copy(cache):
    return [np.array(a, copy=True) for a in tree_arrays(cache)]


def tree_arrays(node):
    if isinstance(node, np.ndarray):
        return [node]
    return [a for item in node for a in tree_arrays(item)]


class TestAgainstReplacedFormulas:
    def test_gelu_bitwise(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(scale=s, size=4000) for s in (0.1, 1.0, 4.0, 30.0)])
        x = np.concatenate([x, [0.0, -0.0, 1e-300, -1e-300, 5e-324, 40.0, -40.0]])
        np.testing.assert_array_equal(tensor.gelu(x), old_gelu(x))
        cdf = tensor.normal_cdf(x)
        np.testing.assert_array_equal(x * cdf, old_gelu(x))
        np.testing.assert_array_equal(tensor.gelu_grad(x), old_gelu_grad(x))
        np.testing.assert_array_equal(tensor.gelu_grad(x, cdf), old_gelu_grad(x))
        for v in (0.3, -2.7):
            assert tensor.gelu(v) == old_gelu(v)
            assert tensor.gelu_grad(v) == old_gelu_grad(v)

    def test_normal_cdf_sign_restored_bitwise(self):
        # erf runs on |x| and copysign restores the sign: bitwise the signed
        # erf, since scipy's erf is odd to the bit
        rng = np.random.default_rng(24)
        x = np.concatenate([rng.normal(scale=s, size=200_000)
                            for s in (1e-300, 1e-8, 1e-2, 1.0, 6.0, 40.0)])
        edges = [0.0, 5e-324, 1.0, 6.0, 27.0, 40.0, np.inf]
        x = np.concatenate([x, edges, np.negative(edges), [np.nan]])
        want = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
        assert tensor.normal_cdf(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_layernorm_bitwise(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        dim = shape[-1]
        p = tensor.LayerNormParams(gamma=rng.normal(size=dim), beta=rng.normal(size=dim))
        x = rng.normal(loc=3.0, scale=2.0, size=shape)
        grad_y = rng.normal(size=shape)
        y, cache = tensor.layernorm_fwd(x, p)
        ref_y, ref_xhat, ref_inv_std = old_layernorm_fwd(x, p)
        np.testing.assert_array_equal(y, ref_y)
        np.testing.assert_array_equal(cache.xhat, ref_xhat)
        np.testing.assert_array_equal(cache.inv_std, ref_inv_std)
        kept = cache_copy(cache)
        first = tensor.layernorm_bwd(grad_y, cache, p)
        second = tensor.layernorm_bwd(grad_y, cache, p)
        for got, again, ref in zip(first, second, old_layernorm_bwd(grad_y, ref_xhat, ref_inv_std, p)):
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(again, ref)
        for before, after in zip(kept, tree_arrays(cache)):
            np.testing.assert_array_equal(before, after)

    def test_mlp_forward_bitwise(self):
        rng = np.random.default_rng(5)
        p = tensor.MlpBlockParams(
            w_in=rng.normal(size=(6, 4)), b_in=rng.normal(size=4),
            w_out=rng.normal(size=(4, 6)), b_out=rng.normal(size=6),
        )
        xn = rng.normal(size=(3, 5, 6))
        z, cdf = tensor.mlp_fwd(xn, p)
        ref_h = xn @ p.w_in + p.b_in
        # h is not returned: both row passes build it with one helper
        np.testing.assert_array_equal(tensor._row_hidden(xn, p), ref_h)
        np.testing.assert_array_equal(cdf, 0.5 * (1.0 + erf(ref_h * (1.0 / math.sqrt(2.0)))))
        np.testing.assert_array_equal(ref_h * cdf, old_gelu(ref_h))
        np.testing.assert_array_equal(z, old_gelu(ref_h) @ p.w_out + p.b_out)


class TestBackwardKeepsCache:
    def _params(self, rng, dim, hidden):
        return tensor.MlpBlockParams(
            w_in=rng.normal(size=(dim, hidden)), b_in=rng.normal(size=hidden),
            w_out=rng.normal(size=(hidden, dim)), b_out=rng.normal(size=dim),
        )

    @pytest.mark.parametrize("column", [False, True])
    def test_second_backward_identical_and_cache_unmodified(self, column):
        rng = np.random.default_rng(8)
        fwd, bwd = (tensor.column_mlp_fwd, tensor.column_mlp_bwd) if column else (tensor.mlp_fwd, tensor.mlp_bwd)
        p = self._params(rng, 5, 3)
        xn = rng.normal(size=(2, 5, 5))
        z, cdf = fwd(xn, p)
        cache = tensor.MlpBlockCache(cdf=cdf, ln=tensor.LayerNormCache(
            xhat=np.zeros(1), inv_std=np.zeros(1)))
        kept = cache_copy((xn, cache))
        grad = rng.normal(size=z.shape)
        first = bwd(grad, xn, cache, p)
        second = bwd(grad, xn, cache, p)
        np.testing.assert_array_equal(first[0], second[0])
        for name in ("w_in", "b_in", "w_out", "b_out"):
            np.testing.assert_array_equal(getattr(first[1], name), getattr(second[1], name))
        for before, after in zip(kept, tree_arrays((xn, cache))):
            np.testing.assert_array_equal(before, after)

    @pytest.mark.parametrize("seed", range(5))
    def test_column_mlp_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        p = self._params(rng, 4, 3)
        xn = rng.normal(size=(2, 4, 3))
        upstream = rng.normal(size=(2, 4, 3))

        def f():
            return float((tensor.column_mlp_fwd(xn, p)[0] * upstream).sum())

        z, cdf = tensor.column_mlp_fwd(xn, p)
        cache = tensor.MlpBlockCache(cdf=cdf, ln=None)
        dxn, grads = tensor.column_mlp_bwd(upstream, xn, cache, p)
        pairs = [(dxn, xn)] + [(getattr(grads, n), getattr(p, n)) for n in ("w_in", "b_in", "w_out", "b_out")]
        for analytic, arr in pairs:
            assert rel_errors(analytic, central_diff(f, arr)).max() < 1e-6
