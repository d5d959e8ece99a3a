"""Dense 64-bit numerics with hand-paired forward/backward passes.

Every primitive the model needs lives here: GELU, LayerNorm, the two-layer
MLP (row-wise, and column-wise for token mixing), the residual MLP block,
seeded initialisation, and a matmul wrapper that can count scalar
multiplies for complexity measurements. There is no autodiff tape; each
``*_fwd`` returns a cache that its ``*_bwd`` partner consumes. Whether a
cache is kept is the caller's choice: training keeps every one until the
backward pass, while forward-only callers (``mixer.batch_forward`` with
``keep_cache=False``) drop a mixer layer's caches when the layer returns.
A cache owns the arrays it holds, so its caller may hand them to the next
forward pass once the backward pass is done: inside :func:`reusing`, the
allocation sites whose results a cache keeps take an array of their shape
from the given ones instead of a new one. They are ``xhat`` in
:func:`layernorm_fwd` and ``cdf`` in :func:`normal_cdf` as the MLP kernels
call it. Neither MLP kernel keeps its ``h``: its backward pass rebuilds it
from the LayerNorm output.

Conventions:

- arrays are float64, shape ``(..., rows, cols)``; leading axes are batch
  axes and every op treats the last axis as the feature axis,
- parameter matrices are ``(in_dim, out_dim)`` so a row vector maps through
  ``row @ w + b`` (and a column through ``w^T @ col + b``),
- backward passes never mutate their cache, so one cache supports repeated
  backward calls.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np
from scipy.special import erf

from .errors import ConfigError

Array = np.ndarray

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# instrumented matmul


class MultiplyCounter:
    """Tally of scalar multiplies performed by :func:`matmul`."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


_active_counter: MultiplyCounter | None = None


@contextmanager
def count_multiplies():
    """Count matmul scalar multiplies executed inside the ``with`` block.

    Counting is process-global; only the innermost active counter tallies.
    """
    global _active_counter
    previous = _active_counter
    counter = MultiplyCounter()
    _active_counter = counter
    try:
        yield counter
    finally:
        _active_counter = previous


def matmul(a: Array, b: Array, out: Array | None = None) -> Array:
    """``a @ b``, into ``out`` when given; counts ``out.size * a.shape[-1]`` multiplies.

    That is one multiply per term of every output entry, whether the batch
    axes sit on ``a``, on ``b`` or on both.
    """
    out = np.matmul(a, b, out=out)
    if _active_counter is not None:
        _active_counter.count += out.size * a.shape[-1]
    return out


def dense_grads(x: Array, grad: Array) -> tuple[Array, Array]:
    """Gradients ``(x^T grad, sum grad)`` of ``w`` and ``b`` in ``x @ w + b``.

    Every leading axis counts as rows; ``x`` and ``grad`` should be
    C-contiguous so the flattening is a view.
    """
    x2 = x.reshape(-1, x.shape[-1])
    g2 = grad.reshape(-1, grad.shape[-1])
    return matmul(x2.T, g2), g2.sum(axis=0)


# ---------------------------------------------------------------------------
# reused cache arrays


_spare: dict[tuple[int, ...], list[Array]] | None = None


@contextmanager
def reusing(arrays):
    """Let the cached allocations inside the ``with`` block reuse ``arrays``.

    :func:`_empty` hands each array out at most once, to a request of
    exactly its shape; what has no taker stays with the caller. The arrays
    must be float64, C-contiguous and dead: every one handed out is
    overwritten. Only the innermost active block hands arrays out.
    """
    global _spare
    previous = _spare
    pool: dict[tuple[int, ...], list[Array]] = {}
    for a in {id(a): a for a in arrays}.values():  # an array listed twice is one array
        pool.setdefault(a.shape, []).append(a)
    _spare = pool
    try:
        yield
    finally:
        _spare = previous


def _empty(shape: tuple[int, ...]) -> Array:
    """An uninitialised float64 array: a spare one inside :func:`reusing`."""
    if _spare:
        free = _spare.get(shape)
        if free:
            return free.pop()
    return np.empty(shape)


# ---------------------------------------------------------------------------
# GELU


def normal_cdf(x):
    """Standard normal CDF ``Phi(x) = 0.5 * (1 + erf(x / sqrt(2)))``."""
    # every step updates one fresh array: a large temporary freed mid-pass
    # can stay resident and raise the process's peak RSS
    cdf = np.multiply(x, _INV_SQRT2, out=_empty(np.shape(x)))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def gelu(x):
    """Exact GELU ``x * Phi(x)`` using the erf form of the normal CDF."""
    x = np.asarray(x, dtype=np.float64)
    return x * normal_cdf(x)


def gelu_grad(x, cdf=None):
    """Derivative ``Phi(x) + x * phi(x)`` of the exact GELU.

    ``cdf`` is ``normal_cdf(x)`` when the caller kept it from the forward
    pass; only the density is evaluated then.
    """
    x = np.asarray(x, dtype=np.float64)
    if cdf is None:
        cdf = normal_cdf(x)
    grad = np.multiply(x, -0.5, out=np.empty(x.shape))
    grad *= x
    np.exp(grad, out=grad)
    grad *= _INV_SQRT_2PI
    grad *= x
    grad += cdf
    return grad


# ---------------------------------------------------------------------------
# LayerNorm


@dataclass
class LayerNormParams:
    """Affine LayerNorm parameters over a fixed feature dimension; ``eps`` is a constant."""

    gamma: Array
    beta: Array
    eps: ClassVar[float] = 1e-5


def layernorm_init(dim: int) -> LayerNormParams:
    return LayerNormParams(gamma=np.ones(dim), beta=np.zeros(dim))


class LayerNormCache(NamedTuple):
    xhat: Array
    inv_std: Array


def layernorm_fwd(x: Array, p: LayerNormParams) -> tuple[Array, LayerNormCache]:
    """Normalise each row of the last axis to zero mean / unit variance.

    Uses the population (biased) variance, eps-stabilised, then applies the
    gamma/beta affine map. ``x`` is centred once; the variance is the mean
    of the squared centred values, which is how ``np.var`` computes it.
    """
    dim = p.gamma.shape[0]
    if x.shape[-1] != dim:
        raise ConfigError(
            f"layernorm dimension mismatch: input has {x.shape[-1]} features, "
            f"params expect {dim}"
        )
    xhat = np.subtract(x, x.mean(axis=-1, keepdims=True), out=_empty(x.shape))
    y = np.multiply(xhat, xhat)
    inv_std = y.mean(axis=-1, keepdims=True)
    inv_std += p.eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    return layernorm_affine(xhat, p, out=y), LayerNormCache(xhat=xhat, inv_std=inv_std)


def layernorm_affine(xhat: Array, p: LayerNormParams, out: Array | None = None) -> Array:
    """The LayerNorm output ``xhat * gamma + beta``, into ``out`` when given.

    :func:`layernorm_fwd` ends with it, and the backward passes call it to
    recompute the output from the cached ``xhat`` with the same operations,
    so the recomputed output is bitwise the forward one.
    """
    y = np.multiply(xhat, p.gamma, out=out)
    y += p.beta
    return y


def layernorm_bwd(
    grad_y: Array, cache: LayerNormCache, p: LayerNormParams
) -> tuple[Array, Array, Array]:
    """Map an upstream gradient to ``(dx, dgamma, dbeta)``."""
    xhat, inv_std = cache
    lead = tuple(range(grad_y.ndim - 1))
    prod = grad_y * xhat
    dgamma = prod.sum(axis=lead)
    dbeta = grad_y.sum(axis=lead)
    dx = grad_y * p.gamma  # dxhat, turned into dx in place
    np.multiply(dx, xhat, out=prod)
    proj = prod.mean(axis=-1, keepdims=True)
    dx -= dx.mean(axis=-1, keepdims=True)
    np.multiply(xhat, proj, out=prod)
    dx -= prod
    dx *= inv_std
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# residual MLP block


@dataclass
class MlpBlockParams:
    """Two-layer MLP weights; in/out dims match so the residual add works."""

    w_in: Array   # (in_dim, hidden)
    b_in: Array   # (hidden,)
    w_out: Array  # (hidden, out_dim)
    b_out: Array  # (out_dim,)


def mlp_block_init(dim: int, hidden: int, rng) -> MlpBlockParams:
    """Uniform fan-in weights, zero biases, for a ``dim -> hidden -> dim`` block."""
    return MlpBlockParams(
        w_in=init_params((dim, hidden), rng),
        b_in=np.zeros(hidden),
        w_out=init_params((hidden, dim), rng),
        b_out=np.zeros(dim),
    )


class MlpBlockCache(NamedTuple):
    """What a block's backward pass needs from its forward pass.

    The MLP's input, the LayerNorm output ``xn``, is not kept: the backward
    pass recomputes it from ``ln.xhat`` with :func:`layernorm_affine`. Nor
    is the pre-activation ``h``, which each kernel's backward pass rebuilds
    from ``xn`` with the product its forward pass used.
    """

    cdf: Array  # normal_cdf(h); the GELU output is h * cdf
    ln: LayerNormCache


def _check_mlp(p: MlpBlockParams, in_features: int) -> None:
    in_dim, hidden = p.w_in.shape
    if in_features != in_dim:
        raise ConfigError(
            f"mlp block dimension mismatch: input has {in_features} features, "
            f"w_in expects {in_dim}"
        )
    if p.w_out.shape != (hidden, in_dim):
        raise ConfigError(
            f"mlp block w_out shape {p.w_out.shape} does not invert "
            f"w_in shape {p.w_in.shape}"
        )


def _row_hidden(xn: Array, p: MlpBlockParams) -> Array:
    """The row kernel's pre-activation ``h = xn @ w_in + b_in``, a new array.

    Both row passes build ``h`` here, so the backward pass rebuilds
    bitwise the forward's.
    """
    h = matmul(xn, p.w_in)
    h += p.b_in
    return h


def mlp_fwd(xn: Array, p: MlpBlockParams) -> tuple[Array, Array]:
    """``z = gelu(xn @ w_in + b_in) @ w_out + b_out`` row-wise; returns ``(z, cdf)``.

    The bare two-layer MLP, without LayerNorm or residual add; ``cdf`` is
    ``normal_cdf(h)``, kept for the backward pass, and ``h`` is not kept.
    """
    _check_mlp(p, xn.shape[-1])
    h = _row_hidden(xn, p)
    cdf = normal_cdf(h)
    z = matmul(h * cdf, p.w_out)
    z += p.b_out
    return z, cdf


def mlp_bwd(
    grad_z: Array, xn: Array, cache: MlpBlockCache, p: MlpBlockParams
) -> tuple[Array, MlpBlockParams]:
    """Backward of :func:`mlp_fwd` at input ``xn``: ``(dxn, block grads)``.

    ``h`` is rebuilt from ``xn``. At most two hidden-sized arrays are alive
    at once: ``h`` (then the GELU output) and the GELU derivative, then the
    derivative and ``dh``.
    """
    h = _row_hidden(xn, p)
    g = gelu_grad(h, cache.cdf)
    h *= cache.cdf  # the GELU output
    dw_out, db_out = dense_grads(h, grad_z)
    del h
    dh = matmul(grad_z, p.w_out.T)
    dh *= g
    del g
    dw_in, db_in = dense_grads(xn, dh)
    dxn = matmul(dh, p.w_in.T)
    return dxn, MlpBlockParams(w_in=dw_in, b_in=db_in, w_out=dw_out, b_out=db_out)


def _column_hidden(xn: Array, p: MlpBlockParams) -> Array:
    """The column kernel's pre-activation ``h = w_in^T xn + b_in``, a new array.

    Both column passes build ``h`` here, so the backward pass rebuilds
    bitwise the forward's.
    """
    h = matmul(p.w_in.T, xn)
    h += p.b_in[:, None]
    return h


def column_mlp_fwd(xn: Array, p: MlpBlockParams) -> tuple[Array, Array]:
    """:func:`mlp_fwd` applied to every column of ``xn`` ``(..., rows, cols)``.

    The weights multiply from the left, so the result keeps the input's
    layout: ``z = w_out^T gelu(w_in^T xn + b_in) + b_out`` with the biases
    broadcast along the columns. Returns ``(z, cdf)``, ``cdf`` of shape
    ``(..., hidden, cols)``: ``h`` is not kept.
    """
    _check_mlp(p, xn.shape[-2])
    h = _column_hidden(xn, p)
    cdf = normal_cdf(h)
    # GELU into a temporary, not into h: in place, the heap layout left
    # the bench's forecast-taxibj rounds at 429 MB peak RSS against 393 MB
    z = matmul(p.w_out.T, h * cdf)
    z += p.b_out[:, None]
    return z, cdf


def column_mlp_bwd(
    grad_z: Array, xn: Array, cache: MlpBlockCache, p: MlpBlockParams
) -> tuple[Array, MlpBlockParams]:
    """Backward of :func:`column_mlp_fwd` at input ``xn``: ``(dxn, block grads)``.

    ``h`` is rebuilt from ``xn``, and the hidden-sized arrays live as in
    :func:`mlp_bwd`. Weight gradients are batched products summed over the
    leading axes; bias gradients sum over the leading axes first, which
    adds whole contiguous slabs, then along the columns.
    """
    lead = tuple(range(grad_z.ndim - 2))
    h = _column_hidden(xn, p)
    g = gelu_grad(h, cache.cdf)
    h *= cache.cdf  # the GELU output
    dw_out = matmul(h, np.swapaxes(grad_z, -1, -2)).sum(axis=lead)
    del h
    db_out = grad_z.sum(axis=lead).sum(axis=-1)
    dh = matmul(p.w_out, grad_z)
    dh *= g
    del g
    dw_in = matmul(xn, np.swapaxes(dh, -1, -2)).sum(axis=lead)
    db_in = dh.sum(axis=lead).sum(axis=-1)
    dxn = matmul(p.w_in, dh)
    return dxn, MlpBlockParams(w_in=dw_in, b_in=db_in, w_out=dw_out, b_out=db_out)


def mlp_block_fwd(
    x: Array, p: MlpBlockParams, ln: LayerNormParams, mlp=mlp_fwd
) -> tuple[Array, MlpBlockCache]:
    """``y = x + mlp(layernorm(x))``, by default ``gelu(xn @ w_in + b_in) @ w_out + b_out``.

    ``mlp`` is the kernel: :func:`mlp_fwd` mixes along the rows (channel
    mixing), :func:`column_mlp_fwd` along the columns (token mixing).
    """
    xn, ln_cache = layernorm_fwd(x, ln)
    z, cdf = mlp(xn, p)
    z += x
    return z, MlpBlockCache(cdf=cdf, ln=ln_cache)


def mlp_block_bwd(
    grad_y: Array, cache: MlpBlockCache, p: MlpBlockParams, ln: LayerNormParams, mlp=mlp_bwd
) -> tuple[Array, MlpBlockParams, LayerNormParams]:
    """Return ``(dx, block grads, layernorm grads)`` for an upstream gradient.

    ``mlp`` is the backward of the forward's kernel. Gradient containers
    reuse the parameter dataclasses (same shapes).
    """
    dxn, grads = mlp(grad_y, layernorm_affine(cache.ln.xhat, ln), cache, p)
    dx, dgamma, dbeta = layernorm_bwd(dxn, cache.ln, ln)
    dx += grad_y
    return dx, grads, LayerNormParams(gamma=dgamma, beta=dbeta)


# ---------------------------------------------------------------------------
# initialisation


def init_params(shape, rng) -> Array:
    """Seeded parameter initialisation: U(-1/sqrt(fan_in), +1/sqrt(fan_in)).

    ``fan_in`` is the first dimension of ``shape``. ``rng`` may be an integer
    seed or a ``numpy.random.Generator``; ``None`` returns zeros and draws
    nothing.
    """
    if rng is None:
        return np.zeros(shape)
    gen = np.random.default_rng(rng)
    shape = tuple(np.atleast_1d(shape))
    bound = 1.0 / math.sqrt(shape[0])
    return gen.uniform(-bound, bound, size=shape)
