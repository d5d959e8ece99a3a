"""The MLPST model: patch embedding, spatial/temporal mixing, fusion, head.

Forward passes operate on a whole batch at once; every op has a hand-paired
backward. A mixer layer follows MLP-Mixer (Tolstikhin et al., 2021): the
token-mixing half normalises each token over its channels and runs an MLP
across the token axis, for each channel; the channel-mixing half
normalises over channels again and runs an MLP across the channel axis.
Both halves add their output to their input, so zeroing the MLPs' output
weights makes the layer an exact identity. Every mixing MLP's ``w_out``
starts at zero, so a freshly built model is ``head(fuse(per-patch FC
embeddings))`` and each mixer starts as the identity it would be replaced
by in an ablation.

Parameter sharing: a mixer stack holds either one layer applied
``n_layers`` times (shared, the default) or ``n_layers`` distinct layers.
The three temporal branches can additionally share parameters between
branches of equal sequence length.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .griddata import n_patches, patchify, slice_dependencies
from .runconfig import ModelConfig, TemporalConfig
from .tensor import (
    Array,
    LayerNormParams,
    MlpBlockCache,
    MlpBlockParams,
    column_mlp_bwd,
    column_mlp_fwd,
    dense_grads,
    layernorm_init,
    matmul,
    mlp_block_bwd,
    mlp_block_fwd,
    mlp_block_init,
    init_params,
)
from . import tree

# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class MixerLayerParams:
    """One token-mixing + channel-mixing layer.

    Both LayerNorms normalise each token over the channel axis, as in
    MLP-Mixer: ``ln_tokens`` runs before ``token_mlp`` (a ``n_tokens ->
    hidden -> n_tokens`` MLP applied to each channel's column of tokens),
    ``ln_channels`` before ``channel_mlp``. Both therefore have width
    ``n_channels``.
    """

    token_mlp: MlpBlockParams
    channel_mlp: MlpBlockParams
    ln_tokens: LayerNormParams
    ln_channels: LayerNormParams


@dataclass
class SpatialMixerParams:
    patch: int
    fc_w: Array  # (P*P*d, C_S) per-patch fully connected
    fc_b: Array  # (C_S,)
    layers: list[MixerLayerParams]
    n_layers: int


@dataclass
class TemporalMixerParams:
    seq_len: int
    layers: list[MixerLayerParams]
    n_layers: int


@dataclass
class ModelParams:
    """Full trainable parameter set, its grid geometry and the config it was built from.

    ``config`` is a copy of the one passed to :func:`build_params`; checkpoints record it.
    """

    grid_h: int
    grid_w: int
    grid_d: int
    spatial: SpatialMixerParams
    temporal_trend: TemporalMixerParams | None
    temporal_period: TemporalMixerParams | None
    temporal_closeness: TemporalMixerParams | None
    w_trend: Array      # (d_T,) fusion weights
    w_period: Array
    w_closeness: Array
    w_out: Array        # (d_T, out_dim) output head
    b_out: Array        # (out_dim,)
    config: ModelConfig

    @property
    def predict_channel(self) -> int | None:
        return self.config.predict_channel

    @property
    def out_channels(self) -> int:
        return 1 if self.predict_channel is not None else self.grid_d


def mixer_layer_init(
    n_tokens: int, n_channels: int, token_hidden: int, channel_hidden: int, rng
) -> MixerLayerParams:
    """A layer that starts as the identity: both MLPs' ``w_out`` are zero.

    ``w_out`` is still drawn (then zeroed) so the rng sequence, and with it
    every later parameter, does not depend on the initialisation scheme.
    """
    layer = MixerLayerParams(
        token_mlp=mlp_block_init(n_tokens, token_hidden, rng),
        channel_mlp=mlp_block_init(n_channels, channel_hidden, rng),
        ln_tokens=layernorm_init(n_channels),
        ln_channels=layernorm_init(n_channels),
    )
    layer.token_mlp.w_out[:] = 0.0
    layer.channel_mlp.w_out[:] = 0.0
    return layer


def check_window(params: ModelParams, temporal: TemporalConfig) -> None:
    """Raise :class:`ConfigError` unless ``temporal`` is the window ``params`` were built for."""
    if temporal != params.config.temporal:
        raise ConfigError(f"window {temporal} is not the parameters' {params.config.temporal}")


def _init_stack(
    n_tokens: int,
    n_channels: int,
    token_hidden: int,
    channel_hidden: int,
    n_layers: int,
    shared: bool,
    rng,
) -> list[MixerLayerParams]:
    count = 1 if shared and n_layers > 0 else n_layers
    return [
        mixer_layer_init(n_tokens, n_channels, token_hidden, channel_hidden, rng)
        for _ in range(count)
    ]


def build_params(cfg: ModelConfig, h: int, w: int, d: int, seed) -> ModelParams:
    """Seeded construction of a full parameter set.

    Draw order is fixed (spatial FC, spatial stack, trend, period,
    closeness, output head) so identical seeds give identical parameters.
    ``seed=None`` draws nothing: every drawn weight is zero, which gives the
    skeleton a checkpoint fills.
    """
    cfg.validate()
    rng = None if seed is None else np.random.default_rng(seed)
    n_p = n_patches(h, w, cfg.patch)
    patch_dim = cfg.patch * cfg.patch * d
    c_s = cfg.channels_spatial
    d_t = n_p * c_s

    spatial_layers = (
        []
        if cfg.variant == "mlp_at"
        else _init_stack(n_p, c_s, cfg.expansion, cfg.expansion, cfg.n_layers, cfg.share_layers, rng)
    )
    spatial = SpatialMixerParams(
        patch=cfg.patch,
        fc_w=init_params((patch_dim, c_s), rng),
        fc_b=np.zeros(c_s),
        layers=spatial_layers,
        n_layers=0 if cfg.variant == "mlp_at" else cfg.n_layers,
    )

    temporal: dict[str, TemporalMixerParams | None] = {}
    by_length: dict[int, TemporalMixerParams] = {}
    t_cfg = cfg.temporal
    for name, length in (
        ("trend", t_cfg.trend),
        ("period", t_cfg.period),
        ("closeness", t_cfg.closeness),
    ):
        if length == 0 or cfg.variant == "mlp_sa":
            temporal[name] = None
            continue
        if cfg.share_branches and length in by_length:
            temporal[name] = by_length[length]
            continue
        params = TemporalMixerParams(
            seq_len=length,
            layers=_init_stack(
                length, d_t, cfg.expansion, cfg.channels_temporal,
                cfg.n_layers, cfg.share_layers, rng,
            ),
            n_layers=cfg.n_layers,
        )
        by_length[length] = params
        temporal[name] = params

    out_channels = 1 if cfg.predict_channel is not None else d
    out_dim = h * w * out_channels
    return ModelParams(
        grid_h=h,
        grid_w=w,
        grid_d=d,
        spatial=spatial,
        temporal_trend=temporal["trend"],
        temporal_period=temporal["period"],
        temporal_closeness=temporal["closeness"],
        w_trend=np.ones(d_t),
        w_period=np.ones(d_t),
        w_closeness=np.ones(d_t),
        w_out=init_params((d_t, out_dim), rng),
        b_out=np.zeros(out_dim),
        config=replace(cfg),
    )


# ---------------------------------------------------------------------------
# mixer layer


class MixerLayerCache(NamedTuple):
    token: MlpBlockCache
    channel: MlpBlockCache


def mixer_layer_fwd(
    v: Array, p: MixerLayerParams
) -> tuple[Array, MixerLayerCache]:
    """Token mixing across the token axis, then channel mixing; shape preserved.

    Both halves are one residual block. Token mixing runs it with the column
    kernel, whose weights multiply from the left, so nothing is transposed.
    """
    u, token_cache = mlp_block_fwd(v, p.token_mlp, p.ln_tokens, column_mlp_fwd)
    y, channel_cache = mlp_block_fwd(u, p.channel_mlp, p.ln_channels)
    return y, MixerLayerCache(token=token_cache, channel=channel_cache)


def mixer_layer_bwd(
    grad_y: Array, cache: MixerLayerCache, p: MixerLayerParams, grads: MixerLayerParams
) -> Array:
    """Accumulate parameter gradients into ``grads`` and return dv."""
    du, g_ch, g_lnc = mlp_block_bwd(grad_y, cache.channel, p.channel_mlp, p.ln_channels)
    dv, g_tok, g_lnt = mlp_block_bwd(du, cache.token, p.token_mlp, p.ln_tokens, column_mlp_bwd)
    step = MixerLayerParams(token_mlp=g_tok, channel_mlp=g_ch, ln_tokens=g_lnt, ln_channels=g_lnc)
    for (_, acc), (_, g) in zip(tree.iter_leaves(grads), tree.iter_leaves(step), strict=True):
        acc += g
    return dv


def _stack_layer(layers: list[MixerLayerParams], i: int) -> MixerLayerParams:
    return layers[i] if len(layers) > 1 else layers[0]


def mixer_stack_fwd(
    v: Array, layers: list[MixerLayerParams], n_layers: int, keep_cache: bool = True
) -> tuple[Array, list[MixerLayerCache] | None]:
    """Run the stack; its per-layer caches, or ``None`` when ``keep_cache`` is false.

    Without a cache, a layer's intermediates are freed before the next layer
    runs, so the stack holds one layer's worth at a time.
    """
    caches = [] if keep_cache else None
    for i in range(n_layers):
        v, c = mixer_layer_fwd(v, _stack_layer(layers, i))
        if keep_cache:
            caches.append(c)
        del c  # else this layer's cache would live through the next layer
    return v, caches


def mixer_stack_bwd(
    grad: Array,
    caches: list[MixerLayerCache],
    layers: list[MixerLayerParams],
    n_layers: int,
    grad_layers: list[MixerLayerParams],
) -> Array:
    for i in reversed(range(n_layers)):
        grad = mixer_layer_bwd(grad, caches[i], _stack_layer(layers, i), _stack_layer(grad_layers, i))
    return grad


# ---------------------------------------------------------------------------
# spatial mixer


class SpatialCache(NamedTuple):
    tokens: Array  # (..., N_P, P*P*d)
    layer_caches: list[MixerLayerCache]


def spatial_mixer_fwd(
    x: Array, p: SpatialMixerParams, keep_cache: bool = True
) -> tuple[Array, SpatialCache | None]:
    """Map grid maps ``(..., H, W, d)`` to embeddings ``(..., N_P * C_S)``.

    The cache is ``None`` when ``keep_cache`` is false.
    """
    tokens = patchify(x, p.patch)
    if tokens.shape[-1] != p.fc_w.shape[0]:
        raise ConfigError(
            f"patch token width {tokens.shape[-1]} does not match per-patch FC "
            f"input {p.fc_w.shape[0]}"
        )
    v = matmul(tokens, p.fc_w) + p.fc_b
    y, caches = mixer_stack_fwd(v, p.layers, p.n_layers, keep_cache)
    lead = y.shape[:-2]
    e = y.reshape(*lead, -1)
    if not keep_cache:
        return e, None
    return e, SpatialCache(tokens=tokens, layer_caches=caches)


def spatial_mixer_bwd(
    grad_e: Array, cache: SpatialCache, p: SpatialMixerParams, grads: SpatialMixerParams
) -> None:
    """Accumulate spatial parameter gradients; input gradients are not needed."""
    gy = grad_e.reshape(*cache.tokens.shape[:-1], p.fc_w.shape[1])
    gv = mixer_stack_bwd(gy, cache.layer_caches, p.layers, p.n_layers, grads.layers)
    dw, db = dense_grads(cache.tokens, gv)
    grads.fc_w += dw
    grads.fc_b += db


# ---------------------------------------------------------------------------
# temporal mixer


def temporal_mixer_fwd(
    e_seq: Array, p: TemporalMixerParams, keep_cache: bool = True
) -> tuple[Array, list[MixerLayerCache] | None]:
    """Mix a branch sequence ``(..., len, d_T)``; shape preserved.

    The cache is the stack's per-layer caches, or ``None`` when
    ``keep_cache`` is false.
    """
    if e_seq.shape[-2] != p.seq_len:
        raise ConfigError(
            f"temporal sequence length {e_seq.shape[-2]} does not match the "
            f"configured length {p.seq_len}"
        )
    return mixer_stack_fwd(e_seq, p.layers, p.n_layers, keep_cache)


def temporal_mixer_bwd(
    grad: Array, cache: list[MixerLayerCache], p: TemporalMixerParams, grads: TemporalMixerParams
) -> Array:
    return mixer_stack_bwd(grad, cache, p.layers, p.n_layers, grads.layers)


# ---------------------------------------------------------------------------
# fusion and output head


def fuse(
    e_trend: Array | None,
    e_period: Array | None,
    e_closeness: Array | None,
    w_trend: Array,
    w_period: Array,
    w_closeness: Array,
) -> Array:
    """Elementwise-weighted sum of the branches' last-step embeddings.

    Branch inputs are ``(..., len, d_T)``; a missing or zero-length branch
    contributes zero.
    """
    total = None
    for e_seq, weight in ((e_trend, w_trend), (e_period, w_period), (e_closeness, w_closeness)):
        if e_seq is None or e_seq.shape[-2] == 0:
            continue
        term = weight * e_seq[..., -1, :]
        total = term if total is None else total + term
    if total is None:
        raise ConfigError("fusion needs at least one nonempty branch")
    return total


def output_head(e_hat: Array, w_out: Array, b_out: Array, h: int, w: int, channels: int) -> Array:
    """Affine map from the fused embedding to an ``(H, W, channels)`` grid."""
    if e_hat.shape[-1] != w_out.shape[0]:
        raise ConfigError(
            f"fused embedding length {e_hat.shape[-1]} does not match output "
            f"head input {w_out.shape[0]}"
        )
    flat = matmul(e_hat, w_out) + b_out
    return flat.reshape(*e_hat.shape[:-1], h, w, channels)


# ---------------------------------------------------------------------------
# full model


class ModelCache(NamedTuple):
    lengths: tuple[int, int, int]
    spatial: SpatialCache  # over the batch's distinct frames only
    inverse: Array         # (B, L): window frame -> row of the distinct frames
    n_frames: int          # U, the number of distinct frames
    temporal: tuple[list[MixerLayerCache] | None, ...]  # per branch
    branch_last: tuple[Array | None, Array | None, Array | None]
    e_hat: Array


def _branch_params(params: ModelParams):
    return (params.temporal_trend, params.temporal_period, params.temporal_closeness)


def _fusion_weights(params: ModelParams):
    return (params.w_trend, params.w_period, params.w_closeness)


def batch_forward(
    branch_maps: tuple[Array, Array, Array], params: ModelParams, keep_cache: bool = True
) -> tuple[Array, ModelCache | None]:
    """Forward a batch of pre-sliced windows.

    ``branch_maps`` holds the trend/period/closeness map stacks, each of
    shape ``(B, len, H, W, d)`` (len may be 0). Returns predictions
    ``(B, H, W, out_channels)`` in the model's (normalised) output space,
    and the cache :func:`batch_backward` consumes.

    The cache is kept by default. With ``keep_cache=False`` it is ``None``:
    no layer's intermediates outlive the layer, which is what forward-only
    callers (prediction, evaluation, validation) want. Both ways run the
    same arithmetic, so the predictions are bitwise equal.

    The spatial mixer works per frame, so each distinct frame is embedded
    once: frames are keyed by their raw bytes (equal bytes give equal
    embeddings), the first occurrence of each key is embedded, and every
    window position reads its frame's embedding back.
    """
    lengths = tuple(m.shape[1] for m in branch_maps)
    batch = branch_maps[0].shape[0]
    for m in branch_maps:
        if m.shape[0] != batch:
            raise ConfigError("branch batches must agree")
        if m.shape[2:] != (params.grid_h, params.grid_w, params.grid_d):
            raise ConfigError(
                f"grid maps of shape {m.shape[2:]} do not match the model grid "
                f"({params.grid_h}, {params.grid_w}, {params.grid_d})"
            )

    stacked = np.concatenate(branch_maps, axis=1)  # (B, L, H, W, d)
    flat = stacked.reshape(-1, *stacked.shape[2:])
    rows: dict[bytes, int] = {}
    inverse = np.fromiter(
        (rows.setdefault(frame.tobytes(), len(rows)) for frame in flat),
        dtype=np.intp, count=len(flat),
    )
    _, first = np.unique(inverse, return_index=True)  # rows are numbered first-seen
    e_frames, spatial_cache = spatial_mixer_fwd(flat[first], params.spatial, keep_cache)
    inverse = inverse.reshape(stacked.shape[:2])
    e_all = e_frames[inverse]  # (B, L, d_T)

    t, p, _ = lengths
    branch_seqs = (e_all[:, :t], e_all[:, t : t + p], e_all[:, t + p :])
    mixed: list[Array | None] = []
    temporal_caches: list[list[MixerLayerCache] | None] = []
    for e_seq, bp in zip(branch_seqs, _branch_params(params)):
        if e_seq.shape[1] == 0:
            mixed.append(None)
            temporal_caches.append(None)
        elif bp is None:  # mlp_sa: embeddings pass through unchanged
            mixed.append(e_seq)
            temporal_caches.append(None)
        else:
            y, c = temporal_mixer_fwd(e_seq, bp, keep_cache)
            mixed.append(y)
            temporal_caches.append(c)

    e_hat = fuse(mixed[0], mixed[1], mixed[2], *_fusion_weights(params))
    pred = output_head(
        e_hat, params.w_out, params.b_out,
        params.grid_h, params.grid_w, params.out_channels,
    )
    if not keep_cache:
        return pred, None
    # copies: a view of the last step would pin the whole (B, len, d_T) output
    branch_last = tuple(None if m is None else m[:, -1, :].copy() for m in mixed)
    cache = ModelCache(
        lengths=lengths,
        spatial=spatial_cache,
        inverse=inverse,
        n_frames=len(first),
        temporal=tuple(temporal_caches),
        branch_last=branch_last,
        e_hat=e_hat,
    )
    return pred, cache


def batch_backward(
    cache: ModelCache, grad_pred: Array, params: ModelParams, grads: ModelParams | None = None
) -> ModelParams:
    """Exact reverse-mode gradients for every parameter; nothing else.

    Returns a gradient tree congruent with ``params`` (same sharing
    topology); repeated calls on one cache give identical results.

    ``grads``, when given, is such a tree (from an earlier call or
    ``tree.tree_zeros_like(params)``); it is overwritten and returned, so
    a training loop allocates no gradient tree after its first step. The
    head gradient ``w_out``, the largest leaf, is written by the product
    itself; every other leaf is zeroed, then accumulated into. The values
    are the same either way.
    """
    if grads is None:
        grads = tree.tree_zeros_like(params)
    else:
        for _, leaf in tree.unique_leaves(grads):
            if leaf is not grads.w_out:
                leaf.fill(0.0)
    g_flat = grad_pred.reshape(len(cache.inverse), -1)

    grads.b_out += g_flat.sum(axis=0)
    # a product with +0.0 accumulators never yields -0.0, so writing it
    # directly gives the bytes of adding it to zeros
    matmul(cache.e_hat.T, g_flat, out=grads.w_out)
    g_ehat = matmul(g_flat, params.w_out.T)

    d_t = params.w_out.shape[0]
    grad_weights = _fusion_weights(grads)
    branch_grads = []
    for i, (length, bp, gbp, tcache) in enumerate(
        zip(cache.lengths, _branch_params(params), _branch_params(grads), cache.temporal)
    ):
        if length == 0:
            continue
        last = cache.branch_last[i]
        gw = grad_weights[i]
        gw += (g_ehat * last).sum(axis=0)
        g_seq = np.zeros((len(g_flat), length, d_t))
        g_seq[:, -1, :] = g_ehat * _fusion_weights(params)[i]
        if bp is not None:
            g_seq = temporal_mixer_bwd(g_seq, tcache, bp, gbp)
        branch_grads.append(g_seq)

    g_e_all = np.concatenate(branch_grads, axis=1).reshape(-1, d_t)
    del branch_grads, g_seq  # the concatenation holds their values
    g_frames = np.zeros((cache.n_frames, d_t))
    np.add.at(g_frames, cache.inverse.reshape(-1), g_e_all)  # each frame sums its positions
    spatial_mixer_bwd(g_frames, cache.spatial, params.spatial, grads.spatial)
    return grads


def model_forward(
    history: Array, params: ModelParams, keep_cache: bool = True
) -> tuple[Array, ModelCache | None]:
    """Predict the next grid map from a single history stack ``(T, H, W, d)``.

    The branches are sliced from ``history`` with the parameters' own window.

    The cache, a one-window :func:`batch_backward` input, is kept unless
    ``keep_cache`` is false, in which case it is ``None`` (see
    :func:`batch_forward`).
    """
    trend, period, closeness = slice_dependencies(history, params.config.temporal)
    branch_maps = tuple(m[np.newaxis] for m in (trend, period, closeness))
    pred, cache = batch_forward(branch_maps, params, keep_cache=keep_cache)
    return pred[0], cache


# ---------------------------------------------------------------------------
# parameter accounting

_GROUP_PREFIXES = (
    ("spatial.fc", "per_patch_fc"),
    ("spatial.layers", "spatial_mixer"),
    ("temporal_trend", "temporal_trend"),
    ("temporal_period", "temporal_period"),
    ("temporal_closeness", "temporal_closeness"),
    ("w_trend", "fusion"),
    ("w_period", "fusion"),
    ("w_closeness", "fusion"),
    ("w_out", "output_head"),
    ("b_out", "output_head"),
)


def param_count(params: ModelParams) -> dict[str, int]:
    """Trainable parameter count per group; shared arrays counted once.

    A parameter array shared between groups (branch sharing) is attributed
    to the first group that reaches it.
    """
    counts: dict[str, int] = {}
    for path, arr in tree.unique_leaves(params):
        group = next(
            (g for prefix, g in _GROUP_PREFIXES if path.startswith(prefix)), "other"
        )
        counts[group] = counts.get(group, 0) + arr.size
    return counts


def param_total(params: ModelParams) -> int:
    return sum(param_count(params).values())
