"""An independent forward pass of the MLPST model, written from its description.

It follows the README's architecture and conventions and shares no code
with the package: patches are cut by index arithmetic, LayerNorm and GELU
are evaluated from their formulas (GELU through the normal CDF, not erf),
and the mixer layers, fusion and head are spelled out. Only the ``full``
variant predicting every channel with strided branch slicing is covered,
which is what the forecast workload checkpoints hold. It reads parameters
from a ``ModelParams`` object by attribute name.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr


def patch_index(h: int, w: int, d: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and channel of entry ``j`` of patch token ``k``, as ``(N_P, P*P*d)``.

    Tokens run over patches in row-major order; inside a token the entries
    run row-major over the patch with the channel innermost.
    """
    gw = w // p
    n_tokens, width = (h // p) * gw, p * p * d
    k = np.arange(n_tokens).reshape(-1, 1)
    j = np.arange(width).reshape(1, -1)
    i_row, rest = j // (p * d), j % (p * d)
    i_col, ch = rest // d, rest % d
    rows = (k // gw) * p + i_row
    cols = (k % gw) * p + i_col
    return rows, cols, np.broadcast_to(ch, rows.shape)


def layernorm(x, ln):
    mu = x.sum(axis=-1, keepdims=True) / x.shape[-1]
    centred = x - mu
    var = (centred * centred).sum(axis=-1, keepdims=True) / x.shape[-1]
    return centred / np.sqrt(var + ln.eps) * ln.gamma + ln.beta


def gelu(x):
    return x * ndtr(x)


def mlp(x, block):
    return gelu(x @ block.w_in + block.b_in) @ block.w_out + block.b_out


def mixer_layer(v, layer):
    """Token mixing then channel mixing on ``(..., tokens, channels)``."""
    mixed = mlp(np.swapaxes(layernorm(v, layer.ln_tokens), -1, -2), layer.token_mlp)
    v = v + np.swapaxes(mixed, -1, -2)
    return v + mlp(layernorm(v, layer.ln_channels), layer.channel_mlp)


def mixer_stack(v, layers, n_layers):
    for i in range(n_layers):
        v = mixer_layer(v, layers[i] if len(layers) > 1 else layers[0])
    return v


def branch_specs(temporal) -> tuple[tuple[int, int], ...]:
    """``(length, interval)`` of the trend, period and closeness branches."""
    return (
        (temporal.trend, temporal.trend_interval),
        (temporal.period, temporal.period_interval),
        (temporal.closeness, temporal.closeness_interval),
    )


def branch_frames(anchor: int, length: int, interval: int) -> list[int]:
    """Map indices ``anchor - k*interval`` for ``k = length..1`` (oldest first)."""
    return [anchor - k * interval for k in range(length, 0, -1)]


def window_frames(anchors, temporal) -> set[int]:
    """The distinct map indices the windows at ``anchors`` read."""
    return {
        frame
        for anchor in anchors
        for length, interval in branch_specs(temporal)
        for frame in branch_frames(int(anchor), length, interval)
    }


def forward(params, temporal, normed: np.ndarray, anchors) -> np.ndarray:
    """Normalised predictions ``(len(anchors), H, W, d)`` from normalised maps."""
    h, w, d = params.grid_h, params.grid_w, params.grid_d
    sp = params.spatial
    rows, cols, chans = patch_index(h, w, d, sp.patch)
    stacks = (params.temporal_trend, params.temporal_period, params.temporal_closeness)
    weights = (params.w_trend, params.w_period, params.w_closeness)
    out = []
    for anchor in anchors:
        fused = 0.0
        for (length, interval), stack, weight in zip(branch_specs(temporal), stacks, weights):
            frames = normed[branch_frames(int(anchor), length, interval)]
            tokens = frames[:, rows, cols, chans]            # (len, N_P, P*P*d)
            v = mixer_stack(tokens @ sp.fc_w + sp.fc_b, sp.layers, sp.n_layers)
            seq = v.reshape(length, -1)                      # (len, N_P * C_S)
            seq = mixer_stack(seq, stack.layers, stack.n_layers)
            fused = fused + weight * seq[-1]
        out.append((fused @ params.w_out + params.b_out).reshape(h, w, d))
    return np.stack(out)


def normalise(maps: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-channel min-max scaling; a constant channel maps to 0."""
    span = hi - lo
    return np.where(span > 0, (maps - lo) / np.where(span > 0, span, 1.0), 0.0)


def denormalise(maps: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return maps * (hi - lo) + lo
