"""Loss, Adam, and the mini-batch training loop with early stopping.

The training split is chronological (no leakage): anchors — time indices
whose history window is fully available — are ordered and divided into
train/validation/test segments. Batch gradients are the plain sum over the
records in the batch; the loss applies its 1/q root over the whole batch.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass, field

import numpy as np

from . import tree
from .checkpoint import save_checkpoint
from .errors import ConfigError, DataError
from .griddata import (
    NormStats,
    apply_norm,
    branch_offsets,
    check_finite,
    fit_norm,
    invert_norm,
    required_history,
)
from .mixer import ModelParams, batch_backward, batch_forward, build_params, check_window
from .runconfig import LossConfig, ModelConfig, RunConfig, TemporalConfig, TrainConfig

Array = np.ndarray


# ---------------------------------------------------------------------------
# loss


def loss(pred: Array, target: Array, cfg: LossConfig) -> tuple[float, Array]:
    """Batch loss ``(sum |pred - target|^q)^(1/q)`` and its gradient.

    The sum runs over every entry of every record in the batch. For q=1 the
    gradient uses sign(0) = 0; for q=2 the gradient at an exact fit is 0.
    """
    cfg.validate()
    if pred.shape != target.shape:
        raise DataError(
            f"prediction shape {pred.shape} does not match target {target.shape}"
        )
    r = pred - target
    value = 0.0
    grad = np.zeros_like(r)
    if cfg.q == 1 or cfg.combine:
        value += float(np.abs(r).sum())
        grad += np.sign(r)
    if cfg.q == 2 or cfg.combine:
        l2 = float(np.sqrt((r * r).sum()))
        value += l2
        if l2 > 0.0:
            grad += r / l2
    return value, grad


# ---------------------------------------------------------------------------
# Adam


# Kingma & Ba's defaults (arXiv:1412.6980); the paper sets only the learning rate
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# elements per block of an Adam update: its two scratch buffers take 256 KB
ADAM_BLOCK = 32768


def _scratch() -> tuple[Array, Array]:
    return np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)


@dataclass
class AdamState:
    m: ModelParams
    v: ModelParams
    lr: float
    step: int = 0
    scratch: tuple[Array, Array] = field(default_factory=_scratch, repr=False)


def adam_init(params: ModelParams, lr: float = TrainConfig.lr) -> AdamState:
    return AdamState(m=tree.tree_zeros_like(params), v=tree.tree_zeros_like(params), lr=lr)


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState) -> None:
    """One bias-corrected Adam update of ``params`` and the moments, in place.

    Shared parameter arrays are updated exactly once (their gradients were
    already accumulated across all paths that reach them). Each leaf is
    updated in blocks of ``ADAM_BLOCK`` elements, every sub-expression
    written into the state's two scratch buffers, so a step allocates no
    array the size of a leaf. Per element the operations and their order
    are those of::

        m = m * BETA1 + (1 - BETA1) * g
        v = v * BETA2 + (1 - BETA2) * (g * g)
        p = p - lr * (m / bc1) / (sqrt(v / bc2) + EPS)
    """
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    leaves = (tree.unique_leaves(t) for t in (params, grads, state.m, state.v))
    for (_, p), (_, g), (_, m), (_, v) in zip(*leaves, strict=True):
        # in-place updates need views: a leaf that is not contiguous raises
        p, m, v = (np.reshape(a, -1, copy=False) for a in (p, m, v))
        g = g.reshape(-1)
        for start in range(0, p.size, ADAM_BLOCK):
            blk = slice(start, start + ADAM_BLOCK)
            pb, gb, mb, vb = p[blk], g[blk], m[blk], v[blk]
            a, b = (buf[: pb.size] for buf in state.scratch)
            mb *= BETA1
            mb += np.multiply(1.0 - BETA1, gb, out=a)
            vb *= BETA2
            np.multiply(gb, gb, out=a)
            vb += np.multiply(1.0 - BETA2, a, out=a)
            np.divide(mb, bc1, out=a)
            a *= state.lr
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            b += EPS
            a /= b
            pb -= a


# ---------------------------------------------------------------------------
# dataset windows


@dataclass
class SplitAnchors:
    train: Array
    val: Array
    test: Array


def split_anchors(
    n_maps: int,
    cfg: TemporalConfig,
    split: tuple[float, float, float],
    min_history: int | None = None,
) -> SplitAnchors:
    """Chronological train/val/test anchor split.

    An anchor t means: history = maps[:t], target = maps[t]. The warm-up
    region (anchors whose window would reach before the data) is excluded;
    ``min_history`` can push the warm-up further so different window
    configurations can be compared on identical anchors. The ratios are
    those :meth:`TrainConfig.validate` accepts.
    """
    warm = max(required_history(cfg), min_history or 0)
    anchors = np.arange(warm, n_maps)
    n = anchors.size
    n_train = int(n * split[0])
    n_val = int(n * split[1])
    parts = SplitAnchors(
        train=anchors[:n_train],
        val=anchors[n_train : n_train + n_val],
        test=anchors[n_train + n_val :],
    )
    for name, part in (("train", parts.train), ("val", parts.val), ("test", parts.test)):
        if part.size == 0:
            raise ConfigError(
                f"empty {name} split: {n} usable anchors (of {n_maps} steps, "
                f"warm-up {warm}) under ratios {split}"
            )
    return parts


def gather_windows(
    maps: Array, anchors: Array, cfg: TemporalConfig
) -> tuple[Array, Array, Array]:
    """Branch map stacks ``(B, len, H, W, d)`` for a batch of anchors."""
    anchors = np.asarray(anchors)
    out = []
    for offsets in branch_offsets(cfg):
        idx = anchors[:, None] + offsets[None, :]
        out.append(maps[idx.astype(int)])
    return tuple(out)


def select_target(maps: Array, predict_channel: int | None) -> Array:
    """Restrict targets to the configured output channel, if any."""
    if predict_channel is None:
        return maps
    return maps[..., predict_channel : predict_channel + 1]


def predict_batches(
    params: ModelParams, maps: Array, anchors: Array, cfg: TemporalConfig, batch_size: int
) -> Array:
    """Forward passes over anchors in batches; returns stacked predictions.

    Forward only: no batch keeps a backward cache. ``cfg`` must be the
    window ``params`` were built for.
    """
    check_window(params, cfg)
    preds = []
    for start in range(0, len(anchors), batch_size):
        chunk = anchors[start : start + batch_size]
        branch_maps = gather_windows(maps, chunk, cfg)
        pred, _ = batch_forward(branch_maps, params, keep_cache=False)
        preds.append(pred)
    return np.concatenate(preds, axis=0)


# ---------------------------------------------------------------------------
# training loop


def keep_freed_memory() -> None:
    """Let glibc keep the memory a train step frees, for the next step to reuse.

    With its default thresholds, glibc gives the free top of its heap back to
    the kernel and unmaps each large array when it is freed, so every step
    faults its caches in afresh. The setting holds until the process exits;
    where the C library has no ``mallopt``, nothing is set.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    # ctypes passes and returns a C int by default, as mallopt(int, int) does
    mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 * 2**20)  # M_MMAP_THRESHOLD, at the ceiling of glibc's dynamic one


@dataclass
class TrainResult:
    params: ModelParams
    stats: NormStats
    anchors: SplitAnchors
    history: list[tuple[int, float, float]] = field(default_factory=list)
    log_lines: list[str] = field(default_factory=list)
    best_epoch: int = 0
    best_val_mae: float = float("inf")
    train_seconds: float = 0.0


# a diverging run overflows on its way to the non-finite loss that reports it
@np.errstate(over="ignore", invalid="ignore")
def train(
    maps: Array,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    loss_cfg: LossConfig,
    checkpoint_path=None,
    config_text: str = "",
    log=None,
) -> TrainResult:
    """Train on a raw ``(T, H, W, d)`` stack; returns the best checkpoint.

    Emits one ``epoch,<n>,train_loss,<v>,val_mae,<v>`` line per epoch via
    ``log``. Validation MAE is computed in the original data scale; the
    checkpoint with the lowest validation MAE wins. When ``checkpoint_path``
    is given, the best parameters so far are kept in ``<path>.best`` and the
    final best set is written to ``<path>``. Their ``[config]`` is
    ``config_text``, or, when that is empty, the configs this call ran with.
    """
    t0 = time.monotonic()
    keep_freed_memory()
    model_cfg.validate()
    train_cfg.validate()
    loss_cfg.validate()
    if not config_text:
        config_text = RunConfig.from_configs(model_cfg, train_cfg, loss_cfg).to_text()

    maps = np.asarray(maps, dtype=np.float64)
    if maps.ndim != 4:
        raise DataError(f"expected a (T, H, W, d) stack, got shape {maps.shape}")
    check_finite(maps)
    n_maps, h, w, d = maps.shape
    temporal = model_cfg.temporal

    parts = split_anchors(n_maps, temporal, train_cfg.split, train_cfg.min_history)
    stats = fit_norm(maps[: parts.train[-1] + 1])
    normed = apply_norm(maps, stats)

    params = build_params(model_cfg, h, w, d, seed=[train_cfg.seed, 0])
    adam = adam_init(params, lr=train_cfg.lr)
    shuffle_rng = np.random.default_rng([train_cfg.seed, 1])

    result = TrainResult(params=params, stats=stats, anchors=parts)
    grads = tree.tree_zeros_like(params)  # refilled by every step's backward pass
    since_best = 0

    val_targets_raw = select_target(maps[parts.val], params.predict_channel)

    for epoch in range(1, train_cfg.max_epochs + 1):
        order = shuffle_rng.permutation(parts.train)
        batch_losses = []
        for start in range(0, order.size, train_cfg.batch_size):
            chunk = order[start : start + train_cfg.batch_size]
            branch_maps = gather_windows(normed, chunk, temporal)
            targets = select_target(normed[chunk], params.predict_channel)
            pred, cache = batch_forward(branch_maps, params)
            value, grad_pred = loss(pred, targets, loss_cfg)
            batch_backward(cache, grad_pred, params, grads)
            del pred, cache, grad_pred  # the next forward runs with no cache alive
            adam_step(params, grads, adam)
            batch_losses.append(value)
        train_loss = float(np.mean(batch_losses))

        val_pred = predict_batches(params, normed, parts.val, temporal, train_cfg.batch_size)
        val_pred_raw = invert_norm(val_pred, stats_for_output(stats, params.predict_channel))
        val_mae = float(np.abs(val_pred_raw - val_targets_raw).mean())

        line = f"epoch,{epoch},train_loss,{train_loss!r},val_mae,{val_mae!r}"
        result.log_lines.append(line)
        if log is not None:
            log(line)
        result.history.append((epoch, train_loss, val_mae))
        if not (np.isfinite(train_loss) and np.isfinite(val_mae)):
            raise DataError(
                f"training diverged at epoch {epoch}: train_loss {train_loss!r}, "
                f"val_mae {val_mae!r} (lower lr, or check the data's scale)"
            )

        if val_mae < result.best_val_mae:
            result.best_val_mae = val_mae
            result.best_epoch = epoch
            best_params = tree.tree_copy(params)
            since_best = 0
            if checkpoint_path is not None:
                save_checkpoint(
                    f"{checkpoint_path}.best", best_params, temporal, config_text, stats
                )
        else:
            since_best += 1
            if since_best >= train_cfg.patience:
                break

    result.params = best_params
    result.train_seconds = time.monotonic() - t0
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, best_params, temporal, config_text, stats)
    return result


def stats_for_output(stats: NormStats, predict_channel: int | None) -> NormStats:
    """The stats of the channels a model predicts: all, or ``predict_channel``'s."""
    if predict_channel is None:
        return stats
    sl = slice(predict_channel, predict_channel + 1)
    return NormStats(lo=stats.lo[sl], hi=stats.hi[sl])
