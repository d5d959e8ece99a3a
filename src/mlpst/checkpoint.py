"""MLPST2 binary parameter checkpoints.

Layout: the magic string ``MLPST2``, a little-endian u32 byte length, a
UTF-8 manifest of that length, then the raw float64 little-endian payload.

The manifest is the complete run configuration, one ``key=value`` line per
``RunConfig`` key (``RunConfig.to_text``). The model and window keys are the
config the parameters were built from (``ModelParams.config``) and the grid
is theirs, so the manifest describes the parameter tree exactly: its paths,
shapes, layer counts and which paths share one array. The training and loss
keys echo the caller's configuration text.

The payload holds each distinct array of that tree once, in
``tree.unique_leaves`` order, then the normalisation statistics ``stats.lo``
and ``stats.hi`` (``d`` values each); they are not trainable parameters and
stay outside ``ModelParams``.

Loading parses the manifest, builds the zero-filled skeleton it describes
(``build_params`` with ``seed=None``), requires the payload to hold exactly
the skeleton's values and reads them into its arrays in order. Saving
refuses a tree that its own config does not describe. So a round trip is
bit-exact and keeps the sharing topology, and a file that does not match its
config raises ``FormatError``.
"""

from __future__ import annotations

import dataclasses
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from . import tree
from .errors import ConfigError, FormatError
from .fileio import atomic_open
from .griddata import NormStats
from .mixer import ModelParams, build_params, check_window
from .runconfig import RunConfig, TemporalConfig, parse_config_text

MAGIC = b"MLPST2"


@dataclass
class Checkpoint:
    params: ModelParams
    config: RunConfig
    stats: NormStats

    @property
    def temporal(self) -> TemporalConfig:
        return self.config.temporal_config()


def _skeleton(cfg: RunConfig):
    """The zero-filled params and stats ``cfg`` describes, and the arrays the payload fills."""
    if None in (cfg.h, cfg.w, cfg.d):
        raise ConfigError("grid geometry h, w and d must be set")
    cfg.validate()
    params = build_params(cfg.model_config(), cfg.h, cfg.w, cfg.d, seed=None)
    stats = NormStats(lo=np.zeros(cfg.d), hi=np.zeros(cfg.d))
    arrays = [arr for _, arr in tree.unique_leaves(params)] + [stats.lo, stats.hi]
    return params, stats, arrays


def _sharing(params) -> list[int]:
    """Each leaf's index among the tree's distinct arrays, in leaf order."""
    index: dict[int, int] = {}
    return [index.setdefault(id(arr), len(index)) for _, arr in tree.iter_leaves(params)]


def save_checkpoint(
    path, params: ModelParams, temporal: TemporalConfig, config_text: str, stats: NormStats
) -> None:
    """Write ``params`` and ``stats`` atomically; ``temporal`` must be ``params.config``'s."""
    check_window(params, temporal)
    echo = parse_config_text(config_text)
    cfg = dataclasses.replace(
        RunConfig.from_configs(params.config, echo.train_config(), echo.loss_config()),
        h=params.grid_h, w=params.grid_w, d=params.grid_d,
    )
    skeleton, _, _ = _skeleton(cfg)
    if tree.tree_map(np.shape, params) != tree.tree_map(np.shape, skeleton):
        raise FormatError(
            "parameter tree has shapes, layer counts or sequence lengths that its "
            "model config does not describe"
        )
    if _sharing(params) != _sharing(skeleton):
        raise FormatError(
            "parameter tree shares arrays where its model config keeps them apart, "
            "or the reverse"
        )
    lo = np.asarray(stats.lo, dtype=np.float64)
    hi = np.asarray(stats.hi, dtype=np.float64)
    if lo.shape != (cfg.d,) or hi.shape != (cfg.d,):
        raise FormatError(
            f"normalisation statistics have shapes {lo.shape} and {hi.shape}; "
            f"the grid needs ({cfg.d},)"
        )
    manifest = cfg.to_text().encode("utf-8")

    with atomic_open(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(manifest)))
        fh.write(manifest)
        for arr in [arr for _, arr in tree.unique_leaves(params)] + [lo, hi]:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").reshape(-1).data)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint front to back; each distinct array is read straight into its leaf.

    Only the header and the manifest are held as bytes; the payload is never
    buffered whole. Every ``FormatError`` starts with ``path``.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        header_end = len(MAGIC) + 4
        head = fh.read(header_end)
        if head[: len(MAGIC)] != MAGIC:
            raise FormatError(f"{path}: not an MLPST2 checkpoint: bad magic {head[:6]!r}", offset=0)
        if len(head) < header_end:
            raise FormatError(f"{path}: truncated checkpoint header", offset=len(head))
        (manifest_len,) = struct.unpack("<I", head[len(MAGIC) :])
        manifest_end = header_end + manifest_len
        if file_size < manifest_end:
            raise FormatError(
                f"{path}: truncated manifest: expected {manifest_len} bytes", offset=file_size
            )
        try:
            manifest = fh.read(manifest_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: checkpoint manifest is not UTF-8", offset=header_end + exc.start
            ) from None

        given = {line.partition("=")[0] for line in manifest.splitlines()}
        for f in dataclasses.fields(RunConfig):
            if f.name not in given:
                raise FormatError(f"{path}: checkpoint config has no key {f.name!r}")
        try:
            cfg = parse_config_text(manifest)
            params, stats, arrays = _skeleton(cfg)
        except ConfigError as exc:
            raise FormatError(f"{path}: checkpoint config: {exc}") from None
        payload_len = file_size - manifest_end
        needed = sum(arr.nbytes for arr in arrays)
        if payload_len != needed:
            raise FormatError(
                f"{path}: payload length mismatch: its config describes {needed} bytes, "
                f"got {payload_len}",
                offset=manifest_end,
            )
        for arr in arrays:
            if fh.readinto(memoryview(arr).cast("B")) != arr.nbytes:
                raise FormatError(
                    f"{path}: checkpoint payload changed while it was read", offset=fh.tell()
                )
            if sys.byteorder == "big":  # the payload is little-endian
                arr.byteswap(inplace=True)
    return Checkpoint(params=params, config=cfg, stats=stats)
