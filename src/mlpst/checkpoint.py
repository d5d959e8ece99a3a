"""MLPST2 binary parameter checkpoints.

Layout: the magic string ``MLPST2``, a little-endian u32 byte length, a
UTF-8 manifest of that length, then the raw float64 little-endian payload.
The manifest ends in as many newlines as put the payload at a multiple of
``PAYLOAD_ALIGN`` bytes from the start of the file.

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

Loading maps the file copy-on-write, parses the manifest, builds the
zero-filled skeleton it describes (``build_params`` with ``seed=None``),
requires the payload to hold exactly the skeleton's values and puts a view
of the mapped payload in place of each of its arrays. Saving refuses a tree
that its own config does not describe. So a round trip is bit-exact and
keeps the sharing topology, and a file that does not match its config
raises ``FormatError``.
"""

from __future__ import annotations

import dataclasses
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tree
from .errors import ConfigError, FormatError
from .fileio import atomic_open
from .griddata import NormStats
from .mixer import ModelParams, build_params, check_window
from .runconfig import RunConfig, TemporalConfig, parse_config_text

MAGIC = b"MLPST2"
PAYLOAD_ALIGN = 8  # the payload's offset in the file is a multiple of this


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
    # blank lines, which the config parser skips, align the payload
    manifest += b"\n" * (-(len(MAGIC) + 4 + len(manifest)) % PAYLOAD_ALIGN)

    with atomic_open(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(manifest)))
        fh.write(manifest)
        for arr in [arr for _, arr in tree.unique_leaves(params)] + [lo, hi]:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").reshape(-1).data)


def load_checkpoint(path) -> Checkpoint:
    """Map a checkpoint copy-on-write; each distinct leaf is a view of its payload.

    The loaded arrays are writable, and writing to them changes neither the
    file nor another load of it. They keep the file mapped while they live:
    replacing the file by rename (as every mlpst writer does) leaves them
    intact, but rewriting or truncating it in place is unsupported. Only a
    payload that is not 8-byte aligned in memory (a file written before the
    manifest was padded) or not in native byte order is copied. Every
    ``FormatError`` starts with ``path``.
    """
    with open(path, "rb") as fh:
        # mmap refuses an empty file, which has no magic either
        data = (mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
                if os.fstat(fh.fileno()).st_size else b"")
    header_end = len(MAGIC) + 4
    head = data[:header_end]
    if head[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not an MLPST2 checkpoint: bad magic {head[:6]!r}", offset=0)
    if len(head) < header_end:
        raise FormatError(f"{path}: truncated checkpoint header", offset=len(head))
    (manifest_len,) = struct.unpack("<I", head[len(MAGIC) :])
    manifest_end = header_end + manifest_len
    if len(data) < manifest_end:
        raise FormatError(
            f"{path}: truncated manifest: expected {manifest_len} bytes", offset=len(data)
        )
    try:
        manifest = data[header_end:manifest_end].decode("utf-8")
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
    payload_len = len(data) - manifest_end
    needed = sum(arr.nbytes for arr in arrays)
    if payload_len != needed:
        raise FormatError(
            f"{path}: payload length mismatch: its config describes {needed} bytes, "
            f"got {payload_len}",
            offset=manifest_end,
        )
    payload = np.require(
        np.frombuffer(data, dtype="<f8", count=needed // 8, offset=manifest_end), np.float64, "A"
    )
    views, start = {}, 0
    for arr in arrays:
        views[id(arr)] = payload[start : start + arr.size].reshape(arr.shape)
        start += arr.size
    params, stats = tree.tree_map(lambda arr: views[id(arr)], (params, stats))
    return Checkpoint(params=params, config=cfg, stats=stats)
