"""MLPST1 binary parameter checkpoints.

Layout: the magic string ``MLPST1``, a little-endian u32 byte length, a
UTF-8 manifest of that length, then the raw float64 little-endian payload.
The manifest has two sections:

- ``[config]``   the complete run configuration, one line per ``RunConfig``
  key. The model and window keys are the config the parameters were built
  from (``ModelParams.config``) and the grid is theirs, so the section
  describes the parameter tree; the training and loss keys echo the
  caller's configuration text.
- ``[tensors]``  one ``path<TAB>shape<TAB>offset`` row per parameter path;
  shared parameters repeat their path but point at one payload offset.
  Offsets count bytes from the payload's start, are nonnegative, and the
  byte ranges of distinct offsets do not overlap.

Loading parses ``[config]``, builds the zero-filled skeleton that config
describes (``build_params`` with ``seed=None``) and fills its leaves from the
payload. Saving and loading check the rows against the skeleton in one way:
the same paths, the same shapes, and two paths share an offset exactly when
the skeleton shares their array. So a round trip is bit-exact and keeps the
sharing topology, a tree that its own config does not describe cannot be
saved, and a file that does not match its config raises ``FormatError``.

Every checkpoint carries the normalisation statistics as ``stats.lo`` /
``stats.hi`` tensor rows; they are not trainable parameters and stay outside
``ModelParams``. A file without them does not load.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
import sys
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import tree
from .errors import ConfigError, FormatError
from .fileio import atomic_open
from .griddata import NormStats
from .mixer import ModelParams, build_params, check_window
from .runconfig import RunConfig, TemporalConfig, parse_config_text

MAGIC = b"MLPST1"


@dataclass
class Checkpoint:
    params: ModelParams
    config: RunConfig
    stats: NormStats

    @property
    def temporal(self) -> TemporalConfig:
        return self.config.temporal_config()


def _skeleton(cfg: RunConfig):
    """The zero-filled params and stats ``cfg`` describes, and their ``(path, array)`` leaves."""
    if None in (cfg.h, cfg.w, cfg.d):
        raise ConfigError("grid geometry h, w and d must be set")
    cfg.validate()
    params = build_params(cfg.model_config(), cfg.h, cfg.w, cfg.d, seed=None)
    stats = NormStats(lo=np.zeros(cfg.d), hi=np.zeros(cfg.d))
    leaves = [*tree.iter_leaves(params), ("stats.lo", stats.lo), ("stats.hi", stats.hi)]
    return params, stats, leaves


def _shape_text(shape: tuple) -> str:
    return "x".join(str(s) for s in shape)


def _match(leaves, rows) -> list[tuple[np.ndarray, int]]:
    """Check ``(path, shape, offset)`` rows against a skeleton's ``(path, array)`` leaves.

    Every leaf needs a row of its shape and every row a leaf; two rows share
    an offset exactly when their leaves are one array. Returns each distinct
    array with its offset.
    """
    by_path = {}
    for path, shape, offset in rows:
        if path in by_path:
            raise FormatError(f"checkpoint lists tensor {path} twice")
        by_path[path] = shape, offset
    first_of_array: dict[int, str] = {}
    first_at_offset: dict[int, str] = {}
    out = []
    for path, arr in leaves:
        if path not in by_path:
            raise FormatError(f"checkpoint has no tensor {path}")
        shape, offset = by_path.pop(path)
        if shape != arr.shape:
            raise FormatError(
                f"checkpoint tensor {path} has shape {_shape_text(shape) or 'scalar'}; "
                f"the model structure needs {_shape_text(arr.shape)}"
            )
        shared_with = first_of_array.setdefault(id(arr), path)
        stored_with = first_at_offset.setdefault(offset, path)
        if shared_with != stored_with:
            raise FormatError(
                f"checkpoint tensor {path} shares storage with {stored_with}; "
                "the model structure keeps them apart"
                if stored_with != path else
                f"checkpoint tensor {path} is stored apart from {shared_with}; "
                "the model structure shares them"
            )
        if shared_with == path:
            out.append((arr, offset))
    if by_path:
        raise FormatError(f"checkpoint has an unknown tensor {next(iter(by_path))}")
    return out


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
    skeleton, _, expected = _skeleton(cfg)
    entries = [
        *tree.iter_leaves(params),
        ("stats.lo", np.asarray(stats.lo, dtype=np.float64)),
        ("stats.hi", np.asarray(stats.hi, dtype=np.float64)),
    ]

    # each distinct array is stored once; shared leaves repeat its offset
    payload = [arr for _, arr in tree.unique_leaves([arr for _, arr in entries])]
    starts = accumulate((8 * arr.size for arr in payload), initial=0)
    offsets = {id(arr): start for arr, start in zip(payload, starts)}
    rows = [(leaf_path, arr.shape, offsets[id(arr)]) for leaf_path, arr in entries]
    _match(expected, rows)
    # the leaves match; the layer counts and sequence lengths must too
    if tree.tree_map(np.shape, params) != tree.tree_map(np.shape, skeleton):
        raise FormatError(
            "parameter tree has layer counts or sequence lengths that its model "
            "config does not describe"
        )

    lines = ["[config]", *cfg.to_text().splitlines(), "[tensors]"]
    lines += [f"{p}\t{_shape_text(shape)}\t{offset}" for p, shape, offset in rows]
    manifest = ("\n".join(lines) + "\n").encode("utf-8")

    with atomic_open(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(manifest)))
        fh.write(manifest)
        for arr in payload:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").reshape(-1).data)


def _parse_manifest(manifest: str) -> tuple[list[str], list[tuple[str, tuple, int]]]:
    sections: dict[str, list[str]] = {"[config]": [], "[tensors]": []}
    lines = None
    for line in manifest.splitlines():
        if line.startswith("["):
            if line not in sections:
                raise FormatError(
                    f"checkpoint manifest has an unknown section {line} "
                    "(files with a [model] section predate this format)"
                )
            lines = sections[line]
        elif lines is None:
            raise FormatError(f"checkpoint manifest line {line!r} is outside a section")
        else:
            lines.append(line)
    rows: list[tuple[str, tuple, int]] = []
    for line in sections["[tensors]"]:
        try:
            leaf_path, shape_text, offset_text = line.split("\t")
            shape = tuple(int(s) for s in shape_text.split("x")) if shape_text else ()
            offset = int(offset_text)
        except ValueError:
            raise FormatError(f"bad [tensors] row {line!r}") from None
        if offset < 0:
            raise FormatError(f"bad [tensors] row {line!r}: negative offset")
        rows.append((leaf_path, shape, offset))
    return sections["[config]"], rows


def _payload_end(rows) -> int:
    """The payload length matched rows need; rows at distinct offsets must not overlap."""
    end, start, last = 0, None, None
    for leaf_path, shape, offset in sorted(rows, key=lambda row: row[2]):
        if offset != start and offset < end:
            raise FormatError(f"checkpoint tensor {leaf_path} overlaps {last} in the payload")
        start, stop = offset, offset + 8 * math.prod(shape)
        if stop > end:
            end, last = stop, leaf_path
    return end


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; each distinct tensor is read straight into its leaf.

    Only the header and the manifest are held as bytes; the payload is never
    buffered whole.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        header_end = len(MAGIC) + 4
        head = fh.read(header_end)
        if head[: len(MAGIC)] != MAGIC:
            raise FormatError(f"not an MLPST1 checkpoint: bad magic {head[:6]!r}", offset=0)
        if len(head) < header_end:
            raise FormatError("truncated checkpoint header", offset=len(head))
        (manifest_len,) = struct.unpack("<I", head[len(MAGIC) :])
        manifest_end = header_end + manifest_len
        if file_size < manifest_end:
            raise FormatError(
                f"truncated manifest: expected {manifest_len} bytes", offset=file_size
            )
        try:
            manifest = fh.read(manifest_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                "checkpoint manifest is not UTF-8", offset=header_end + exc.start
            ) from None
        config_lines, rows = _parse_manifest(manifest)

        given = {line.partition("=")[0] for line in config_lines}
        for f in dataclasses.fields(RunConfig):
            if f.name not in given:
                raise FormatError(f"checkpoint [config] has no key {f.name!r}")
        try:
            cfg = parse_config_text("\n".join(config_lines))
            params, stats, expected = _skeleton(cfg)
        except ConfigError as exc:
            raise FormatError(f"checkpoint [config]: {exc}") from None
        arrays = _match(expected, rows)
        payload_len = file_size - manifest_end
        needed = _payload_end(rows)
        if payload_len < needed:
            raise FormatError(
                f"truncated payload: expected at least {needed} bytes, "
                f"got {payload_len}",
                offset=file_size,
            )
        for arr, offset in arrays:
            fh.seek(manifest_end + offset)
            if fh.readinto(memoryview(arr).cast("B")) != arr.nbytes:
                raise FormatError("checkpoint payload changed while it was read", offset=fh.tell())
            if sys.byteorder == "big":  # the payload is little-endian
                arr.byteswap(inplace=True)
    return Checkpoint(params=params, config=cfg, stats=stats)
