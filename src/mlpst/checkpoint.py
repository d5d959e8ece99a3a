"""MLPST1 binary parameter checkpoints.

Layout: the magic string ``MLPST1``, a little-endian u32 byte length, a
UTF-8 manifest of that length, then the raw float64 little-endian payload.
The manifest has three sections:

- ``[model]``    structural scalars (grid geometry, variant, layer counts,
  temporal window definition) needed to rebuild the parameter tree,
- ``[config]``   an opaque echo of the run configuration, for provenance,
- ``[tensors]``  one ``path<TAB>shape<TAB>offset`` row per parameter path;
  shared parameters repeat their path but point at one payload offset, and
  the loader re-shares arrays by offset, so a round trip is bit-exact and
  preserves the sharing topology.

Normalisation statistics ride along as ``stats.lo`` / ``stats.hi`` tensor
rows; they are not trainable parameters and stay outside ``ModelParams``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import tree
from .errors import FormatError
from .fileio import atomic_open
from .griddata import NormStats, TemporalConfig
from .mixer import (
    MixerLayerParams,
    ModelParams,
    SpatialMixerParams,
    TemporalMixerParams,
)
from .tensor import LayerNormParams, MlpBlockParams

MAGIC = b"MLPST1"

_BOOL_KEYS = {"block_mode", "enforce_interval_order"}
_OPTIONAL_INT_KEYS = {"predict_channel"}


@dataclass
class Checkpoint:
    params: ModelParams
    temporal: TemporalConfig
    config_text: str
    stats: NormStats | None


def _model_section(params: ModelParams, temporal: TemporalConfig) -> list[str]:
    branch_layers = {
        name: (0 if bp is None else bp.n_layers)
        for name, bp in (
            ("trend", params.temporal_trend),
            ("period", params.temporal_period),
            ("closeness", params.temporal_closeness),
        )
    }
    ln_eps = params.spatial.layers[0].ln_tokens.eps if params.spatial.layers else 1e-5
    kv = {
        "grid_h": params.grid_h,
        "grid_w": params.grid_w,
        "grid_d": params.grid_d,
        "patch": params.spatial.patch,
        "variant": params.variant,
        "predict_channel": "" if params.predict_channel is None else params.predict_channel,
        "spatial_n_layers": params.spatial.n_layers,
        "trend_n_layers": branch_layers["trend"],
        "period_n_layers": branch_layers["period"],
        "closeness_n_layers": branch_layers["closeness"],
        "ln_eps": repr(ln_eps),
        "trend": temporal.trend,
        "period": temporal.period,
        "closeness": temporal.closeness,
        "trend_interval": temporal.trend_interval,
        "period_interval": temporal.period_interval,
        "closeness_interval": temporal.closeness_interval,
        "block_mode": str(temporal.block_mode).lower(),
        "enforce_interval_order": str(temporal.enforce_interval_order).lower(),
    }
    return [f"{k}={v}" for k, v in kv.items()]


def save_checkpoint(
    path,
    params: ModelParams,
    temporal: TemporalConfig,
    config_text: str = "",
    stats: NormStats | None = None,
) -> None:
    entries = list(tree.iter_leaves(params))
    if stats is not None:
        entries.append(("stats.lo", np.asarray(stats.lo, dtype=np.float64)))
        entries.append(("stats.hi", np.asarray(stats.hi, dtype=np.float64)))

    # each distinct array is stored once; shared leaves repeat its offset
    offsets: dict[int, int] = {}
    payload = []
    size = 0
    rows = []
    for leaf_path, arr in entries:
        key = id(arr)
        if key not in offsets:
            offsets[key] = size
            payload.append(arr)
            size += 8 * arr.size
        shape = "x".join(str(s) for s in arr.shape)
        rows.append(f"{leaf_path}\t{shape}\t{offsets[key]}")

    lines = ["[model]"]
    lines += _model_section(params, temporal)
    lines.append("[config]")
    if config_text:
        lines += config_text.splitlines()
    lines.append("[tensors]")
    lines += rows
    manifest = ("\n".join(lines) + "\n").encode("utf-8")

    with atomic_open(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(manifest)))
        fh.write(manifest)
        for arr in payload:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").reshape(-1).data)


def _parse_manifest(manifest: str) -> tuple[dict[str, str], str, list[tuple[str, tuple, int]]]:
    model_kv: dict[str, str] = {}
    config_lines: list[str] = []
    rows: list[tuple[str, tuple, int]] = []
    section = None
    for line in manifest.splitlines():
        if line in ("[model]", "[config]", "[tensors]"):
            section = line
            continue
        if section == "[model]":
            key, _, value = line.partition("=")
            model_kv[key] = value
        elif section == "[config]":
            config_lines.append(line)
        elif section == "[tensors]":
            leaf_path, shape_text, offset_text = line.split("\t")
            shape = tuple(int(s) for s in shape_text.split("x")) if shape_text else ()
            rows.append((leaf_path, shape, int(offset_text)))
    return model_kv, "\n".join(config_lines), rows


def _nest(rows: dict[str, np.ndarray]) -> dict:
    """Turn dotted paths into a nested dict tree."""
    root: dict = {}
    for leaf_path, arr in rows.items():
        node = root
        parts = leaf_path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = arr
    return root


def _build_mlp(node: dict) -> MlpBlockParams:
    return MlpBlockParams(
        w_in=node["w_in"], b_in=node["b_in"], w_out=node["w_out"], b_out=node["b_out"]
    )


def _build_ln(node: dict, eps: float) -> LayerNormParams:
    return LayerNormParams(gamma=node["gamma"], beta=node["beta"], eps=eps)


def _build_layers(node: dict | None, eps: float) -> list[MixerLayerParams]:
    if not node:
        return []
    layers = []
    for i in sorted(node, key=int):
        ln = node[i]
        layers.append(
            MixerLayerParams(
                token_mlp=_build_mlp(ln["token_mlp"]),
                channel_mlp=_build_mlp(ln["channel_mlp"]),
                ln_tokens=_build_ln(ln["ln_tokens"], eps),
                ln_channels=_build_ln(ln["ln_channels"], eps),
            )
        )
    return layers


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()

    if blob[: len(MAGIC)] != MAGIC:
        raise FormatError(f"not an MLPST1 checkpoint: bad magic {blob[:6]!r}", offset=0)
    header_end = len(MAGIC) + 4
    if len(blob) < header_end:
        raise FormatError("truncated checkpoint header", offset=len(blob))
    (manifest_len,) = struct.unpack("<I", blob[len(MAGIC) : header_end])
    manifest_end = header_end + manifest_len
    if len(blob) < manifest_end:
        raise FormatError(
            f"truncated manifest: expected {manifest_len} bytes", offset=len(blob)
        )
    manifest = blob[header_end:manifest_end].decode("utf-8")
    payload = blob[manifest_end:]

    model_kv, config_text, rows = _parse_manifest(manifest)

    needed = 0
    for _, shape, offset in rows:
        size = 8 * int(np.prod(shape)) if shape else 8
        needed = max(needed, offset + size)
    if len(payload) < needed:
        raise FormatError(
            f"truncated payload: expected at least {needed} bytes, "
            f"got {len(payload)}",
            offset=manifest_end + len(payload),
        )

    by_offset: dict[tuple[int, tuple], np.ndarray] = {}
    arrays: dict[str, np.ndarray] = {}
    for leaf_path, shape, offset in rows:
        key = (offset, shape)
        if key not in by_offset:
            count = int(np.prod(shape)) if shape else 1
            flat = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
            by_offset[key] = flat.astype(np.float64).reshape(shape)
        arrays[leaf_path] = by_offset[key]

    stats = None
    if "stats.lo" in arrays:
        stats = NormStats(lo=arrays.pop("stats.lo"), hi=arrays.pop("stats.hi"))

    eps = float(model_kv.get("ln_eps", "1e-5"))
    nested = _nest(arrays)

    spatial_node = nested.get("spatial", {})
    spatial = SpatialMixerParams(
        patch=int(model_kv["patch"]),
        fc_w=spatial_node["fc_w"],
        fc_b=spatial_node["fc_b"],
        layers=_build_layers(spatial_node.get("layers"), eps),
        n_layers=int(model_kv["spatial_n_layers"]),
    )

    variant = model_kv["variant"]

    def build_branch(name: str, seq_len: int) -> TemporalMixerParams | None:
        if seq_len == 0 or variant == "mlp_sa":
            return None
        node = nested.get(f"temporal_{name}", {})
        return TemporalMixerParams(
            seq_len=seq_len,
            layers=_build_layers(node.get("layers"), eps),
            n_layers=int(model_kv[f"{name}_n_layers"]),
        )

    temporal_cfg = TemporalConfig(
        trend=int(model_kv["trend"]),
        period=int(model_kv["period"]),
        closeness=int(model_kv["closeness"]),
        trend_interval=int(model_kv["trend_interval"]),
        period_interval=int(model_kv["period_interval"]),
        closeness_interval=int(model_kv["closeness_interval"]),
        block_mode=model_kv["block_mode"] == "true",
        enforce_interval_order=model_kv["enforce_interval_order"] == "true",
    )

    predict_channel = (
        None if model_kv["predict_channel"] == "" else int(model_kv["predict_channel"])
    )
    params = ModelParams(
        grid_h=int(model_kv["grid_h"]),
        grid_w=int(model_kv["grid_w"]),
        grid_d=int(model_kv["grid_d"]),
        spatial=spatial,
        temporal_trend=build_branch("trend", temporal_cfg.trend),
        temporal_period=build_branch("period", temporal_cfg.period),
        temporal_closeness=build_branch("closeness", temporal_cfg.closeness),
        w_trend=arrays["w_trend"],
        w_period=arrays["w_period"],
        w_closeness=arrays["w_closeness"],
        w_out=arrays["w_out"],
        b_out=arrays["b_out"],
        variant=variant,
        predict_channel=predict_channel,
    )
    return Checkpoint(params=params, temporal=temporal_cfg, config_text=config_text, stats=stats)
