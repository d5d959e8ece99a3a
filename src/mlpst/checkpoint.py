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

Loading checks the manifest against the structure it rebuilds: a missing
``[model]`` key, a missing tensor row, a layer count that does not fit
``n_layers`` and a tensor of the wrong shape each raise ``FormatError``.

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
from .griddata import NormStats, TemporalConfig, n_patches
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
            try:
                leaf_path, shape_text, offset_text = line.split("\t")
                shape = tuple(int(s) for s in shape_text.split("x")) if shape_text else ()
                rows.append((leaf_path, shape, int(offset_text)))
            except ValueError:
                raise FormatError(f"bad [tensors] row {line!r}") from None
    return model_kv, "\n".join(config_lines), rows


class _Node(dict):
    """A subtree of tensor paths; looking up a missing child names its path."""

    def __init__(self, path: str = ""):
        super().__init__()
        self.path = path

    def __missing__(self, key: str):
        raise FormatError(f"checkpoint has no tensor {self.path}{key}")


def _nest(rows: dict[str, np.ndarray]) -> _Node:
    """Turn dotted paths into a nested tree of :class:`_Node`."""
    root = _Node()
    for leaf_path, arr in rows.items():
        node = root
        parts = leaf_path.split(".")
        for part in parts[:-1]:
            if part not in node:
                node[part] = _Node(f"{node.path}{part}.")
            node = node[part]
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
    if not all(i.isdigit() for i in node):
        raise FormatError(f"checkpoint layer paths {node.path}* must be numbered")
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


def _expect(path: str, arr: np.ndarray, *dims: int | None) -> None:
    """Raise ``FormatError`` unless ``arr`` has shape ``dims`` (None: any length)."""
    if len(dims) != arr.ndim or any(n is not None and n != s for n, s in zip(dims, arr.shape)):
        want = "x".join("*" if n is None else str(n) for n in dims)
        got = "x".join(str(s) for s in arr.shape) or "scalar"
        raise FormatError(
            f"checkpoint tensor {path} has shape {got}; the model structure needs {want}"
        )


def _check_structure(params: ModelParams) -> None:
    """Check every leaf's shape and every stack's layer count.

    Widths the manifest does not record (``C_S`` and the MLPs' hidden
    widths) are read off the first leaf that holds them and checked on
    the others.
    """
    sp = params.spatial
    h, w, patch = params.grid_h, params.grid_w, sp.patch
    if patch < 1 or h % patch or w % patch:
        raise FormatError(f"checkpoint patch={patch} does not divide the {h}x{w} grid")
    _expect("spatial.fc_w", sp.fc_w, patch * patch * params.grid_d, None)
    c_s = sp.fc_w.shape[1]
    _expect("spatial.fc_b", sp.fc_b, c_s)
    n_p = n_patches(h, w, patch)
    d_t = n_p * c_s
    stacks = [("spatial", sp, n_p, c_s)] + [
        (f"temporal_{name}", bp, bp.seq_len, d_t)
        for name in ("trend", "period", "closeness")
        if (bp := getattr(params, f"temporal_{name}")) is not None
    ]
    for name, stack, n_tokens, n_channels in stacks:
        count = len(stack.layers)
        if count != stack.n_layers and not (count == 1 and stack.n_layers > 1):
            raise FormatError(
                f"checkpoint {name}.layers holds {count} layers for n_layers={stack.n_layers}"
            )
        for i, layer in enumerate(stack.layers):
            prefix = f"{name}.layers.{i}"
            for mlp_name, dim in (("token_mlp", n_tokens), ("channel_mlp", n_channels)):
                mlp = getattr(layer, mlp_name)
                path = f"{prefix}.{mlp_name}"
                _expect(f"{path}.w_in", mlp.w_in, dim, None)
                hidden = mlp.w_in.shape[1]
                _expect(f"{path}.b_in", mlp.b_in, hidden)
                _expect(f"{path}.w_out", mlp.w_out, hidden, dim)
                _expect(f"{path}.b_out", mlp.b_out, dim)
            for ln_name in ("ln_tokens", "ln_channels"):
                ln = getattr(layer, ln_name)
                _expect(f"{prefix}.{ln_name}.gamma", ln.gamma, n_channels)
                _expect(f"{prefix}.{ln_name}.beta", ln.beta, n_channels)
    for name in ("w_trend", "w_period", "w_closeness"):
        _expect(name, getattr(params, name), d_t)
    out_dim = h * w * params.out_channels
    _expect("w_out", params.w_out, d_t, out_dim)
    _expect("b_out", params.b_out, out_dim)


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

    def value(key: str) -> str:
        if key not in model_kv:
            raise FormatError(f"checkpoint manifest has no [model] key {key!r}")
        return model_kv[key]

    def integer(key: str) -> int:
        text = value(key)
        try:
            return int(text)
        except ValueError:
            raise FormatError(f"checkpoint [model] key {key!r} is not an integer: {text!r}") from None

    eps = float(model_kv.get("ln_eps", "1e-5"))
    nested = _nest(arrays)

    spatial_node = nested["spatial"]
    spatial = SpatialMixerParams(
        patch=integer("patch"),
        fc_w=spatial_node["fc_w"],
        fc_b=spatial_node["fc_b"],
        layers=_build_layers(spatial_node.get("layers"), eps),
        n_layers=integer("spatial_n_layers"),
    )

    variant = value("variant")

    def build_branch(name: str, seq_len: int) -> TemporalMixerParams | None:
        if seq_len == 0 or variant == "mlp_sa":
            return None
        node = nested.get(f"temporal_{name}", {})
        return TemporalMixerParams(
            seq_len=seq_len,
            layers=_build_layers(node.get("layers"), eps),
            n_layers=integer(f"{name}_n_layers"),
        )

    temporal_cfg = TemporalConfig(
        trend=integer("trend"),
        period=integer("period"),
        closeness=integer("closeness"),
        trend_interval=integer("trend_interval"),
        period_interval=integer("period_interval"),
        closeness_interval=integer("closeness_interval"),
        block_mode=value("block_mode") == "true",
        enforce_interval_order=value("enforce_interval_order") == "true",
    )

    predict_channel = (
        None if value("predict_channel") == "" else integer("predict_channel")
    )
    params = ModelParams(
        grid_h=integer("grid_h"),
        grid_w=integer("grid_w"),
        grid_d=integer("grid_d"),
        spatial=spatial,
        temporal_trend=build_branch("trend", temporal_cfg.trend),
        temporal_period=build_branch("period", temporal_cfg.period),
        temporal_closeness=build_branch("closeness", temporal_cfg.closeness),
        w_trend=nested["w_trend"],
        w_period=nested["w_period"],
        w_closeness=nested["w_closeness"],
        w_out=nested["w_out"],
        b_out=nested["b_out"],
        variant=variant,
        predict_channel=predict_channel,
    )
    _check_structure(params)
    return Checkpoint(params=params, temporal=temporal_cfg, config_text=config_text, stats=stats)
