"""Hyperparameters, declared once, and the flat key=value run configuration.

Every hyperparameter is a field of one of four dataclasses, which declares
its default and its valid values: :class:`TemporalConfig` (the input window),
:class:`ModelConfig` (the network), :class:`LossConfig` and
:class:`TrainConfig`. :class:`RunConfig` is derived from them: one flat field
per sub-config field, rule included, named as in the sub-config except ``layers``
(``ModelConfig.n_layers``) and ``combine_loss`` (``LossConfig.combine``), plus
the grid geometry ``h``/``w``/``d`` and the optional ``window`` check. Each
``validate`` checks every field's declared rule, then the cross-field rules.

Text format: lines are ``key = value``; ``#`` starts a comment; blank lines
are ignored. Unknown keys, repeated keys and unconvertible values are
configuration errors.
Checkpoints store the same text, so ``parse_config_text(cfg.to_text())``
round-trips.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .errors import ConfigError

VARIANTS = ("full", "mlp_at", "mlp_sa")


def _rule(default, **rule):
    """A field holding ``default``; ``rule`` is ``ge``/``gt`` a bound or ``choices``."""
    return field(default=default, metadata=rule)


def _check_fields(cfg) -> None:
    """Raise :class:`ConfigError` naming the first field of ``cfg`` that breaks its rule.

    An unset (``None``) value passes. A bound also requires the value to be
    below inf, and NaN fails every comparison, so neither passes one.
    """
    for f in dataclasses.fields(cfg):
        value, rule = getattr(cfg, f.name), f.metadata
        if value is None or not rule:
            continue
        if "choices" in rule:
            ok, want = value in rule["choices"], f"one of {rule['choices']}"
        else:
            ((op, low),) = rule.items()
            values = value if isinstance(value, tuple) else (value,)
            ok = all((v >= low if op == "ge" else v > low) and v < math.inf for v in values)
            sign = ">=" if op == "ge" else ">"
            want = f"{sign} {low} and finite" if isinstance(low, float) else f"{sign} {low}"
        if not ok:
            raise ConfigError(f"{f.name} must be {want}, got {value!r}")


@dataclass(frozen=True)
class TemporalConfig:
    """Trend/period/closeness lengths and their sampling intervals.

    ``trend``, ``period`` and ``closeness`` are sequence lengths summing to
    the input window T. The intervals give the stride (in unit time steps)
    at which each sequence samples the history; ``block_mode`` instead
    carves the last ``T`` steps into three contiguous blocks in
    trend/period/closeness order, ignoring the intervals.
    """

    trend: int = _rule(2, ge=0)
    period: int = _rule(2, ge=0)
    closeness: int = _rule(8, ge=0)
    trend_interval: int = _rule(168, ge=1)
    period_interval: int = _rule(24, ge=1)
    closeness_interval: int = _rule(1, ge=1)
    block_mode: bool = False
    enforce_interval_order: bool = True

    @property
    def window(self) -> int:
        return self.trend + self.period + self.closeness

    def validate(self) -> None:
        _check_fields(self)
        if self.trend == 1 or self.period == 1:
            raise ConfigError(
                "trend and period lengths of 1 are not allowed (nothing to mix); "
                "use 0 or >= 2"
            )
        if self.window < 1:
            raise ConfigError("input window trend + period + closeness must be at least 1")
        if self.block_mode or not self.enforce_interval_order:
            return
        # only intervals of active branches are constrained
        active = [
            (length, interval)
            for length, interval in (
                (self.trend, self.trend_interval),
                (self.period, self.period_interval),
                (self.closeness, self.closeness_interval),
            )
            if length > 0
        ]
        for (_, hi), (_, lo) in zip(active, active[1:]):
            if hi <= lo:
                raise ConfigError(
                    "intervals must satisfy trend > period > closeness among "
                    "active branches (set enforce_interval_order=false to override)"
                )


@dataclass
class ModelConfig:
    """Hyperparameters defining a model for a given grid geometry."""

    temporal: TemporalConfig = field(default_factory=TemporalConfig)
    patch: int = _rule(2, ge=1)
    channels_spatial: int = _rule(20, ge=1)   # C_S: token width after the per-patch FC
    channels_temporal: int = _rule(20, ge=1)  # C_T: hidden units of temporal channel-mixing MLPs
    expansion: int = _rule(8, ge=1)           # hidden units of the remaining mixing MLPs
    n_layers: int = _rule(8, ge=0)
    variant: str = _rule("full", choices=VARIANTS)
    share_layers: bool = True
    share_branches: bool = False
    predict_channel: int | None = _rule(None, ge=0)

    def validate(self) -> None:
        self.temporal.validate()
        _check_fields(self)


@dataclass
class LossConfig:
    q: int = _rule(2, choices=(1, 2))  # 1 = absolute-error loss, 2 = root-of-squares loss
    combine: bool = False  # sum the q=1 and q=2 losses

    def validate(self) -> None:
        _check_fields(self)


@dataclass
class TrainConfig:
    batch_size: int = _rule(64, ge=1)
    max_epochs: int = _rule(100, ge=1)
    patience: int = _rule(10, ge=1)
    split: tuple[float, float, float] = _rule((0.7, 0.1, 0.2), ge=0.0)
    seed: int = _rule(0, ge=0)
    lr: float = _rule(1e-3, gt=0.0)
    min_history: int | None = _rule(None, ge=0)

    def validate(self) -> None:
        _check_fields(self)
        if not (abs(sum(self.split) - 1.0) <= 1e-9 and 0.0 < self.split[1] < 1.0):
            raise ConfigError(f"split must be three ratios summing to 1 with the validation "
                              f"share in (0, 1), got {self.split}")


# sub-config field -> flat key, where the two differ
_FLAT_NAMES = {"n_layers": "layers", "combine": "combine_loss"}
# flat key -> (sub-config, field); ModelConfig.temporal contributes the TemporalConfig keys
_SUB_KEYS = {
    _FLAT_NAMES.get(f.name, f.name): (cls, f)
    for cls in (ModelConfig, TemporalConfig, LossConfig, TrainConfig)
    for f in dataclasses.fields(cls)
    if f.name != "temporal"
}


def _flatten(cls):
    """Add one field per sub-config field, its rule included, to ``cls``; make it a dataclass."""
    for key, (_, f) in _SUB_KEYS.items():
        cls.__annotations__[key] = f.type
        setattr(cls, key, field(default=f.default, metadata=f.metadata))
    return dataclass(cls)


@_flatten
class RunConfig:
    """The flat run configuration: the fields below, then every sub-config field."""

    # grid geometry; None means "take from the dataset"
    h: int | None = _rule(None, ge=1)
    w: int | None = _rule(None, ge=1)
    d: int | None = _rule(None, ge=1)
    # if set, must equal trend + period + closeness
    window: int | None = _rule(None, ge=1)

    # -- conversions ---------------------------------------------------

    @classmethod
    def from_configs(cls, model: ModelConfig, train: TrainConfig, loss: LossConfig) -> "RunConfig":
        """The run configuration whose sub-configs are ``model``, ``train`` and ``loss``.

        The inverse of :meth:`model_config`, :meth:`train_config` and
        :meth:`loss_config`; grid geometry and ``window`` stay unset.
        """
        subs = {ModelConfig: model, TemporalConfig: model.temporal, TrainConfig: train, LossConfig: loss}
        return cls(**{key: getattr(subs[c], f.name) for key, (c, f) in _SUB_KEYS.items()})

    def _sub(self, cls, **extra):
        kwargs = {f.name: getattr(self, key) for key, (c, f) in _SUB_KEYS.items() if c is cls}
        return cls(**kwargs, **extra)

    def temporal_config(self) -> TemporalConfig:
        return self._sub(TemporalConfig)

    def model_config(self) -> ModelConfig:
        return self._sub(ModelConfig, temporal=self.temporal_config())

    def train_config(self) -> TrainConfig:
        return self._sub(TrainConfig)

    def loss_config(self) -> LossConfig:
        return self._sub(LossConfig)

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        # every key's own rule first, so an error names the key as written
        _check_fields(self)
        window = self.temporal_config().window
        if self.window is not None and self.window != window:
            raise ConfigError(f"window={self.window} violates trend+period+closeness=={window}")
        self.model_config().validate()
        self.train_config().validate()
        self.loss_config().validate()
        for name in ("h", "w"):
            value = getattr(self, name)
            if value is not None and value % self.patch != 0:
                raise ConfigError(f"patch={self.patch} must divide {name}={value}")
        if None not in (self.predict_channel, self.d) and self.predict_channel >= self.d:
            raise ConfigError(
                f"predict_channel={self.predict_channel} is outside the feature channels"
            )

    def resolve_grid(self, h: int, w: int, d: int) -> "RunConfig":
        """Fill grid geometry from a dataset, rejecting explicit mismatches."""
        for name, value in (("h", h), ("w", w), ("d", d)):
            configured = getattr(self, name)
            if configured is not None and configured != value:
                raise ConfigError(
                    f"config {name}={configured} does not match the dataset ({value})"
                )
        resolved = dataclasses.replace(self, h=h, w=w, d=d)
        resolved.validate()
        return resolved

    # -- text format ---------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None:
                text = ""
            elif isinstance(value, bool):
                text = str(value).lower()
            elif isinstance(value, tuple):
                text = ",".join(repr(v) for v in value)
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append(f"{f.name}={text}")
        return "\n".join(lines) + "\n"


def _boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _ratios(text: str) -> tuple[float, float, float]:
    parts = tuple(float(p) for p in text.split(","))
    if len(parts) != 3:
        raise ValueError("split needs three comma-separated ratios")
    return parts


# field annotation -> parser of the stripped value text
_PARSERS = {
    "int": int,
    "int | None": lambda text: None if text == "" else int(text),
    "float": float,
    "str": str,
    "bool": _boolean,
    "tuple[float, float, float]": _ratios,
}
_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def parse_config_text(text: str) -> RunConfig:
    cfg = RunConfig()
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"config line {lineno} is not key=value: {raw!r}")
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
        if key in seen:
            raise ConfigError(f"config key {key!r} is set twice (lines {seen[key]} and {lineno})")
        seen[key] = lineno
        try:
            setattr(cfg, key, _PARSERS[_FIELDS[key].type](value.strip()))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} (line {lineno}): {exc}") from exc
    return cfg


def read_config_text(path) -> str:
    """A configuration file's text, decoded as UTF-8; other bytes are a ConfigError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (at byte {exc.start})") from None


def parse_config_file(path) -> RunConfig:
    return parse_config_text(read_config_text(path))
