"""Flat key=value run configuration with dotted section prefixes.

Example file::

    data.train_root = runs/synth_train
    window.delta = 10
    model.d_model = 32
    train.epochs = 25
    out_dir = runs/out

Command-line ``--set key=value`` pairs override file values. A key of a
settings section names a field of its dataclass and is parsed by the
field's declared type. The full config is validated (types, invariants,
referenced paths) before any command touches the filesystem.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from .data import ADAPTERS, WindowConfig, read_key_values
from .errors import ConfigError
from .features import PolarGridConfig, SemanticConfig, feature_dim
from .model import ModelConfig
from .training import TrainConfig

_DEFAULTS: dict[str, str] = {
    "data.train_root": "",
    "data.test_root": "",
    "data.adapter": "canonical",
    "window.delta": "10",
    "window.kappa": "20",
    "window.stride": "5",
    "window.rate_hz": "10",
    "grid.threshold_px": "64",
    "grid.radial_bins": "4",
    "grid.angular_bins": "8",
    "grid.type_channels": "3",
    "semantic.k": "16",
    "semantic.d_max_px": "32",
    "model.d_model": "64",
    "model.n_heads": "4",
    "model.n_layers": "3",
    "model.d_ff": "0",
    "model.dropout": "0",
    "train.epochs": "25",
    "train.learning_rate": "1e-3",
    "train.beta1": "0.9",
    "train.beta2": "0.98",
    "train.eps": "1e-9",
    "train.batch_size": "32",
    "train.grad_clip": "",
    "train.val_fraction": "0.1",
    "train.checkpoint_every": "0",
    "eval.horizons": "1,2",
    "eval.at_horizon": "false",
    "eval.pooled_rmse": "true",
    "eval.kalman_process_noise": "0.5",
    "eval.kalman_measurement_noise": "0.1",
    "context.enabled": "true",
    "out_dir": "runs/out",
    "seed": "0",
}


def parse_kv_file(path) -> dict[str, str]:
    values = {}
    for line_no, key, value in read_key_values(path, ConfigError):
        if key not in _DEFAULTS:
            raise ConfigError(f"{path} line {line_no}: unknown config key {key!r}")
        values[key] = value
    return values


def _to_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected integer, got {raw!r}") from None


def _to_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected number, got {raw!r}") from None


def _to_optional_float(raw: str, key: str) -> float | None:
    return _to_float(raw, key) if raw else None


def _to_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {raw!r}")


# a settings dataclass field's declared type -> the parser of its value
_PARSERS = {int: _to_int, float: _to_float, float | None: _to_optional_float}


def _section(cls, section: str, values: dict[str, str], **derived):
    """``cls`` built from the ``<section>.<field>`` values, each parsed by the
    field's declared type, plus the ``derived`` fields no key sets; a field
    with neither keeps its default."""
    types = get_type_hints(cls)
    kwargs = {f.name: _PARSERS[types[f.name]](values[key], key)
              for f in fields(cls) if (key := f"{section}.{f.name}") in values}
    return cls(**kwargs, **derived)


@dataclass
class RunConfig:
    train_root: str
    test_root: str
    adapter: str
    window: WindowConfig
    grid: PolarGridConfig
    semantic: SemanticConfig
    model: ModelConfig
    train: TrainConfig
    horizons_s: list[float]
    at_horizon: bool
    pooled_rmse: bool
    kalman_process_noise: float
    kalman_measurement_noise: float
    context: bool
    out_dir: Path
    checkpoint_every: int


def build_run_config(path=None, overrides: list[str] | None = None) -> RunConfig:
    """Merge defaults, an optional config file and --set overrides, validate."""
    values = dict(_DEFAULTS)
    if path is not None:
        values.update(parse_kv_file(path))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = value.strip()

    if values["data.adapter"] not in ADAPTERS:
        raise ConfigError(f"data.adapter must be {'/'.join(ADAPTERS)}, "
                          f"got {values['data.adapter']!r}")

    context = _to_bool(values["context.enabled"], "context.enabled")
    try:
        window = _section(WindowConfig, "window", values)
        grid = _section(PolarGridConfig, "grid", values)
        semantic = _section(SemanticConfig, "semantic", values)
        model = _section(ModelConfig, "model", values,
                         feature_dim=feature_dim(grid, semantic, context))
        train = _section(TrainConfig, "train", values,
                         seed=_to_int(values["seed"], "seed"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    horizons = []
    for token in values["eval.horizons"].split(","):
        token = token.strip()
        if token:
            horizons.append(_to_float(token, "eval.horizons"))
    if not horizons:
        raise ConfigError("eval.horizons must list at least one horizon")

    for key in ("data.train_root", "data.test_root"):
        if values[key] and not Path(values[key]).is_dir():
            raise ConfigError(f"{key}: path {values[key]!r} is not an existing directory")

    return RunConfig(
        train_root=values["data.train_root"],
        test_root=values["data.test_root"],
        adapter=values["data.adapter"],
        window=window,
        grid=grid,
        semantic=semantic,
        model=model,
        train=train,
        horizons_s=horizons,
        at_horizon=_to_bool(values["eval.at_horizon"], "eval.at_horizon"),
        pooled_rmse=_to_bool(values["eval.pooled_rmse"], "eval.pooled_rmse"),
        kalman_process_noise=_to_float(values["eval.kalman_process_noise"],
                                       "eval.kalman_process_noise"),
        kalman_measurement_noise=_to_float(values["eval.kalman_measurement_noise"],
                                           "eval.kalman_measurement_noise"),
        context=context,
        out_dir=Path(values["out_dir"]),
        checkpoint_every=_to_int(values["train.checkpoint_every"], "train.checkpoint_every"),
    )
