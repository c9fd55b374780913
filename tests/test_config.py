import json
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from trajformer.cli import main
from trajformer.config import _DEFAULTS, build_run_config
from trajformer.data import WindowConfig
from trajformer.errors import ConfigError
from trajformer.features import PolarGridConfig, SemanticConfig
from trajformer.model import ModelConfig
from trajformer.training import TrainConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SECTIONS = {"window": WindowConfig, "grid": PolarGridConfig, "semantic": SemanticConfig,
            "model": ModelConfig, "train": TrainConfig}

# the settings each shipped config gives, as JSON so that 10 and 10.0 differ
DESK = {
    "window": {"delta": 10, "kappa": 20, "stride": 5, "rate_hz": 10.0},
    "grid": {"threshold_px": 64.0, "radial_bins": 4, "angular_bins": 8, "type_channels": 3},
    "semantic": {"k": 16, "d_max_px": 32.0},
    "model": {"feature_dim": 104, "d_model": 32, "n_heads": 2, "n_layers": 2, "d_ff": 128,
              "dropout": 0.0, "out_dim": 2},
    "train": {"epochs": 30, "learning_rate": 0.001, "beta1": 0.9, "beta2": 0.98, "eps": 1e-09,
              "batch_size": 16, "seed": 0, "grad_clip": 1.0, "val_fraction": 0.1},
    "run": {"train_root": "", "test_root": "", "adapter": "canonical",
            "horizons_s": [0.5, 1.0, 1.5, 2.0], "at_horizon": False, "pooled_rmse": True,
            "kalman_process_noise": 0.5, "kalman_measurement_noise": 0.1, "context": True,
            "out_dir": "runs/desk", "checkpoint_every": 0},
}
PAPER = {
    "window": {"delta": 30, "kappa": 50, "stride": 1, "rate_hz": 10.0},
    "grid": DESK["grid"],
    "semantic": DESK["semantic"],
    "model": {"feature_dim": 104, "d_model": 512, "n_heads": 8, "n_layers": 6, "d_ff": 2048,
              "dropout": 0.0, "out_dim": 2},
    "train": {"epochs": 250, "learning_rate": 0.0001, "beta1": 0.9, "beta2": 0.98,
              "eps": 1e-09, "batch_size": 32, "seed": 0, "grad_clip": None,
              "val_fraction": 0.1},
    "run": {**DESK["run"], "horizons_s": [1.0, 2.0, 3.0, 4.0, 5.0], "out_dir": "runs/full",
            "checkpoint_every": 10},
}


def settings(cfg) -> str:
    out = {name: asdict(getattr(cfg, name)) for name in SECTIONS}
    out["run"] = {name: getattr(cfg, name) for name in DESK["run"]}
    out["run"]["out_dir"] = str(cfg.out_dir)
    return json.dumps(out, sort_keys=True)


def test_section_keys_name_dataclass_fields():
    for key in _DEFAULTS:
        section, _, name = key.partition(".")
        if section in SECTIONS and key != "train.checkpoint_every":
            assert name in {f.name for f in fields(SECTIONS[section])}, key


@pytest.mark.parametrize("name, expected", [("desk.cfg", DESK), ("paper.cfg", PAPER)])
def test_shipped_config_values(name, expected):
    assert settings(build_run_config(CONFIG_DIR / name)) == json.dumps(expected, sort_keys=True)


def test_seed_and_feature_dim_are_derived():
    cfg = build_run_config(None, ["seed=7", "context.enabled=false"])
    assert cfg.train.seed == 7
    assert cfg.model.feature_dim == 2


@pytest.mark.parametrize("key, value, expected", [
    ("window.delta", "ten", "integer"),
    ("model.n_layers", "2.5", "integer"),
    ("grid.threshold_px", "wide", "number"),
    ("train.grad_clip", "x", "number"),
    ("eval.at_horizon", "maybe", "true/false"),
    ("context.enabled", "2", "true/false"),
    # values that ended in tracebacks, diverged or trained in reverse
    ("model.n_heads", "0", ">= 1"),
    ("model.n_heads", "-1", ">= 1"),
    ("model.d_model", "0", ">= 2"),
    ("model.d_model", "-2", ">= 2"),
    ("model.d_ff", "-4", ">= 0"),
    ("train.grad_clip", "-1", "positive"),
    ("train.grad_clip", "0", "positive"),
    ("train.eps", "0", "positive"),
    ("train.eps", "-1", "positive"),
    ("train.checkpoint_every", "-1", ">= 0"),
    ("window.rate_hz", "nan", "finite"),
    ("semantic.d_max_px", "nan", "finite"),
    ("semantic.d_max_px", "inf", "finite"),
    ("eval.horizons", "nan", "finite"),
    ("eval.horizons", "1,inf", "finite"),
    # horizons the windows cannot score: 90 and 0 steps at 10 Hz with kappa 20
    ("eval.horizons", "1,9", "90 steps"),
    ("eval.horizons", "0.01", "0 steps"),
    ("eval.kalman_measurement_noise", "nan", "finite"),
    ("eval.kalman_measurement_noise", "0", "> 0"),
    ("eval.kalman_process_noise", "-1", ">= 0"),
])
def test_bad_value_names_its_key(key, value, expected):
    with pytest.raises(ConfigError, match=expected) as exc:
        build_run_config(None, [f"{key}={value}"])
    assert key in str(exc.value)


def test_invalid_setting_is_a_config_error():
    with pytest.raises(ConfigError, match="delta must be >= 2"):
        build_run_config(None, ["window.delta=1"])


def test_empty_grad_clip_is_none():
    assert build_run_config(None, ["train.grad_clip="]).train.grad_clip is None
    assert build_run_config(None, ["train.grad_clip=0.5"]).train.grad_clip == 0.5


def test_file_lines_are_checked(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nwindow.delta = 12\nwindow.bogus = 1\n")
    with pytest.raises(ConfigError, match="line 4: unknown config key 'window.bogus'"):
        build_run_config(path)
    path.write_text("window.delta = 12\nno equals sign\n")
    with pytest.raises(ConfigError, match="line 2: expected key=value"):
        build_run_config(path)
    path.write_text("  window.delta=12  \n")
    assert build_run_config(path).window.delta == 12


@pytest.mark.parametrize("kind", ["missing", "directory", "latin-1"])
def test_unreadable_config_exits_1(tmp_path, capsys, kind):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes("out_dir = caf\xe9\n".encode("latin-1"))
    out = tmp_path / "out"
    assert main(["preprocess", "--config", str(path), "--set", f"out_dir={out}"]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: cannot read" in err
    assert not out.exists()
