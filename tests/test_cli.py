import csv
import hashlib
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from oracle_helpers import load_report

import trajformer
from trajformer import cli, data
from trajformer.cli import main
from trajformer.config import build_run_config
from trajformer.data import root_digest
from trajformer.model import load_checkpoint, save_checkpoint
from trajformer.serialize import load_bundle, save_bundle

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

DESK = [
    "window.delta=5", "window.kappa=5", "window.stride=10",
    "grid.radial_bins=2", "grid.angular_bins=4", "semantic.k=4", "semantic.d_max_px=4",
    "model.d_model=8", "model.n_heads=2", "model.n_layers=1", "model.d_ff=16",
    "train.epochs=2", "train.batch_size=8", "train.val_fraction=0",
    "eval.horizons=0.3,0.5", "seed=4",
]


def run(*argv):
    return main(list(argv))


def sets(pairs):
    out = []
    for p in pairs:
        out.extend(["--set", p])
    return out


@pytest.fixture()
def dataset(tmp_path):
    root = tmp_path / "ds"
    assert run("synth", "--out", str(root), "--scenario", "linear", "--n", "2",
               "--scenes", "2", "--seed", "1") == 0
    return root


def desk_args(dataset, out_dir, extra=()):
    return sets([f"data.train_root={dataset}", f"out_dir={out_dir}", *DESK, *extra])


@pytest.mark.parametrize("name", ["desk.cfg", "paper.cfg"])
def test_shipped_configs_validate(name):
    cfg = build_run_config(CONFIG_DIR / name)
    if name == "paper.cfg":
        assert cfg.model.d_model == 512 and cfg.model.n_heads == 8 and cfg.model.n_layers == 6
        assert cfg.window.delta == 30 and cfg.window.kappa == 50
        assert cfg.grid.threshold_px == 64
        assert cfg.train.epochs == 250
        assert cfg.horizons_s == [1, 2, 3, 4, 5]


def test_synth_unknown_scenario_exit_1(tmp_path, capsys):
    assert run("synth", "--out", str(tmp_path / "x"), "--scenario", "wiggle") == 1
    assert "linear" in capsys.readouterr().err


def test_usage_error_exit_1(capsys):
    assert run("definitely-not-a-command") == 1


def test_invalid_config_writes_nothing(tmp_path, dataset):
    out = tmp_path / "out"
    rc = run("preprocess", *desk_args(dataset, out, ["model.d_model=7"]))  # odd d_model
    assert rc == 1
    assert not out.exists()


def test_preprocess_reports_counts_and_is_deterministic(tmp_path, dataset, capsys):
    out = tmp_path / "out"
    assert run("preprocess", *desk_args(dataset, out)) == 0
    printed = capsys.readouterr().out
    assert "windows" in printed
    cache = out / "cache" / "train_features.bin"
    assert cache.exists()
    first = hashlib.sha256(cache.read_bytes()).hexdigest()
    assert run("preprocess", *desk_args(dataset, out)) == 0
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == first
    assert (out / "canonical" / "train" / "linear_s1_00" / "tracks.csv").exists()


def test_preprocess_empty_root_warns_exit_0(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "out"
    assert run("preprocess", *desk_args(empty, out)) == 0
    assert "warning" in capsys.readouterr().err


def test_train_requires_cache(tmp_path, dataset):
    assert run("train", *desk_args(dataset, tmp_path / "out")) == 2


LOCK_HOLDER = """
import fcntl, os, sys
fd = os.open(sys.argv[1], os.O_CREAT | os.O_WRONLY)
fcntl.flock(fd, fcntl.LOCK_EX)
print("locked", flush=True)
sys.stdin.read()
"""


def hold_lock(path):
    """A live process holding the output lock until its stdin closes."""
    proc = subprocess.Popen([sys.executable, "-c", LOCK_HOLDER, str(path)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "locked\n"
    return proc


def test_lock_file_blocks_concurrent_use(tmp_path, dataset, capsys):
    out = tmp_path / "out"
    out.mkdir()
    holder = hold_lock(out / ".lock")
    try:
        assert run("preprocess", *desk_args(dataset, out)) == 1
        assert "locked" in capsys.readouterr().err
        assert not (out / "cache").exists()
    finally:
        holder.stdin.close()
        assert holder.wait(timeout=30) == 0
        holder.stdout.close()
    assert run("preprocess", *desk_args(dataset, out)) == 0


def test_lock_left_by_dead_process_does_not_block(tmp_path, dataset):
    out = tmp_path / "out"
    out.mkdir()
    holder = hold_lock(out / ".lock")
    holder.kill()
    holder.wait(timeout=30)
    holder.stdin.close()
    holder.stdout.close()
    assert (out / ".lock").exists()
    assert run("preprocess", *desk_args(dataset, out)) == 0
    assert (out / "cache" / "train_features.bin").exists()


def train_pipeline(tmp_path, dataset, extra=()):
    out = tmp_path / "out"
    assert run("preprocess", *desk_args(dataset, out, extra)) == 0
    assert run("train", *desk_args(dataset, out, extra)) == 0
    return out


def test_train_writes_checkpoint_and_log(tmp_path, dataset):
    out = train_pipeline(tmp_path, dataset)
    ckpt = load_checkpoint(out / "model.ckpt")
    assert ckpt.meta["train_dataset"] == "ds"
    assert ckpt.meta["epochs_done"] == 2
    with open(out / "train_log.csv") as f:
        rows = list(csv.DictReader(f))
    assert [r["epoch"] for r in rows] == ["0", "1"]
    assert all(float(r["train_loss"]) > 0 for r in rows)
    assert list(rows[0]) == ["epoch", "train_loss", "val_loss", "wall_seconds",
                             "grad_norm", "clipped_batches", "windows_per_s"]
    assert all(float(r["grad_norm"]) > 0 and float(r["windows_per_s"]) > 0 for r in rows)
    assert all(0 <= int(r["clipped_batches"]) for r in rows)


def test_resume_continues_loss_curve(tmp_path, dataset):
    full_out = tmp_path / "full"
    assert run("preprocess", *desk_args(dataset, full_out, ["train.epochs=4"])) == 0
    assert run("train", *desk_args(dataset, full_out, ["train.epochs=4"])) == 0
    with open(full_out / "train_log.csv") as f:
        full_losses = [r["train_loss"] for r in csv.DictReader(f)]

    part_out = tmp_path / "part"
    assert run("preprocess", *desk_args(dataset, part_out, ["train.epochs=2"])) == 0
    assert run("train", *desk_args(dataset, part_out, ["train.epochs=2"])) == 0
    assert run("train", *desk_args(dataset, part_out, ["train.epochs=4"]),
               "--resume", str(part_out / "model.ckpt")) == 0
    with open(part_out / "train_log.csv") as f:
        spliced = [r["train_loss"] for r in csv.DictReader(f)]
    assert spliced == full_losses


def test_resume_widens_a_log_without_diagnostics_columns(tmp_path, dataset):
    out = tmp_path / "out"
    assert run("preprocess", *desk_args(dataset, out, ["train.epochs=1"])) == 0
    assert run("train", *desk_args(dataset, out, ["train.epochs=1"])) == 0
    log = out / "train_log.csv"
    old_rows = [row[:4] for row in csv.reader(log.open(newline=""))]
    with log.open("w", newline="") as f:
        csv.writer(f).writerows(old_rows)
    assert run("train", *desk_args(dataset, out, ["train.epochs=2"]),
               "--resume", str(out / "model.ckpt")) == 0
    rows = list(csv.reader(log.open(newline="")))
    assert rows[0][4:] == ["grad_norm", "clipped_batches", "windows_per_s"]
    assert rows[1] == old_rows[1] + ["", "", ""]
    assert len(rows) == 3 and len(rows[2]) == 7 and float(rows[2][4]) > 0


def test_evaluate_oracle_self_test_zero_table(tmp_path, dataset):
    out = tmp_path / "out"
    assert run("evaluate", *desk_args(dataset, out), "--test-root", str(dataset),
               "--methods", "", "--self-test-oracle") == 0
    table = load_report(out / "report.csv")
    assert len(table.rows) == 2  # two horizons
    assert all(r.ade_m == 0.0 and r.rmse_m == 0.0 for r in table.rows)
    assert (out / "report.md").exists()


def test_evaluate_methods_times_horizons(tmp_path, dataset):
    out = train_pipeline(tmp_path, dataset)
    test_root = tmp_path / "ds_test"
    assert run("synth", "--out", str(test_root), "--scenario", "linear", "--n", "1",
               "--scenes", "1", "--seed", "2") == 0
    assert run("evaluate", *desk_args(dataset, out), "--test-root", str(test_root),
               "--checkpoint", str(out / "model.ckpt"),
               "--methods", "context_tf,cv_kalman") == 0
    table = load_report(out / "report.csv")
    assert len(table.rows) == 2 * 2
    assert {r.method for r in table.rows} == {"context_tf", "cv_kalman"}
    assert all(r.dataset == "ds_test" for r in table.rows)


def test_evaluate_same_dataset_protocol_guard(tmp_path, dataset, capsys, monkeypatch):
    out = train_pipeline(tmp_path, dataset)
    args = desk_args(dataset, out) + ["--test-root", str(dataset),
                                      "--checkpoint", str(out / "model.ckpt"),
                                      "--methods", "context_tf"]
    before = snapshot(out)
    with monkeypatch.context() as m:  # refused before the test root is read
        m.setattr(cli, "load_root", lambda *a, **k: pytest.fail("test root was loaded"))
        capsys.readouterr()
        assert run("evaluate", *args) == 1
    assert "--checkpoint was trained on 'ds'" in capsys.readouterr().err
    assert snapshot(out) == before
    assert run("evaluate", *args, "--allow-same-dataset") == 0


def test_evaluate_holds_every_checkpoint_to_the_protocol(tmp_path, dataset, capsys):
    out = train_pipeline(tmp_path, dataset)  # context model trained on ds
    other = tmp_path / "other"
    assert run("synth", "--out", str(other), "--scenario", "linear", "--n", "2",
               "--scenes", "1", "--seed", "3") == 0
    vanilla = tmp_path / "vanilla"  # offsets-only model trained on other
    assert run("preprocess", *desk_args(other, vanilla, ["context.enabled=false"])) == 0
    assert run("train", *desk_args(other, vanilla, ["context.enabled=false"])) == 0
    target = tmp_path / "scored"
    args = [*desk_args(dataset, target), "--test-root", str(other),
            "--methods", "context_tf,vanilla_tf", "--checkpoint", str(out / "model.ckpt"),
            "--vanilla-checkpoint", str(vanilla / "model.ckpt")]
    capsys.readouterr()
    assert run("evaluate", *args) == 1
    assert "--vanilla-checkpoint was trained on 'other'" in capsys.readouterr().err
    assert not target.exists()
    assert run("evaluate", *args, "--allow-same-dataset") == 0


def test_evaluate_report_deterministic(tmp_path, dataset):
    out = train_pipeline(tmp_path, dataset)
    args = desk_args(dataset, out) + ["--test-root", str(dataset),
                                      "--checkpoint", str(out / "model.ckpt"),
                                      "--methods", "context_tf,cv_kalman",
                                      "--allow-same-dataset"]
    assert run("evaluate", *args) == 0
    first = (out / "report.csv").read_bytes()
    assert run("evaluate", *args) == 0
    assert (out / "report.csv").read_bytes() == first


def test_clip_norm_keeps_outputs_independent_of_blas_threads(tmp_path, dataset):
    # at d_model 128 every weight block is long enough for OpenBLAS to thread a
    # dot product over it, and with a small grad_clip every step is clipped, so
    # the clip norm's rounding reaches the weights. Weight-gradient GEMMs over a
    # few hundred rows or more can still differ; this run stays below that.
    shape = ["model.d_model=128", "model.d_ff=512", "train.epochs=1", "train.grad_clip=0.01"]
    src = str(Path(trajformer.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        for argv in (["preprocess", *desk_args(dataset, out, shape)],
                     ["train", *desk_args(dataset, out, shape)],
                     ["predict", "--checkpoint", str(out / "model.ckpt"), "--root", str(dataset),
                      "--out", str(out / "pred")]):
            subprocess.run([sys.executable, "-m", "trajformer", *argv], env=env, check=True,
                           capture_output=True)
        digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("cache/train_features.bin", "model.ckpt",
                                     "pred/predictions.csv")})
    assert digests[0] == digests[1]


def test_predict_dump_and_svg(tmp_path, dataset):
    out = train_pipeline(tmp_path, dataset)
    pred_dir = tmp_path / "pred"
    assert run("predict", "--checkpoint", str(out / "model.ckpt"), "--root", str(dataset),
               "--out", str(pred_dir), "--plot") == 0
    with open(pred_dir / "predictions.csv") as f:
        rows = list(csv.DictReader(f))
    per_window = {}
    for r in rows:
        per_window.setdefault((r["scene_id"], r["ego_id"], r["start_index"]), []).append(r)
    assert all(len(v) == 5 for v in per_window.values())  # kappa rows per window

    svgs = sorted(pred_dir.glob("plots/*/*.svg"))
    assert len(svgs) == len(per_window)
    root = ET.parse(svgs[0]).getroot()  # well-formed XML
    assert root.tag.endswith("svg")

    # blue prediction polyline coordinates are the dump values / meters_per_pixel
    window_rows = per_window[(svgs[0].parent.name, *svgs[0].stem.rsplit("_", 1))]
    polys = [el for el in root.iter() if el.tag.endswith("polyline")]
    blue = [el for el in polys if el.get("stroke") == "#1f4fd8"]
    assert len(blue) == 1
    pts = np.array([[float(x) for x in pair.split(",")]
                    for pair in blue[0].get("points").split()])
    expected = np.array([[float(r["pred_x_m"]), float(r["pred_y_m"])] for r in window_rows]) / 0.2
    assert np.max(np.abs(pts - expected)) < 5e-4  # svg coords carry 3 decimals


def test_checkpoint_every_keeps_a_valid_checkpoint(tmp_path, dataset):
    out = tmp_path / "out"
    extra = ["train.checkpoint_every=1", "train.epochs=3"]
    assert run("preprocess", *desk_args(dataset, out, extra)) == 0
    assert run("train", *desk_args(dataset, out, extra)) == 0
    ckpt = load_checkpoint(out / "model.ckpt")
    assert ckpt.meta["epochs_done"] == 3
    assert not (out / "model.ckpt.tmp").exists()  # atomic write-rename cleans up


def test_divergent_resume_exits_3(tmp_path, dataset):
    out = train_pipeline(tmp_path, dataset)
    ckpt = load_checkpoint(out / "model.ckpt")
    ckpt.params.tensors["out_proj.b"].data[0] = np.nan
    from trajformer.model import save_checkpoint
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, ckpt.params, ckpt.stats, {k: v for k, v in ckpt.meta.items()
                                                   if k not in ("kind", "checkpoint_version",
                                                                "config", "adam_tau")})
    rc = run("train", *desk_args(dataset, out, ["train.epochs=4"]), "--resume", str(bad))
    assert rc == 3


def test_predict_svgs_of_ids_that_join_alike_are_all_written(tmp_path, dataset):
    out = train_pipeline(tmp_path, dataset)
    root = tmp_path / "ids"
    assert run("synth", "--out", str(root), "--scenario", "linear", "--n", "2",
               "--scenes", "2", "--seed", "2") == 0
    # scene s with agent p_1 and scene s_p with agent 1 both joined to s_p_1_<start>
    for scene, scene_id, agent in (("linear_s2_00", "s", "p_1"), ("linear_s2_01", "s_p", "1")):
        for name in ("scene.meta", "tracks.csv"):
            path = root / scene / name
            path.write_text(path.read_text().replace(scene, scene_id).replace(",ped0,",
                                                                              f",{agent},"))
    pred_dir = tmp_path / "pred"
    assert run("predict", "--checkpoint", str(out / "model.ckpt"), "--root", str(root),
               "--out", str(pred_dir), "--plot") == 0
    with open(pred_dir / "predictions.csv") as f:
        windows = {(r["scene_id"], r["ego_id"], r["start_index"]) for r in csv.DictReader(f)}
    assert {("s", "p_1"), ("s_p", "1")} <= {key[:2] for key in windows}
    assert len(list(pred_dir.rglob("*.svg"))) == len(windows)  # none written over another
    svgs = {(p.parent.name, *p.stem.rsplit("_", 1)) for p in pred_dir.glob("plots/*/*.svg")}
    assert svgs == windows


def test_predict_missing_scene_map_errors(tmp_path, dataset, capsys):
    out = train_pipeline(tmp_path, dataset)
    # a matching cache is present: predict on the training root reads its cache
    assert run("predict", "--checkpoint", str(out / "model.ckpt"), "--root", str(dataset),
               "--out", str(tmp_path / "before"), "--plot") == 0
    assert f"features: {out / 'cache' / 'train_features.bin'}\n" in capsys.readouterr().out
    (dataset / "linear_s1_00" / "map.pgm").unlink()
    rc = run("predict", "--checkpoint", str(out / "model.ckpt"), "--root", str(dataset),
             "--out", str(tmp_path / "pred"), "--plot")
    assert rc == 2
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize("command", ["evaluate", "evaluate-cached", "preprocess"])
def test_root_without_scene_map_exits_2_and_writes_nothing(tmp_path, dataset, capsys, command):
    out = train_pipeline(tmp_path, dataset)
    broken = tmp_path / "broken"
    assert run("synth", "--out", str(broken), "--scenario", "linear", "--n", "2",
               "--scenes", "1", "--seed", "3") == 0
    if command.startswith("evaluate"):
        target = tmp_path / "scored"
        argv = ["evaluate", *desk_args(dataset, target), "--test-root", str(broken),
                "--checkpoint", str(out / "model.ckpt")]
        if command == "evaluate-cached":  # a test cache that matched the root before
            assert run("preprocess", *desk_args(dataset, target,
                                                [f"data.test_root={broken}"])) == 0
            assert run(*argv) == 0
            assert f"test features: {target / 'cache' / 'test_features.bin'}" in \
                capsys.readouterr().out
    else:  # an output directory that already holds both roots' caches
        target = out
        argv = ["preprocess", *desk_args(dataset, out, [f"data.test_root={broken}"])]
        assert run(*argv) == 0
    (broken / "linear_s3_00" / "map.pgm").unlink()
    before = snapshot(target)
    capsys.readouterr()
    assert run(*argv) == 2
    assert str(broken / "linear_s3_00" / "map.pgm") in capsys.readouterr().err
    assert snapshot(target) == before


@pytest.mark.parametrize("command", ["predict", "evaluate", "evaluate-vanilla", "train"])
def test_missing_checkpoint_exits_2(tmp_path, dataset, capsys, command):
    missing = tmp_path / "absent.ckpt"
    out = tmp_path / "out"
    if command == "predict":
        argv = ["predict", "--checkpoint", str(missing), "--root", str(dataset),
                "--out", str(out)]
    elif command == "train":
        assert run("preprocess", *desk_args(dataset, out)) == 0
        argv = ["train", *desk_args(dataset, out), "--resume", str(missing)]
    else:
        method, flag = (("vanilla_tf", "--vanilla-checkpoint") if command.endswith("vanilla")
                        else ("context_tf", "--checkpoint"))
        argv = ["evaluate", *desk_args(dataset, out), "--test-root", str(dataset),
                "--methods", method, flag, str(missing), "--allow-same-dataset"]
    capsys.readouterr()
    assert run(*argv) == 2
    assert str(missing) in capsys.readouterr().err
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert written in ([], [".lock", "cache", "canonical"])


def test_predict_checkpoint_without_settings_exits_2(tmp_path, dataset, capsys):
    out = train_pipeline(tmp_path, dataset)
    ckpt = load_checkpoint(out / "model.ckpt")
    bare = tmp_path / "bare.ckpt"
    save_checkpoint(bare, ckpt.params, ckpt.stats)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, ckpt.params, ckpt.stats, {**ckpt.meta, "window": {"delta": 1}})
    no_context = tmp_path / "no_context.ckpt"
    save_checkpoint(no_context, ckpt.params, ckpt.stats,
                    {k: v for k, v in ckpt.meta.items() if k != "context"})
    zero_heads = tmp_path / "zero_heads.ckpt"
    arrays, header = load_bundle(out / "model.ckpt")
    save_bundle(zero_heads, arrays, {**header, "config": {**header["config"], "n_heads": 0}})
    for path in (bare, bad, no_context, zero_heads):
        pred_dir = tmp_path / f"pred_{path.stem}"
        assert run("predict", "--checkpoint", str(path), "--root", str(dataset),
                   "--out", str(pred_dir)) == 2
        assert str(path) in capsys.readouterr().err
        assert not pred_dir.exists()


@pytest.mark.parametrize("section,key,value", [("semantic", "d_max_px", float("nan")),
                                               ("window", "rate_hz", float("nan")),
                                               ("grid", "threshold_px", float("inf"))])
def test_predict_checkpoint_with_non_finite_setting_exits_2(tmp_path, dataset, capsys,
                                                            section, key, value):
    out = train_pipeline(tmp_path, dataset)
    arrays, meta = load_bundle(out / "model.ckpt")
    bad = tmp_path / "bad.ckpt"
    save_bundle(bad, arrays, {**meta, section: {**meta[section], key: value}})
    pred_dir = tmp_path / "pred"
    capsys.readouterr()
    assert run("predict", "--checkpoint", str(bad), "--root", str(dataset),
               "--out", str(pred_dir)) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and key in err
    assert not pred_dir.exists()


@pytest.mark.parametrize("epochs_done", [None, "two", 1.5], ids=["missing", "string", "float"])
def test_resume_without_valid_epochs_done_exits_2(tmp_path, dataset, capsys, epochs_done):
    out = train_pipeline(tmp_path, dataset)
    ckpt = load_checkpoint(out / "model.ckpt")
    meta = {k: v for k, v in ckpt.meta.items() if k != "epochs_done"}
    if epochs_done is not None:
        meta["epochs_done"] = epochs_done
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, ckpt.params, ckpt.stats, meta, ckpt.adam_moments)
    before = [(out / name).read_bytes() for name in ("model.ckpt", "train_log.csv")]
    capsys.readouterr()
    assert run("train", *desk_args(dataset, out, ["train.epochs=4"]), "--resume", str(bad)) == 2
    assert str(bad) in capsys.readouterr().err
    assert [(out / name).read_bytes() for name in ("model.ckpt", "train_log.csv")] == before


@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
def test_checkpoint_without_stats_exits_2(tmp_path, dataset, capsys, command):
    out = train_pipeline(tmp_path, dataset)
    arrays, meta = load_bundle(out / "model.ckpt")
    bare = tmp_path / "bare.ckpt"
    save_bundle(bare, {k: v for k, v in arrays.items() if not k.startswith("stats.")}, meta)
    target = tmp_path / "target"
    argv = {
        "train": ["train", *desk_args(dataset, out, ["train.epochs=4"]), "--resume", str(bare)],
        "evaluate": ["evaluate", *desk_args(dataset, target), "--test-root", str(dataset),
                     "--methods", "context_tf", "--checkpoint", str(bare),
                     "--allow-same-dataset"],
        "predict": ["predict", "--checkpoint", str(bare), "--root", str(dataset),
                    "--out", str(target)],
    }[command]
    before = [(out / name).read_bytes() for name in ("model.ckpt", "train_log.csv")]
    capsys.readouterr()
    assert run(*argv) == 2
    assert str(bare) in capsys.readouterr().err
    assert not target.exists()
    assert [(out / name).read_bytes() for name in ("model.ckpt", "train_log.csv")] == before


@pytest.mark.parametrize("content", [b"epoch,train_loss\n0,\xff\xfe\n",
                                     b"epoch\n" + b"x" * 200_000 + b"\n"],
                         ids=["not_utf8", "field_over_csv_limit"])
def test_unreadable_log_on_resume_exits_2(tmp_path, dataset, capsys, content):
    out = train_pipeline(tmp_path, dataset)
    log = out / "train_log.csv"
    log.write_bytes(content)
    ckpt_before = (out / "model.ckpt").read_bytes()
    capsys.readouterr()
    assert run("train", *desk_args(dataset, out, ["train.epochs=4"]),
               "--resume", str(out / "model.ckpt")) == 2
    assert str(log) in capsys.readouterr().err
    assert log.read_bytes() == content
    assert (out / "model.ckpt").read_bytes() == ckpt_before


def test_failed_log_write_keeps_previous_log(tmp_path, dataset, monkeypatch):
    out = train_pipeline(tmp_path, dataset)
    log = out / "train_log.csv"
    before = log.read_bytes()
    real_atomic_open = cli.atomic_open

    @contextmanager
    def disk_full_for_log(path, *args, **kwargs):
        with real_atomic_open(path, *args, **kwargs) as f:
            if Path(path) == log:
                f.write("epoch,tr")
                raise OSError(28, "No space left on device")
            yield f

    monkeypatch.setattr(cli, "atomic_open", disk_full_for_log)
    with pytest.raises(OSError, match="No space left"):
        run("train", *desk_args(dataset, out, ["train.epochs=3"]))
    assert log.read_bytes() == before
    assert not (out / "train_log.csv.tmp").exists()


# ------------------------------------- held-out protocol and the test cache

def test_checkpoint_records_its_training_source(tmp_path, dataset):
    out = train_pipeline(tmp_path, dataset)
    source = root_digest(dataset, "canonical")
    assert load_bundle(out / "cache" / "train_features.bin")[1]["source"] == source
    assert load_checkpoint(out / "model.ckpt").meta["source"] == source


def test_train_refuses_a_cache_of_another_root(tmp_path, dataset, capsys):
    other = tmp_path / "other"
    assert run("synth", "--out", str(other), "--scenario", "linear", "--n", "2",
               "--scenes", "1", "--seed", "3") == 0
    out = tmp_path / "out"  # a cache of other, trained as if it held dataset
    assert run("preprocess", *desk_args(other, out)) == 0
    before = snapshot(out)
    capsys.readouterr()
    assert run("train", *desk_args(dataset, out)) == 2
    err = capsys.readouterr().err
    assert str(out / "cache" / "train_features.bin") in err and str(dataset) in err
    assert snapshot(out) == before
    cache = out / "cache" / "train_features.bin"  # a cache that records no source
    arrays, meta = load_bundle(cache)
    save_bundle(cache, arrays, {k: v for k, v in meta.items() if k != "source"})
    assert run("train", *desk_args(other, out)) == 2
    assert not (out / "model.ckpt").exists()


def test_evaluate_refuses_a_renamed_copy_of_the_training_root(tmp_path, dataset, capsys):
    out = train_pipeline(tmp_path, dataset)
    copy = tmp_path / "ds_copy"
    shutil.copytree(dataset, copy)
    target = tmp_path / "scored"
    args = [*desk_args(dataset, target), "--test-root", str(copy),
            "--checkpoint", str(out / "model.ckpt"), "--methods", "context_tf"]
    capsys.readouterr()
    assert run("evaluate", *args) == 1
    assert ("--checkpoint was trained on 'ds', which holds test scene 'linear_s1_00'"
            in capsys.readouterr().err)
    assert not target.exists()
    assert run("evaluate", *args, "--allow-same-dataset") == 0


def test_resume_refuses_a_checkpoint_trained_on_other_data(tmp_path, dataset, capsys):
    out = train_pipeline(tmp_path, dataset)
    other = tmp_path / "other"
    assert run("synth", "--out", str(other), "--scenario", "linear", "--n", "2",
               "--scenes", "1", "--seed", "3") == 0
    resumed = tmp_path / "resumed"
    assert run("preprocess", *desk_args(other, resumed)) == 0
    before = snapshot(resumed)
    capsys.readouterr()
    assert run("train", *desk_args(other, resumed, ["train.epochs=3"]),
               "--resume", str(out / "model.ckpt")) == 2
    assert str(out / "model.ckpt") in capsys.readouterr().err
    assert snapshot(resumed) == before


@pytest.mark.parametrize("source", [None, "ds", {"scenes": ["a"]}],
                         ids=["missing", "string", "scene_list"])
def test_evaluate_checkpoint_without_training_source_exits_2(tmp_path, dataset, capsys, source):
    out = train_pipeline(tmp_path, dataset)
    arrays, meta = load_bundle(out / "model.ckpt")
    bad = tmp_path / "bad.ckpt"
    save_bundle(bad, arrays, {**meta, "source": source} if source else
                {k: v for k, v in meta.items() if k != "source"})
    target = tmp_path / "scored"
    capsys.readouterr()
    assert run("evaluate", *desk_args(dataset, target), "--test-root", str(dataset),
               "--checkpoint", str(bad), "--allow-same-dataset") == 2
    assert f"{bad}: checkpoint records no training source" in capsys.readouterr().err
    assert not target.exists()


@pytest.fixture()
def held_out(tmp_path, dataset):
    """A model trained on ``dataset`` and a held-out root, preprocessed into its output dir."""
    out = train_pipeline(tmp_path, dataset)
    held = tmp_path / "held"
    assert run("synth", "--out", str(held), "--scenario", "linear", "--n", "2",
               "--scenes", "1", "--seed", "2") == 0
    assert run("preprocess", *desk_args(dataset, out, [f"data.test_root={held}"])) == 0
    return out, held


def evaluate_held_out(dataset, out, held):
    assert run("evaluate", *desk_args(dataset, out), "--test-root", str(held),
               "--checkpoint", str(out / "model.ckpt"),
               "--methods", "context_tf,cv_kalman") == 0
    return {name: (out / name).read_bytes() for name in ("report.csv", "report.md")}


def test_evaluate_reads_the_matching_test_cache(held_out, dataset, capsys, monkeypatch):
    out, held = held_out
    cache = out / "cache" / "test_features.bin"
    with monkeypatch.context() as m:
        m.setattr(cli, "load_root", lambda *a, **k: pytest.fail("test root was loaded"))
        capsys.readouterr()
        cached = evaluate_held_out(dataset, out, held)
    assert f"test features: {cache}\n" in capsys.readouterr().out
    cache.unlink()
    assert evaluate_held_out(dataset, out, held) == cached
    assert f"test features: built from {held} (no cache)" in capsys.readouterr().out


def edit_one_byte(path):
    """Change the 7th decimal of the 5th row's x_m, under the 1e-6 m pixel tolerance."""
    lines = path.read_text().split("\n")
    row = lines[5].split(",")
    digit = row[4].index(".") + 7
    row[4] = row[4][:digit] + str((int(row[4][digit]) + 1) % 10) + row[4][digit + 1:]
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines))


BUILD_REASONS = {"tracks_byte": "(cache records other source)",
                 "semantic": "(cache records other semantic)",
                 "no_context": "(cache records other context)",
                 "old_version": "test_features.bin: feature cache version 1, expected 2)",
                 "no_cache": "(no cache)"}


@pytest.mark.parametrize("change", list(BUILD_REASONS))
def test_evaluate_builds_from_the_root_unless_the_cache_matches(held_out, dataset, capsys,
                                                                  change):
    out, held = held_out
    cache = out / "cache" / "test_features.bin"
    before = evaluate_held_out(dataset, out, held)
    if change == "tracks_byte":
        edit_one_byte(held / "linear_s2_00" / "tracks.csv")
    elif change in ("semantic", "no_context"):
        other = "semantic.k=2" if change == "semantic" else "context.enabled=false"
        assert run("preprocess",
                   *desk_args(dataset, out, [f"data.test_root={held}", other])) == 0
    elif change == "old_version":
        arrays, meta = load_bundle(cache)
        save_bundle(cache, arrays, {**meta, "cache_version": 1})
    else:
        cache.unlink()
    capsys.readouterr()
    after = evaluate_held_out(dataset, out, held)
    printed = capsys.readouterr().out
    assert f"test features: built from {held} (" in printed and BUILD_REASONS[change] in printed
    assert (after != before) == (change == "tracks_byte")
    cache.unlink(missing_ok=True)  # the report of a build from the root as it now is
    assert evaluate_held_out(dataset, out, held) == after


def predict_held_out(out, held, pred_dir):
    """predictions.csv and every SVG of ``predict --plot`` on ``held``, by path."""
    assert run("predict", "--checkpoint", str(out / "model.ckpt"), "--root", str(held),
               "--out", str(pred_dir), "--plot") == 0
    return {p.relative_to(pred_dir): p.read_bytes() for p in sorted(pred_dir.rglob("*"))
            if p.is_file() and p.name != ".lock"}


def test_predict_reads_the_matching_cache_beside_its_checkpoint(held_out, tmp_path, capsys,
                                                               monkeypatch):
    out, held = held_out
    with monkeypatch.context() as m:
        m.setattr(cli, "load_root", lambda *a, **k: pytest.fail("test root was loaded"))
        m.setattr(data, "load_tracks", lambda *a, **k: pytest.fail("a tracks file was read"))
        capsys.readouterr()
        cached = predict_held_out(out, held, tmp_path / "cached")
    assert f"features: {out / 'cache' / 'test_features.bin'}\n" in capsys.readouterr().out
    assert len([p for p in cached if p.suffix == ".svg"]) == 32
    shutil.rmtree(out / "cache")
    assert predict_held_out(out, held, tmp_path / "built") == cached
    assert f"features: built from {held} (no cache)\n" in capsys.readouterr().out


PREDICT_REASONS = {"tracks_byte": "(test_features.bin: cache records other source; "
                                  "train_features.bin: cache records other source)",
                   "semantic": "(test_features.bin: cache records other semantic; "
                               "train_features.bin: cache records other source, semantic)",
                   "no_context": "(test_features.bin: cache records other context)",
                   "no_cache": "(no cache)"}


@pytest.mark.parametrize("change", list(PREDICT_REASONS))
def test_predict_builds_from_the_root_unless_a_cache_matches(held_out, dataset, tmp_path,
                                                              capsys, change):
    out, held = held_out
    if change == "tracks_byte":
        edit_one_byte(held / "linear_s2_00" / "tracks.csv")
    elif change in ("semantic", "no_context"):
        other = "semantic.k=2" if change == "semantic" else "context.enabled=false"
        assert run("preprocess",
                   *desk_args(dataset, out, [f"data.test_root={held}", other])) == 0
        if change == "no_context":  # the context-off test cache is the only one
            (out / "cache" / "train_features.bin").unlink()
    else:
        shutil.rmtree(out / "cache")
    capsys.readouterr()
    after = predict_held_out(out, held, tmp_path / "after")
    assert f"features: built from {held} {PREDICT_REASONS[change]}\n" in capsys.readouterr().out
    shutil.rmtree(out / "cache", ignore_errors=True)  # a build from the root as it now is
    assert predict_held_out(out, held, tmp_path / "built") == after


def test_predict_offsets_only_checkpoint_uses_a_context_cache(held_out, dataset, tmp_path,
                                                              capsys):
    out, held = held_out
    vanilla = train_pipeline(tmp_path / "vanilla", dataset, ["context.enabled=false"])
    assert load_checkpoint(vanilla / "model.ckpt").meta["context"] is False
    dumps = []
    for context in ("false", "true"):  # preprocess rewrites the caches beside the checkpoint
        assert run("preprocess", *desk_args(dataset, vanilla, [f"data.test_root={held}",
                                                               f"context.enabled={context}"])) == 0
        capsys.readouterr()
        dumps.append(predict_held_out(vanilla, held, tmp_path / f"context_{context}"))
        assert f"features: {vanilla / 'cache' / 'test_features.bin'}\n" in \
            capsys.readouterr().out
    shutil.rmtree(vanilla / "cache")
    assert dumps == [predict_held_out(vanilla, held, tmp_path / "built")] * 2


@pytest.mark.parametrize("fault", ["two_field_key", "short_rows"])
def test_malformed_cache_is_a_non_match_and_train_exits_2(held_out, dataset, tmp_path, capsys,
                                                          fault):
    out, held = held_out
    before = evaluate_held_out(dataset, out, held)
    for tag in ("train", "test"):
        cache = out / "cache" / f"{tag}_features.bin"
        arrays, meta = load_bundle(cache)
        if fault == "two_field_key":
            meta = {**meta, "keys": [meta["keys"][0][:2], *meta["keys"][1:]]}
        else:
            arrays = {**arrays, "obs_m": arrays["obs_m"][:-1]}
        save_bundle(cache, arrays, meta)
    named = {"two_field_key": "is not [scene_id, ego_id, start_index]",
             "short_rows": "obs_m rows differ from its"}[fault]
    capsys.readouterr()
    assert evaluate_held_out(dataset, out, held) == before
    assert f"test features: built from {held} ({out / 'cache' / 'test_features.bin'}: " \
        in capsys.readouterr().out
    predict_held_out(out, held, tmp_path / "pred")
    printed = capsys.readouterr().out
    assert f"features: built from {held} (test_features.bin: " in printed and named in printed
    ckpt = (out / "model.ckpt").read_bytes()
    assert run("train", *desk_args(dataset, out, ["train.epochs=4"])) == 2
    err = capsys.readouterr().err
    assert f"{out / 'cache' / 'train_features.bin'}: feature cache" in err and named in err
    assert (out / "model.ckpt").read_bytes() == ckpt


def test_train_refuses_a_cache_of_another_version(tmp_path, dataset, capsys):
    out = tmp_path / "out"
    assert run("preprocess", *desk_args(dataset, out)) == 0
    cache = out / "cache" / "train_features.bin"
    arrays, meta = load_bundle(cache)
    save_bundle(cache, arrays, {**meta, "cache_version": 1})
    capsys.readouterr()
    assert run("train", *desk_args(dataset, out)) == 2
    assert f"{cache}: feature cache version 1, expected 2" in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()


# ------------------------------------------- settings of caches and checkpoints

def snapshot(root):
    """Every file under ``root`` with its bytes and mtime, to show nothing was written."""
    return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in sorted(root.rglob("*"))
            if p.is_file()} if root.exists() else None


OTHER_SETTINGS = {"window": ["window.stride=3"], "grid": ["grid.threshold_px=16"],
                  "semantic": ["semantic.k=2"],
                  "grid+semantic": ["grid.threshold_px=16", "semantic.k=2"]}


@pytest.mark.parametrize("sections", list(OTHER_SETTINGS))
@pytest.mark.parametrize("source", ["cache", "resume", "evaluate"])
def test_other_settings_exit_1_naming_file_and_sections(tmp_path, dataset, capsys, source,
                                                        sections):
    out = train_pipeline(tmp_path, dataset)
    other = OTHER_SETTINGS[sections]
    ckpt = out / "model.ckpt"
    if source == "cache":
        target, named = out, out / "cache" / "train_features.bin"
        argv = ["train", *desk_args(dataset, out, other)]
    elif source == "resume":  # a cache of the new settings, a checkpoint of the old
        target, named = tmp_path / "resumed", ckpt
        assert run("preprocess", *desk_args(dataset, target, other)) == 0
        argv = ["train", *desk_args(dataset, target, [*other, "train.epochs=3"]),
                "--resume", str(ckpt)]
    else:
        target, named = tmp_path / "scored", ckpt
        argv = ["evaluate", *desk_args(dataset, target, other), "--test-root", str(dataset),
                "--checkpoint", str(ckpt), "--allow-same-dataset"]
    before = snapshot(target)
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert str(named) in err
    assert f"other {sections.replace('+', ', ')} settings" in err
    assert snapshot(target) == before


@pytest.mark.parametrize("section", ["window", "grid", "semantic"])
@pytest.mark.parametrize("source", ["cache", "resume", "evaluate"])
def test_missing_settings_exit_2_naming_file(tmp_path, dataset, capsys, source, section):
    out = train_pipeline(tmp_path, dataset)
    bad = tmp_path / "bad.bin"
    if source == "cache":
        cache = out / "cache" / "train_features.bin"
        arrays, meta = load_bundle(cache)
        save_bundle(cache, arrays, {k: v for k, v in meta.items() if k != section})
        bad, argv = cache, ["train", *desk_args(dataset, out)]
    else:
        ckpt = load_checkpoint(out / "model.ckpt")
        dropped = (section, "kind", "checkpoint_version", "config", "adam_tau")  # re-added on save
        save_checkpoint(bad, ckpt.params, ckpt.stats,
                        {k: v for k, v in ckpt.meta.items() if k not in dropped}, ckpt.adam_moments)
        argv = (["train", *desk_args(dataset, out, ["train.epochs=3"]), "--resume", str(bad)]
                if source == "resume" else
                ["evaluate", *desk_args(dataset, out), "--test-root", str(dataset),
                 "--checkpoint", str(bad), "--allow-same-dataset"])
    before = snapshot(out)
    capsys.readouterr()
    assert run(*argv) == 2
    assert f"{bad}: records no {section} settings" in capsys.readouterr().err
    assert snapshot(out) == before


def test_resume_with_matching_settings_keeps_the_stats(tmp_path, dataset):
    out = train_pipeline(tmp_path, dataset)
    first = load_checkpoint(out / "model.ckpt").stats
    assert run("train", *desk_args(dataset, out, ["train.epochs=3"]),
               "--resume", str(out / "model.ckpt")) == 0
    resumed = load_checkpoint(out / "model.ckpt")
    assert resumed.meta["epochs_done"] == 3
    assert np.array_equal(resumed.stats.mean, first.mean)
    assert np.array_equal(resumed.stats.std, first.std)
    assert np.any(first.std == 1.0)  # columns constant in training are centred only


# ------------------------------------------------------------- guards

@pytest.mark.parametrize("extra, named", [
    (["--set", "data.train_root="], "data.train_root"),
    (["--set", "data.adapter=bogus"], "'bogus'"),
    (["--set", "eval.horizons=,"], "eval.horizons"),
    (["--set", "data.test_root=absent_root"], "'absent_root'"),
    (["--set", f"data.train_root={CONFIG_DIR / 'desk.cfg'}"], "data.train_root"),
    (["--set", "window.delta"], "'window.delta'"),
    (["--set", "window.deltas=3"], "'window.deltas'"),
    (["--set", "model.n_heads=0"], "model.n_heads"),
    (["--set", "train.grad_clip=-1"], "train.grad_clip"),
    (["--set", "window.rate_hz=nan"], "window.rate_hz"),
], ids=["no_train_root", "unknown_adapter", "no_horizons", "absent_test_root",
        "train_root_is_file", "set_without_equals", "unknown_key", "zero_heads",
        "negative_grad_clip", "nan_rate"])
def test_preprocess_guards_exit_1_and_write_nothing(tmp_path, dataset, capsys, extra, named):
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("preprocess", *desk_args(dataset, out), *extra) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["empty_cache", "other_model", "nothing_to_do"])
def test_train_guards_write_nothing(tmp_path, dataset, capsys, case):
    out = train_pipeline(tmp_path, dataset)
    ckpt = str(out / "model.ckpt")
    if case == "empty_cache":  # windows longer than every track
        assert run("preprocess", *desk_args(dataset, out, ["window.delta=500"])) == 0
        argv, code = desk_args(dataset, out, ["window.delta=500"]), 2
        named = f"{out / 'cache' / 'train_features.bin'} holds no windows"
    elif case == "other_model":
        argv, code = [*desk_args(dataset, out, ["model.d_model=16"]), "--resume", ckpt], 1
        named = ckpt
    else:
        argv, code, named = [*desk_args(dataset, out), "--resume", ckpt], 0, "2 epochs"
    before = snapshot(out)
    capsys.readouterr()
    assert run("train", *argv) == code
    printed = capsys.readouterr()
    assert named in printed.err + printed.out
    assert snapshot(out) == before


@pytest.mark.parametrize("case", ["bad_methods", "no_test_root", "absent_test_root",
                                  "missing_flag", "context_mismatch", "no_methods",
                                  "long_horizon"])
def test_evaluate_guards_exit_1_and_write_nothing(tmp_path, dataset, capsys, case):
    out = train_pipeline(tmp_path, dataset)
    ckpt = str(out / "model.ckpt")
    target = tmp_path / "scored"
    argv, named = {
        "bad_methods": (["--methods", "context_tf,bogus", "--checkpoint", ckpt], "'bogus'"),
        "no_test_root": ([], "--test-root"),
        "absent_test_root": (["--test-root", str(tmp_path / "absent")], str(tmp_path / "absent")),
        "missing_flag": (["--methods", "vanilla_tf", "--checkpoint", ckpt],
                         "--vanilla-checkpoint"),
        "context_mismatch": (["--methods", "vanilla_tf", "--vanilla-checkpoint", ckpt],
                             "--vanilla-checkpoint"),
        "no_methods": (["--methods", ","], "--methods ','"),
        "long_horizon": (["--set", "eval.horizons=9", "--checkpoint", ckpt], "eval.horizons"),
    }[case]
    if case not in ("no_test_root", "absent_test_root"):
        argv += ["--test-root", str(dataset), "--allow-same-dataset"]
    capsys.readouterr()
    assert run("evaluate", *desk_args(dataset, target), *argv) == 1
    assert named in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize("case", ["absent_root", "unknown_adapter"])
def test_predict_guards_exit_1_and_write_nothing(tmp_path, dataset, capsys, case):
    out = train_pipeline(tmp_path, dataset)
    root, extra, named = {
        "absent_root": (tmp_path / "absent", [], str(tmp_path / "absent")),
        "unknown_adapter": (dataset, ["--adapter", "bogus"], "'bogus'"),
    }[case]
    pred_dir = tmp_path / "pred"
    capsys.readouterr()
    assert run("predict", "--checkpoint", str(out / "model.ckpt"), "--root", str(root),
               "--out", str(pred_dir), *extra) == 1
    assert named in capsys.readouterr().err
    assert not pred_dir.exists()


@pytest.mark.parametrize("case", ["escaping_scene_id", "agent_id_with_slash",
                                  "duplicate_scene_id"])
def test_ids_that_cannot_name_outputs_exit_2_and_write_nothing(tmp_path, dataset, capsys, case):
    out = train_pipeline(tmp_path, dataset)
    scene = dataset / "linear_s1_00"
    meta, tracks = scene / "scene.meta", scene / "tracks.csv"
    if case == "escaping_scene_id":  # meta and tracks agree on an id that climbs out
        for path in (meta, tracks):
            path.write_text(path.read_text().replace("linear_s1_00", "../../escaped"))
        named = f"{meta} line 3: scene_id '../../escaped'"
    elif case == "agent_id_with_slash":  # an SVG name holds the agent id
        tracks.write_text(tracks.read_text().replace(",ped0,", ",x/ped0,"))
        named = f"{tracks} row 2: agent_id 'x/ped0'"
    else:  # the second scene's outputs would overwrite the first's
        copy = dataset / "linear_s1_00_copy"
        shutil.copytree(scene, copy)
        named = f"{scene} and {copy} both hold scene 'linear_s1_00'"
    target = tmp_path / "target"
    for argv in (["preprocess", *desk_args(dataset, target)],
                 ["predict", "--checkpoint", str(out / "model.ckpt"), "--root", str(dataset),
                  "--out", str(target), "--plot"]):
        capsys.readouterr()
        assert run(*argv) == 2
        assert named in capsys.readouterr().err
        assert not target.exists() and not (tmp_path / "escaped").exists()
