"""Operator entry point: synth, preprocess, train, evaluate, predict.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric
divergence. Every command validates its configuration, checkpoints and
input roots before touching the filesystem; all outputs land under the
configured output directory, which is guarded by a lock file against
concurrent runs. Caches and checkpoints record the content digest of their
root; ``evaluate`` checks the held-out protocol by it. ``evaluate`` and
``predict`` get their windows by one rule, ``pipeline.inference_windows``:
from a cache in ``<out_dir>/cache`` or ``<checkpoint dir>/cache`` that
records their root's digest and settings, else from the root.
"""

from __future__ import annotations

import argparse
import csv
import fcntl
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, build_run_config
from .data import ADAPTERS, root_digest, root_scenes, scene_maps, write_tracks
from .errors import ConfigError, DataError, DivergenceError
from .evaluation import cv_kalman_predict, emit_report, evaluate
from .features import FeatureStats
from .model import Checkpoint, ModelParams, load_checkpoint, save_checkpoint
from .pipeline import (decode_predictor, inference_windows, load_feature_cache, load_root,
                       other_settings, recorded_settings, save_feature_cache, settings_record)
from .plots import map_background, render_window_svg
from .serialize import atomic_open
from .synth import SCENARIOS, synth_dataset
from .training import train


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


class _OutputLock:
    """One run per output directory: an exclusive ``flock`` on ``.lock``.

    The kernel drops the lock when its holder exits, however it dies, so a
    ``.lock`` file left behind blocks nothing. The file itself stays, since
    unlinking it could let two runs lock different files of the same name.
    """

    def __init__(self, out_dir: Path):
        self.path = Path(out_dir) / ".lock"
        self.fd: int | None = None

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise ConfigError(f"output directory is locked by {self.path}") from None
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode())
        self.fd = fd
        return self

    def __exit__(self, *exc):
        os.close(self.fd)  # closing the last descriptor releases the flock
        self.fd = None
        return False


# per epoch: the last three are the mean pre-clip global gradient norm over the
# epoch's minibatches, how many of them were clipped, and training windows/s
TRAIN_LOG_HEADER = ["epoch", "train_loss", "val_loss", "wall_seconds",
                    "grad_norm", "clipped_batches", "windows_per_s"]


def _checkpoint_meta(cfg: RunConfig, train_dataset: str, epochs_done: int, source) -> dict:
    return {"train_dataset": train_dataset, "epochs_done": epochs_done, "source": source,
            "context": cfg.context, **settings_record(cfg.window, cfg.grid, cfg.semantic)}


def _checkpoint_context(ckpt: Checkpoint, path) -> bool:
    """Whether the checkpoint at ``path`` was trained on context features."""
    context = ckpt.meta.get("context")
    if type(context) is not bool:
        raise DataError(f"{path}: checkpoint meta has no valid context flag ({context!r})")
    return context


def _require_settings(meta: dict, cfg: RunConfig, source) -> None:
    """Hold ``source``, a feature cache or checkpoint with metadata ``meta``, to
    the run's window, grid and semantic settings: a section it does not record
    validly is a DataError, one that differs a ConfigError."""
    if differing := other_settings(meta, source, cfg.window, cfg.grid, cfg.semantic):
        raise ConfigError(f"{source} was built with other {', '.join(differing)} settings "
                          "than the run config")


# ------------------------------------------------------------ commands

def cmd_synth(args) -> int:
    if args.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {args.scenario!r}; valid: {', '.join(SCENARIOS)}")
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    root = synth_dataset(args.out, args.scenario, args.n, args.seed, args.scenes, args.rate)
    print(f"wrote {args.scenes} scene(s) of scenario {args.scenario!r} to {root}")
    return 0


def _write_root(cfg: RunConfig, tag: str, root: str, scenes, fset, source: dict) -> None:
    counts = Counter(scene_id for scene_id, _, _ in fset.keys)
    for scene in scenes:
        scene_id = scene.scene_map.scene_id
        scene_dir = cfg.out_dir / "canonical" / tag / scene_id
        scene_dir.mkdir(parents=True, exist_ok=True)
        write_tracks(scene_dir / "tracks.csv", scene.tracks, scene_id)
        print(f"{tag}/{scene_id}: {counts[scene_id]} windows")
    cache_dir = cfg.out_dir / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    save_feature_cache(cache_dir / f"{tag}_features.bin", fset, cfg.window, cfg.grid,
                       cfg.semantic, source)
    if len(fset) == 0:
        print(f"warning: no windows extracted from {root}", file=sys.stderr)


def cmd_preprocess(args) -> int:
    cfg = build_run_config(args.config, args.set)
    if not cfg.train_root:
        raise ConfigError("data.train_root is required for preprocess")
    loaded = {tag: (root, *load_root(root, cfg.adapter, cfg.window, cfg.grid, cfg.semantic,
                                     cfg.context), root_digest(root, cfg.adapter))
              for tag, root in (("train", cfg.train_root), ("test", cfg.test_root)) if root}
    with _OutputLock(cfg.out_dir):
        for tag, (root, scenes, fset, source) in loaded.items():
            _write_root(cfg, tag, root, scenes, fset, source)
    return 0


def cmd_train(args) -> int:
    cfg = build_run_config(args.config, args.set)
    cache_path = cfg.out_dir / "cache" / "train_features.bin"
    if not cache_path.exists():
        raise DataError(f"feature cache {cache_path} not found; run preprocess first")
    fset, cache_meta = load_feature_cache(cache_path)
    _require_settings(cache_meta, cfg, cache_path)
    source = cache_meta.get("source")
    if cfg.train_root and source != root_digest(cfg.train_root, cfg.adapter):
        raise DataError(f"{cache_path} was not built from data.train_root {cfg.train_root}")
    if len(fset) == 0:
        raise DataError(f"feature cache {cache_path} holds no windows")

    start_epoch, state = 0, None
    if args.resume:
        ckpt = load_checkpoint(args.resume)
        _require_settings(ckpt.meta, cfg, args.resume)
        if ckpt.params.config != cfg.model:
            raise ConfigError(f"{args.resume}: checkpoint model config does not match run config")
        if ckpt.meta.get("source") != source:
            raise DataError(f"{args.resume}: trained on other data than {cache_path}")
        params, stats, state = ckpt.params, ckpt.stats, ckpt.adam_moments
        start_epoch = ckpt.meta.get("epochs_done")
        if type(start_epoch) is not int or start_epoch < 0:
            raise DataError(f"{args.resume}: checkpoint meta has no valid epochs_done "
                            f"({start_epoch!r})")
    remaining = cfg.train.epochs - start_epoch
    if remaining <= 0:
        print(f"nothing to do: {start_epoch} epochs already trained")
        return 0

    features = fset.model_features(cfg.context)
    targets = fset.target_offsets
    del fset  # only the standardized features are kept for training
    if not args.resume:
        params = ModelParams(cfg.model, seed=cfg.train.seed)
        stats = FeatureStats.fit([features])
    standardized = stats.apply(features)
    del features
    run_cfg = replace(cfg.train, epochs=remaining)
    train_dataset = Path(cfg.train_root).name if cfg.train_root else "train"

    with _OutputLock(cfg.out_dir):
        # the whole log is kept here and replaced atomically after each epoch;
        # a resumed run's earlier rows are widened to the current header
        log_path = cfg.out_dir / "train_log.csv"
        log_rows = [TRAIN_LOG_HEADER]
        if args.resume and log_path.exists():
            try:
                with open(log_path, newline="", encoding="utf-8") as f:
                    log_rows += [r + [""] * (len(TRAIN_LOG_HEADER) - len(r))
                                 for r in list(csv.reader(f))[1:]]
            except (OSError, UnicodeDecodeError, csv.Error) as exc:
                raise DataError(f"{log_path}: cannot read the training log ({exc})") from None

        ckpt_path = cfg.out_dir / "model.ckpt"

        def on_epoch(epoch, epoch_params, epoch_state, row):
            log_rows.append([row["epoch"], repr(row["train_loss"]),
                             "" if np.isnan(row["val_loss"]) else repr(row["val_loss"]),
                             f"{row['wall_seconds']:.3f}", repr(row["grad_norm"]),
                             row["clipped_batches"], f"{row['windows_per_s']:.1f}"])
            with atomic_open(log_path, "w", newline="", encoding="utf-8") as f:
                csv.writer(f).writerows(log_rows)
            if cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
                meta = _checkpoint_meta(cfg, train_dataset, epoch + 1, source)
                save_checkpoint(ckpt_path, epoch_params, stats, meta, epoch_state)

        history, state = train(params, standardized, targets, run_cfg,
                               state=state, start_epoch=start_epoch, on_epoch=on_epoch)
        meta = _checkpoint_meta(cfg, train_dataset, start_epoch + remaining, source)
        save_checkpoint(ckpt_path, params, stats, meta, state)
        print(f"trained {remaining} epoch(s); final train loss "
              f"{history[-1]['train_loss']:.6f}; checkpoint {ckpt_path}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = build_run_config(args.config, args.set)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if args.self_test_oracle and "oracle" not in methods:
        methods.append("oracle")
    valid = {"context_tf", "vanilla_tf", "cv_kalman", "oracle"}
    if unknown := [m for m in methods if m not in valid]:
        raise ConfigError(f"unknown methods {unknown}; valid: {sorted(valid)}")
    test_root = args.test_root or cfg.test_root
    if not test_root:
        raise ConfigError("a test dataset is required (--test-root or data.test_root)")
    if not Path(test_root).is_dir():
        raise ConfigError(f"test dataset root {test_root!r} does not exist")
    dataset = Path(test_root).name  # labels the report only
    test_source = root_digest(test_root, cfg.adapter)

    checkpoints = {}  # method -> (checkpoint, context); decoded once the test set is built
    for method, flag, path, context in (
            ("context_tf", "--checkpoint", args.checkpoint, True),
            ("vanilla_tf", "--vanilla-checkpoint", args.vanilla_checkpoint, False)):
        if method not in methods:
            continue
        if not path:
            raise ConfigError(f"method {method} needs {flag}")
        ckpt = load_checkpoint(path, with_adam=False)
        if _checkpoint_context(ckpt, path) != context:
            raise ConfigError(f"{flag} was trained {'without' if context else 'with'} "
                              "context features")
        _require_settings(ckpt.meta, cfg, path)
        try:
            trained_on = set(ckpt.meta["source"]["scenes"].values())
        except (KeyError, TypeError, AttributeError):
            raise DataError(f"{path}: checkpoint records no training source") from None
        shared = [sid for sid, digest in test_source["scenes"].items() if digest in trained_on]
        if shared and not args.allow_same_dataset:
            raise ConfigError(f"{flag} was trained on {ckpt.meta.get('train_dataset')!r}, "
                              f"which holds test scene {shared[0]!r}; evaluating on the same "
                              "dataset requires --allow-same-dataset")
        checkpoints[method] = (ckpt, context)
    if not methods:
        raise ConfigError(f"no methods requested (--methods {args.methods!r})")
    fset = inference_windows(test_root, cfg.adapter, test_source, cfg.out_dir / "cache",
                             cfg.window, cfg.grid, cfg.semantic, "context_tf" in checkpoints)

    with _OutputLock(cfg.out_dir):
        predictions = {method: decode_predictor(ckpt.params, ckpt.stats, fset, context)
                       for method, (ckpt, context) in checkpoints.items()}
        if "oracle" in methods:
            predictions["oracle"] = fset.fut_m
        if "cv_kalman" in methods:
            predictions["cv_kalman"] = cv_kalman_predict(
                fset.obs_m, cfg.window.kappa, 1.0 / cfg.window.rate_hz,
                cfg.kalman_process_noise, cfg.kalman_measurement_noise)
        table = evaluate(predictions, fset.fut_m, cfg.horizons_s, cfg.window.rate_hz,
                         dataset=dataset, at_horizon=cfg.at_horizon,
                         pooled_rmse=cfg.pooled_rmse)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        emit_report(table, cfg.out_dir / "report.csv", "csv")
        emit_report(table, cfg.out_dir / "report.md", "markdown")
        print(f"wrote {cfg.out_dir / 'report.csv'} and report.md "
              f"({len(table.rows)} rows over {len(fset)} windows)")
    return 0


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.checkpoint, with_adam=False)
    settings = recorded_settings(ckpt.meta, args.checkpoint)
    context = _checkpoint_context(ckpt, args.checkpoint)
    if not Path(args.root).is_dir():
        raise ConfigError(f"window source {args.root!r} does not exist")
    # train writes the checkpoint beside the cache directory that preprocess filled
    scenes = root_scenes(args.root)
    fset = inference_windows(args.root, args.adapter, root_digest(args.root, args.adapter, scenes),
                             Path(args.checkpoint).parent / "cache", *settings, context)
    maps = scene_maps(scenes) if args.plot else {}
    out_dir = Path(args.out)

    with _OutputLock(out_dir):
        preds = decode_predictor(ckpt.params, ckpt.stats, fset, context)

        out_dir.mkdir(parents=True, exist_ok=True)
        dump_path = out_dir / "predictions.csv"
        backgrounds = {}  # scene id -> its map's SVG rects, drawn once per scene
        with atomic_open(dump_path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["scene_id", "ego_id", "start_index", "step",
                             "pred_x_m", "pred_y_m", "gt_x_m", "gt_y_m"])
            for i, (scene_id, ego_id, start) in enumerate(fset.keys):
                pred, fut = preds[i], fset.fut_m[i]
                for step in range(len(pred)):
                    writer.writerow([scene_id, ego_id, start, step + 1,
                                     repr(float(pred[step, 0])), repr(float(pred[step, 1])),
                                     repr(float(fut[step, 0])), repr(float(fut[step, 1]))])
                if args.plot:
                    # ids hold no "/", so plots/<scene_id>/<ego_id>_<start>.svg is unique
                    scene_dir = out_dir / "plots" / scene_id
                    if scene_id not in backgrounds:
                        backgrounds[scene_id] = map_background(maps[scene_id])
                        scene_dir.mkdir(parents=True, exist_ok=True)
                    svg = render_window_svg(maps[scene_id], fset.obs_m[i], pred, fut,
                                            title=f"{scene_id} {ego_id} @{start}",
                                            background=backgrounds[scene_id])
                    with atomic_open(scene_dir / f"{ego_id}_{start}.svg", "w",
                                     encoding="utf-8") as svg_file:
                        svg_file.write(svg)
        print(f"wrote {dump_path}" + (" and SVG plots" if args.plot else ""))
    return 0


# -------------------------------------------------------------- parser

def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trajformer",
                     description="trajectory forecasting pipeline (synthesize, preprocess, "
                                 "train, evaluate, predict)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config value (repeatable)")

    p = sub.add_parser("synth", help="generate a synthetic dataset root")
    p.add_argument("--out", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, default=2, help="pedestrian tracks per scene")
    p.add_argument("--scenes", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=float, default=10.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="resample, window and cache features")
    add_config_args(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train on the cached features")
    add_config_args(p)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score methods on a held-out dataset")
    add_config_args(p)
    p.add_argument("--checkpoint", help="context model checkpoint")
    p.add_argument("--vanilla-checkpoint", help="context-off ablation checkpoint")
    p.add_argument("--test-root", help="test dataset root (defaults to data.test_root)")
    p.add_argument("--methods", default="context_tf,cv_kalman",
                   help="comma list from context_tf,vanilla_tf,cv_kalman,oracle")
    p.add_argument("--allow-same-dataset", action="store_true",
                   help="waive the held-out-dataset protocol check")
    p.add_argument("--self-test-oracle", action="store_true",
                   help="also score a ground-truth oracle (must come out all-zero)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="dump predictions (and SVG plots) for every window")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--root", required=True, help="dataset root to predict on")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--adapter", default="canonical", choices=list(ADAPTERS))
    p.add_argument("--plot", action="store_true", help="emit one SVG per window")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
