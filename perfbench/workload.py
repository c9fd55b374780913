"""One benchmark workload, run in a fresh process started by run.py.

Set-up generates the seeded synthetic datasets and runs an untimed warm-up
pipeline. Then whole rounds of the four CLI stages (preprocess, train,
evaluate, predict) run through ``trajformer.cli.main`` until the time
budget is spent, each round followed by its correctness checks. With
``--trace 1`` the process runs two untraced rounds, one traced round and the
per-block microbenchmarks, and reports per-layer metrics instead.

The result is written as JSON to ``--result``; stdout carries only what
the CLI prints.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

MB = float(1 << 20)


@dataclass(frozen=True)
class Data:
    scenario: str
    scenes: int
    peds: int
    steps: int  # every track is cut to this many samples, so window counts do not vary by seed


@dataclass(frozen=True)
class Spec:
    config: str                 # config file, relative to the checkout root
    overrides: tuple[str, ...]  # --set values on top of it
    train: Data
    test: Data
    vanilla: bool               # also train and evaluate the offsets-only ablation
    methods: str
    oracle_windows: int = 3     # windows per cache checked against the feature oracles
    causal_windows: int = 2     # rollouts checked for the causal-mask property
    # preprocess runs this many times per untraced round, so that a stage of a few
    # windows still lasts about a second; each run rebuilds and rewrites the caches
    preprocess_repeats: int = 1
    # a check that fails in every round because of a fault in the program (a FOUND line
    # in CHANGES.md), on training inputs that do not depend on the seed. It counts as a
    # failed operation; any other failing check, or this one failing only in some
    # rounds, makes the result incorrect.
    known_fault: str | None = None


PAPER_WINDOWS = ("window.delta=30", "window.kappa=50", "window.stride=1", "eval.horizons=1,2,3,4,5")

WORKLOADS = {
    # desk.cfg as shipped; per-window tape overhead dominates, features recomputed ~1.8x
    "desk": Spec("configs/desk.cfg", ("train.epochs=2",),
                 train=Data("crossing", 2, 2, 220), test=Data("obstacle", 1, 2, 130),
                 vanilla=True, methods="context_tf,vanilla_tf,cv_kalman"),
    # paper window geometry, desk model: ~18x feature recomputation on 160-step tracks,
    # 50-step decode
    "paper_windows": Spec("configs/desk.cfg", PAPER_WINDOWS + ("train.epochs=2",),
                          train=Data("crossing", 1, 2, 160), test=Data("obstacle", 1, 1, 100),
                          vanilla=False, methods="context_tf,cv_kalman"),
    # paper.cfg as shipped (512 wide, 6 layers), few windows: float64 matmuls dominate.
    # Its first Adam step raises the training loss ~170x, so train_loss.context fails
    # in every round (see CHANGES.md).
    "paper_model": Spec("configs/paper.cfg", ("train.epochs=2",),
                        train=Data("crossing", 1, 1, 82), test=Data("obstacle", 1, 1, 81),
                        vanilla=False, methods="context_tf,cv_kalman", causal_windows=1,
                        preprocess_repeats=20, known_fault="train_loss.context"),
}
# The training set is the same on every seed, so training is deterministic and a
# check that fails on it fails identically in every run; --seed draws the test set.
TRAIN_SEED = 0

# self-test size: same code paths, seconds instead of minutes
TINY_MODEL = ("model.d_model=16", "model.n_layers=1", "model.d_ff=16")


def tiny(spec: Spec) -> Spec:
    total = 80 if "window.delta=30" in spec.overrides or "paper.cfg" in spec.config else 30
    return replace(spec, overrides=spec.overrides + TINY_MODEL,
                   train=Data(spec.train.scenario, 1, 1, total + 2),
                   test=Data(spec.test.scenario, 1, 1, total + 1),
                   oracle_windows=1, causal_windows=1, preprocess_repeats=1)


# ------------------------------------------------------------------ inputs

def make_dataset(root: Path, data: Data, seed: int) -> dict:
    """Write a synthetic dataset root; return the scenes for the oracles."""
    from trajformer.data import AgentTrack, Scene
    from trajformer.synth import generate_scenes, write_dataset

    scenes = []
    for scene in generate_scenes(data.scenario, data.peds, seed, data.scenes):
        if min(len(t) for t in scene.tracks) < data.steps:
            raise RuntimeError(f"{scene.scene_map.scene_id}: tracks shorter than {data.steps}")
        tracks = [AgentTrack(t.agent_id, t.agent_type, t.t[:data.steps], t.xy_m[:data.steps],
                             t.xy_px[:data.steps]) for t in scene.tracks]
        scenes.append(Scene(scene.scene_map, tracks, scene.meta))
    write_dataset(root, scenes)
    return {s.scene_map.scene_id: {"labels": s.scene_map.labels,
                                   "tracks": {t.agent_id: (t.agent_type, t.xy_m, t.xy_px)
                                              for t in s.tracks}}
            for s in scenes}


@dataclass
class Inputs:
    train_root: Path
    test_root: Path
    train: dict
    test: dict


def make_inputs(work: Path, spec: Spec, seed: int) -> Inputs:
    # the directory names differ, so evaluate's held-out guard sees two datasets
    train_root, test_root = work / "data" / "train_set", work / "data" / "test_set"
    return Inputs(train_root, test_root, make_dataset(train_root, spec.train, TRAIN_SEED),
                  make_dataset(test_root, spec.test, 1 + seed % (1 << 30)))


# ------------------------------------------------------------------ rounds

def cli_main(argv: list[str]) -> int:
    from trajformer import cli

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:  # a traceback out of the CLI is a failed operation, not a crash
        traceback.print_exc()
        return -1


def stage_commands(spec: Spec, inputs: Inputs, rdir: Path) -> dict[str, list[list[str]]]:
    common = ["--config", str(ROOT / spec.config), "--set", f"data.train_root={inputs.train_root}"]
    for item in spec.overrides:
        common += ["--set", item]
    ctx = common + ["--set", f"out_dir={rdir / 'context'}"]
    van = common + ["--set", f"out_dir={rdir / 'vanilla'}", "--set", "context.enabled=false"]
    ckpt = str(rdir / "context" / "model.ckpt")
    evaluate = ["evaluate", *ctx, "--test-root", str(inputs.test_root), "--checkpoint", ckpt,
                "--methods", spec.methods, "--self-test-oracle"]
    if spec.vanilla:
        evaluate += ["--vanilla-checkpoint", str(rdir / "vanilla" / "model.ckpt")]
    return {
        "preprocess": ([["preprocess", *ctx, "--set", f"data.test_root={inputs.test_root}"]]
                       + ([["preprocess", *van]] if spec.vanilla else [])) * spec.preprocess_repeats,
        "train": [["train", *ctx]] + ([["train", *van]] if spec.vanilla else []),
        "evaluate": [evaluate],
        "predict": [["predict", "--checkpoint", ckpt, "--root", str(inputs.test_root),
                     "--out", str(rdir / "predictions"), "--plot"]],
    }


CHECK_NAMES = ("features.train", "features.test", "features.vanilla", "oracle_zero",
               "cv_kalman", "report_vs_predictions", "causal_rollout",
               "checkpoint_roundtrip", "train_loss.context", "train_loss.vanilla")


def check_names(spec: Spec) -> list[str]:
    return [n for n in CHECK_NAMES if spec.vanilla or not n.endswith("vanilla")]


def run_checks(spec: Spec, cfg, inputs: Inputs, rdir: Path, rng) -> dict[str, str]:
    """name -> "ok: ..." or "FAIL: ..." for every check of the round."""
    from trajformer.model import load_checkpoint

    ctx, test_cache = rdir / "context", rdir / "context" / "cache" / "test_features.bin"
    report = functools.cache(lambda: checks.read_report(ctx / "report.csv"))
    predictions = functools.cache(
        lambda: checks.read_predictions(rdir / "predictions" / "predictions.csv"))
    ckpt = functools.cache(lambda: load_checkpoint(ctx / "model.ckpt"))
    horizons, rate = cfg.horizons_s, cfg.window.rate_hz

    def features(cache, dataset):
        return lambda: checks.check_feature_cache(cache, dataset, rng, spec.oracle_windows)

    run = {
        "features.train": features(ctx / "cache" / "train_features.bin", inputs.train),
        "features.test": features(test_cache, inputs.test),
        "features.vanilla": features(rdir / "vanilla" / "cache" / "train_features.bin",
                                     inputs.train),
        "oracle_zero": lambda: checks.check_oracle_zero(report()),
        "cv_kalman": lambda: checks.check_kalman(report(), test_cache, horizons, rate,
                                                 cfg.kalman_process_noise,
                                                 cfg.kalman_measurement_noise),
        "report_vs_predictions": lambda: checks.check_report_vs_predictions(
            report(), predictions(), horizons, rate),
        "causal_rollout": lambda: checks.check_causal_rollout(
            ckpt(), test_cache, predictions(), rng, spec.causal_windows),
        "checkpoint_roundtrip": lambda: checks.check_checkpoint_roundtrip(ckpt(),
                                                                          ctx / "model.ckpt"),
        "train_loss.context": lambda: checks.check_training_log(ctx / "train_log.csv"),
        "train_loss.vanilla": lambda: checks.check_training_log(rdir / "vanilla" / "train_log.csv"),
    }
    results = {}
    for name in check_names(spec):
        try:
            results[name] = "ok: " + run[name]()
        except Exception as exc:  # a failed check is a failed operation
            results[name] = f"FAIL: {type(exc).__name__}: {exc}"
            print(f"check {name}: {results[name]}", file=sys.stderr)
    return results


def run_config(spec: Spec, inputs: Inputs):
    from trajformer.config import build_run_config

    return build_run_config(ROOT / spec.config,
                            [f"data.train_root={inputs.train_root}", *spec.overrides])


def window_count(cache: Path) -> int:
    return len(checks.read_bundle(cache, arrays=False)[1]["keys"])


def run_round(spec: Spec, inputs: Inputs, rdir: Path, seed: int, round_no: int,
              tracer: Tracer | None = None) -> dict:
    """One pass of the four stages plus checks; every round attempts the same operations."""
    shutil.rmtree(rdir, ignore_errors=True)
    rdir.mkdir(parents=True)
    commands = stage_commands(spec, inputs, rdir)
    n_ops = sum(len(c) for c in commands.values()) + len(check_names(spec))
    times, succeeded = {}, 0
    for stage, argvs in commands.items():
        gc.collect()
        span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
        started = time.perf_counter()
        with span:
            codes = [cli_main(argv) for argv in argvs]
        times[stage] = time.perf_counter() - started
        succeeded += codes.count(0)
        if any(codes):  # later stages and the checks have no inputs: all count as failed
            print(f"round {round_no}: {stage} exited with {codes}", file=sys.stderr)
            return {"attempted": n_ops, "failed": n_ops - succeeded, "times": times,
                    "stage_failed": stage}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = run_checks(spec, run_config(spec, inputs), inputs, rdir,
                          np.random.default_rng([seed % (1 << 32), round_no + 1]))
    failed = sum(1 for v in failures.values() if v.startswith("FAIL"))

    ctx = rdir / "context"
    n_train = window_count(ctx / "cache" / "train_features.bin")
    n_test = window_count(ctx / "cache" / "test_features.bin")
    models = ["context"] + (["vanilla"] if spec.vanilla else [])
    epochs = sum(len((rdir / m / "train_log.csv").read_text().splitlines()) - 1 for m in models)
    caches = [p for m in models for p in (rdir / m / "cache").glob("*.bin")]
    report = checks.read_report(ctx / "report.csv")
    longest = max(h for m, h in report if m == "context_tf")
    return {
        "attempted": n_ops,
        "failed": failed,
        "checks": failures,
        "times": times,
        "windows": {"train": n_train, "test": n_test},
        "metrics": {
            "preprocess_windows_per_s":
                (n_train * len(models) + n_test) * spec.preprocess_repeats / times["preprocess"],
            "train_windows_per_s": n_train * epochs / times["train"],
            "evaluate_windows_per_s": n_test / times["evaluate"],
            "predict_windows_per_s": n_test / times["predict"],
            "pipeline_s": sum(times.values()),
            "peak_rss_mb": rss_mb,
            "feature_cache_mb": sum(p.stat().st_size for p in caches) / MB,
            "checkpoint_mb": sum((rdir / m / "model.ckpt").stat().st_size for m in models) / MB,
            "ade_m": float(report[("context_tf", longest)]["ade_m"]),
        },
    }


# ------------------------------------------------------------- per layer

def host_reference_ms() -> float:
    """A fixed numpy + Python yardstick (~50 ms); it moves only when the machine does."""
    a = np.random.default_rng(0).standard_normal((160, 160)) / 16.0
    started = time.perf_counter()
    acc = 0
    for i in range(150000):
        acc += (i * 7) % 13
    b = a
    for _ in range(100):
        b = np.tanh(b @ a)
    np.sort(np.sin(np.arange(300000.0)))
    return (time.perf_counter() - started) * 1000.0


def nodes_per_window(params, feats, target) -> int:
    from trajformer.autodiff import _topo_order
    from trajformer.model import teacher_forced_offsets
    from trajformer.training import l2_loss

    loss = l2_loss(teacher_forced_offsets(params, feats, target), target)
    return len(_topo_order(loss))  # parameters and constants count, as in ROADMAP.md


def block_timings(cfg, delta: int, kappa: int) -> dict[str, float]:
    """Forward+backward ms per window for each block kind, summed over its instances."""
    from trajformer import autodiff as ad
    from trajformer import model as m

    params = m.ModelParams(cfg, seed=0)
    rng = np.random.default_rng(0)
    src, tgt = delta - 1, kappa
    x = ad.Tensor(rng.standard_normal((src, cfg.d_model)))
    y = ad.Tensor(rng.standard_normal((tgt, cfg.d_model)))
    feats = rng.standard_normal((src, cfg.feature_dim))
    dec_in = rng.standard_normal((tgt, cfg.out_dim))
    mask = m.causal_mask(tgt)
    n = cfg.n_layers

    def norm(t):
        return ad.layer_norm(t, params["enc0.norm1.gain"], params["enc0.norm1.bias"])

    blocks = {  # name -> [(forward returning a tensor, instances per window)]
        "embed": [(lambda: m.embed_source(feats, params), 1),
                  (lambda: m.embed_target(dec_in, params), 1)],
        "enc_attn": [(lambda: m.multi_head_attention(x, x, x, None, params, "enc0.attn"), n)],
        "dec_self_attn": [(lambda: m.multi_head_attention(y, y, y, mask, params,
                                                          "dec0.self_attn"), n)],
        "dec_cross_attn": [(lambda: m.multi_head_attention(y, x, x, None, params,
                                                           "dec0.cross_attn"), n)],
        "ff": [(lambda: m._feed_forward(x, params, "enc0.ff"), n),
               (lambda: m._feed_forward(y, params, "dec0.ff"), n)],
        "norm": [(lambda: norm(x), 2 * n), (lambda: norm(y), 3 * n)],
        "out_proj": [(lambda: m.project_output(y, params), 1)],
    }
    out = {}
    for name, parts in blocks.items():
        total = 0.0
        for forward, instances in parts:
            samples = []
            for _ in range(6):  # the first call is a warm-up and is dropped
                started = time.perf_counter()
                ad.backward(ad.tsum(forward()))
                samples.append(time.perf_counter() - started)
            total += statistics.median(samples[1:]) * 1000.0 * instances
        out[f"model.{name}_ms"] = total
    return out


def layer_metrics(tracer: Tracer, stages) -> dict[str, float]:
    t = tracer
    kids = t.children()
    ms = 1000.0
    steps, agents = t.counts["features.window_steps"], t.counts["features.agent_steps"]
    forward, decode = t.mean("model.teacher_forced_offsets"), t.mean("model.predict_autoregressive")
    in_train = (t.total("training.train") - t.child_total("training.train", "training._eval_mean_loss")
                - t.child_total("training.train", "model.save_checkpoint"))
    score_self = sum(t.self_time(i, kids) for i in t.indices("evaluation.evaluate"))
    out = {
        "data.load_s": t.total("data.load_dataset_root"),
        "data.resample_s": t.total("data.resample"),
        "data.windows_s": t.total("data.extract_windows"),
        "data.tracks": t.counts["data.tracks"],
        "data.windows": t.counts["data.windows"],
        "features.build_s": t.total("features.build_features"),
        "features.polar_s": t.total("features.polar_occupancy"),
        "features.semantic_s": t.total("features.semantic_histogram"),
        "features.window_steps": steps,
        "features.agent_steps": agents,
        "features.recompute_ratio": steps / agents if agents else float("nan"),
        "pipeline.feature_set_builds": t.count("pipeline.build_feature_set"),
        "pipeline.cache_save_s": t.total("pipeline.save_feature_cache"),
        "pipeline.cache_load_s": t.total("pipeline.load_feature_cache"),
        "serialize.checkpoint_save_ms": t.mean("model.save_checkpoint") * ms,
        "serialize.checkpoint_load_ms": t.mean("model.load_checkpoint") * ms,
        "autodiff.backward_ms_per_window": t.mean("autodiff.backward") * ms,
        "model.forward_ms_per_window": forward * ms,
        "model.decode_ms_per_window": decode * ms,
        "model.decode_forward_ratio": decode / forward,
        "training.step_ms": in_train / t.count("training.adam_step") * ms,
        "training.adam_ms": t.mean("training.adam_step") * ms,
        "evaluation.kalman_ms_per_window": t.mean("evaluation.cv_kalman_predict") * ms,
        "evaluation.score_self_s": score_self,
        "evaluation.report_ms": t.total("evaluation.emit_report") * ms,
        "plots.svg_ms_per_window": t.mean("plots.render_window_svg") * ms,
    }
    for stage in stages:
        out[f"cli.{stage}_self_s"] = sum(t.self_time(i, kids) for i in t.indices(f"cli.{stage}"))
    return out


# -------------------------------------------------------------------- main

def incorrect(spec: Spec, rounds: list[dict]) -> list[str]:
    """Failures that make the result incorrect: every one but a steady known fault."""
    failing = [{n for n, v in r.get("checks", {}).items() if v.startswith("FAIL")}
               for r in rounds]
    bad = set().union(*failing) | {f"cli.{r['stage_failed']}" for r in rounds
                                   if "stage_failed" in r}
    if spec.known_fault and all(spec.known_fault in f for f in failing):
        bad.discard(spec.known_fault)
    return sorted(bad)


def setup(spec: Spec, work: Path, seed: int) -> Inputs:
    """Inputs for the timed rounds, after a warm-up pipeline whose checks do not count."""
    shutil.rmtree(work, ignore_errors=True)
    warm_spec = tiny(spec)
    warm_inputs = make_inputs(work / "warmup", warm_spec, seed)
    run_round(warm_spec, warm_inputs, work / "warmup" / "round", seed, -1)
    shutil.rmtree(work / "warmup", ignore_errors=True)
    return make_inputs(work, spec, seed)


def traced_metrics(spec: Spec, inputs: Inputs, rdir: Path, tracer: Tracer,
                   rounds: list[dict]) -> dict[str, float]:
    """Per-layer metrics of the traced round and the microbenchmarks."""
    from trajformer.model import load_checkpoint

    per_layer = layer_metrics(tracer, rounds[-1]["times"])
    per_layer["trace.overhead_s"] = (rounds[2]["metrics"]["pipeline_s"]
                                     - rounds[1]["metrics"]["pipeline_s"])
    cfg = run_config(spec, inputs)
    cache, _ = checks.read_bundle(rdir / "context" / "cache" / "train_features.bin")
    ckpt = load_checkpoint(rdir / "context" / "model.ckpt")
    per_layer["autodiff.nodes_per_window"] = nodes_per_window(
        ckpt.params, ckpt.stats.apply(cache["features"][0]), cache["target_offsets"][0])
    model_cfg = ckpt.params.config
    del ckpt  # a 1 GB checkpoint at the paper shape; free it before the microbenchmarks
    per_layer.update(block_timings(model_cfg, cfg.window.delta, cfg.window.kappa))
    return per_layer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    spec = tiny(WORKLOADS[args.workload]) if args.tiny else WORKLOADS[args.workload]
    if args.trace:  # the per-layer figures describe one pass of each stage
        spec = replace(spec, preprocess_repeats=1)
    work, rdir = Path(args.work), Path(args.work) / "round"
    inputs = setup(spec, work, args.seed)
    result: dict = {"setup_done": time.monotonic()}
    if args.setup_only:
        shutil.rmtree(work, ignore_errors=True)
        Path(args.result).write_text(json.dumps(result))
        return 0

    host_start = [host_reference_ms() for _ in range(5)]
    # whole rounds while the next one, as long as the last, still ends within --seconds.
    # Traced: round 0 takes the first-round costs, round 1 is the untraced reference,
    # round 2 is traced.
    rounds, tracer = [], Tracer()
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) == 2
        if traced:
            tracer.install()
        round_started = time.perf_counter()
        try:
            rounds.append(run_round(spec, inputs, rdir, args.seed, len(rounds),
                                    tracer if traced else None))
        finally:
            tracer.uninstall()
        now = time.perf_counter()
        if args.trace:
            if len(rounds) == 3:
                break
        elif now - started + (now - round_started) > args.seconds:
            break

    checks_run = [r.get("checks", {}) for r in rounds]
    result.update(attempted=sum(r["attempted"] for r in rounds),
                  failed=sum(r["failed"] for r in rounds),
                  checks=checks_run,
                  incorrect=incorrect(spec, rounds),
                  rounds=[{"times": r["times"], **r.get("metrics", {})} for r in rounds])
    if all("metrics" in r for r in rounds):
        if args.trace:
            result["per_layer"] = traced_metrics(spec, inputs, rdir, tracer, rounds)
        else:
            ok = [r["metrics"] for r in rounds]
            result["end_to_end"] = {k: statistics.median(m[k] for m in ok) for k in ok[0]}
            # the peak only grows over a process's life; the first round's is the workload's
            result["end_to_end"]["peak_rss_mb"] = ok[0]["peak_rss_mb"]
    host_end = [host_reference_ms() for _ in range(5)]
    result["host_reference_ms"] = {"start": statistics.median(host_start),
                                   "end": statistics.median(host_end),
                                   "all": statistics.median(host_start + host_end)}
    if "per_layer" in result:
        result["per_layer"]["host.reference_ms"] = result["host_reference_ms"]["all"]
    shutil.rmtree(work, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
