"""Mutation fuzzing of what ``evaluate`` and ``predict`` read besides their
root: after one mutation of a prepared run's feature caches or checkpoint,
each command exits 0, 1, 2 or 3 with no exception out of ``cli.main``, a
non-zero exit leaves no output behind, and an exit-0 report or prediction
dump is byte-equal to the one built from the root with no cache."""

import contextlib
import io
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajformer.cli import main
from trajformer.serialize import load_bundle, save_bundle

TINY = ["window.delta=5", "window.kappa=5", "window.stride=10",
        "grid.radial_bins=2", "grid.angular_bins=4", "semantic.k=4", "semantic.d_max_px=4",
        "model.d_model=8", "model.n_heads=2", "model.n_layers=1", "model.d_ff=16",
        "train.epochs=1", "train.batch_size=8", "train.val_fraction=0",
        "eval.horizons=0.3,0.5", "seed=4"]
FIELDS = {"window": ("delta", "kappa", "stride", "rate_hz"),
          "grid": ("threshold_px", "radial_bins", "angular_bins", "type_channels"),
          "semantic": ("k", "d_max_px")}


def run(*argv) -> tuple[int, str]:
    """``cli.main``'s exit code and stdout; any exception out of it fails the test."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([str(a) for a in argv])
    except Exception as exc:  # noqa: BLE001 - the property is that nothing escapes
        pytest.fail(f"{argv[0]} raised {exc!r}")
    return code, out.getvalue()


def run_args(world: Path, out_dir: Path, extra=()) -> list[str]:
    return [arg for item in (f"data.train_root={world / 'ds'}", f"out_dir={out_dir}", *TINY,
                             *extra) for arg in ("--set", item)]


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Training and test roots, a trained run whose cache holds both, and test
    caches built with other semantic settings and without context features."""
    world = tmp_path_factory.mktemp("world")
    for name, seed in (("ds", 1), ("held", 2)):
        assert run("synth", "--out", world / name, "--scenario", "linear", "--n", 2,
                   "--scenes", 1, "--seed", seed)[0] == 0
    for variant, extra in (("run", []), ("semantic", ["semantic.k=2"]),
                           ("no_context", ["context.enabled=false"])):
        assert run("preprocess", *run_args(world, world / variant,
                                           [f"data.test_root={world / 'held'}", *extra]))[0] == 0
    assert run("train", *run_args(world, world / "run"))[0] == 0
    return world


def rewrite(path: Path, arrays=None, **meta) -> None:
    old_arrays, old_meta = load_bundle(path)
    save_bundle(path, old_arrays if arrays is None else arrays, {**old_meta, **meta})


@st.composite
def mutations(draw):
    """(description, function of the run directory that applies it)."""
    cache = draw(st.sampled_from(["test", "train"]))
    kind = draw(st.sampled_from(["version", "source", "semantic", "no_context", "two_field_key",
                                 "short_rows", "truncated", "setting", "no_section",
                                 "no_context_flag"]))

    def cache_path(run_dir):
        return run_dir / "cache" / f"{cache}_features.bin"

    if kind == "version":
        version = draw(st.sampled_from([0, 1, 3, "2", None]))
        return f"{cache} cache_version {version!r}", \
            lambda d, w: rewrite(cache_path(d), cache_version=version)
    if kind == "source":  # the other root's digest, as the other cache records it
        other = "train" if cache == "test" else "test"
        return f"{cache} cache with the {other} root's source", lambda d, w: rewrite(
            cache_path(d), source=load_bundle(d / "cache" / f"{other}_features.bin")[1]["source"])
    if kind in ("semantic", "no_context"):
        return f"{cache} cache built with {kind}", lambda d, w: shutil.copy(
            w / kind / "cache" / f"{cache}_features.bin", cache_path(d))
    if kind == "two_field_key":
        def two_fields(d, w):
            keys = load_bundle(cache_path(d))[1]["keys"]
            rewrite(cache_path(d), keys=[keys[0][:2], *keys[1:]])
        return f"{cache} cache with a two-field key", two_fields
    if kind == "short_rows":
        name = draw(st.sampled_from(["features", "target_offsets", "last_obs_m", "obs_m",
                                     "fut_m"]))

        def short(d, w):
            arrays = load_bundle(cache_path(d))[0]
            rewrite(cache_path(d), arrays={**arrays, name: arrays[name][:-1]})
        return f"{cache} cache with short {name} rows", short
    if kind == "truncated":
        fraction = draw(st.floats(0.0, 0.999))

        def truncate(d, w):
            data = cache_path(d).read_bytes()
            cache_path(d).write_bytes(data[:int(len(data) * fraction)])
        return f"{cache} cache truncated to {fraction:.3f}", truncate

    def ckpt(run_dir):
        return run_dir / "model.ckpt"

    if kind == "setting":
        section = draw(st.sampled_from(list(FIELDS)))
        key = draw(st.sampled_from(FIELDS[section]))
        value = draw(st.sampled_from([2.5, math.nan, math.inf, True]))

        def set_value(d, w):
            rewrite(ckpt(d), **{section: {**load_bundle(ckpt(d))[1][section], key: value}})
        return f"checkpoint {section}.{key} = {value!r}", set_value
    if kind == "no_section":
        section = draw(st.sampled_from(list(FIELDS)))

        def drop(d, w):
            arrays, meta = load_bundle(ckpt(d))
            save_bundle(ckpt(d), arrays, {k: v for k, v in meta.items() if k != section})
        return f"checkpoint without {section} settings", drop

    def drop_context(d, w):
        arrays, meta = load_bundle(ckpt(d))
        save_bundle(ckpt(d), arrays, {k: v for k, v in meta.items() if k != "context"})
    return "checkpoint without a context flag", drop_context


def snapshot(root: Path) -> dict:
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def evaluate(world: Path, run_dir: Path, ckpt: Path) -> tuple[int, str]:
    return run("evaluate", *run_args(world, run_dir), "--test-root", world / "held",
               "--checkpoint", ckpt)


def predict(world: Path, ckpt: Path, out: Path) -> tuple[int, str]:
    return run("predict", "--checkpoint", ckpt, "--root", world / "held", "--out", out, "--plot")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mutation=mutations())
def test_evaluate_and_predict_survive_mutated_caches_and_checkpoints(world, mutation):
    what, apply = mutation
    with tempfile.TemporaryDirectory(dir=world) as tmp:
        tmp = Path(tmp)
        run_dir, bare = tmp / "run", tmp / "bare"  # bare: the checkpoint, no cache beside it
        shutil.copytree(world / "run", run_dir)
        apply(run_dir, world)
        bare.mkdir()
        shutil.copy(run_dir / "model.ckpt", bare / "model.ckpt")

        before = snapshot(run_dir)
        code, printed = evaluate(world, run_dir, run_dir / "model.ckpt")
        assert code in (0, 1, 2, 3), what
        if code:
            assert snapshot(run_dir) == before, f"{what}: evaluate exited {code} and wrote"
        else:
            assert evaluate(world, bare, run_dir / "model.ckpt")[0] == 0
            assert (run_dir / "report.csv").read_bytes() == (bare / "report.csv").read_bytes(), \
                f"{what}: {printed}"

        code, printed = predict(world, run_dir / "model.ckpt", tmp / "pred")
        assert code in (0, 1, 2, 3), what
        if code:
            assert not (tmp / "pred").exists(), f"{what}: predict exited {code} and wrote"
        else:
            assert predict(world, bare / "model.ckpt", tmp / "built")[0] == 0
            dump = "predictions.csv"
            assert (tmp / "pred" / dump).read_bytes() == (tmp / "built" / dump).read_bytes(), \
                f"{what}: {printed}"
